"""Piecewise-linear scalar fields and derivative recovery.

Gradients of P1 fields are constant per triangle and exact.  Second
derivatives are recovered per vertex by a least-squares affine fit of the
surrounding triangle gradients at their barycenters (superconvergent
patch recovery, Zienkiewicz & Zhu 1992) whose 2x2 slope matrix,
symmetrized, is the Hessian estimate.  The fit runs on the 2-ring patch:
1-ring patches are too thin at boundary vertices (one-sided, so the fit
amplifies the O(h) structure of interpolant gradients by 1/h) and too
small at the 4-triangle interior vertices of the union-jack pattern.

All patches are fitted at once from the mesh's vertex-triangle incidence
A.  The 2-ring pattern, that of A A^T A, comes from sorting (vertex,
triangle) keys and dropping repeats with a mask: first the 1-ring
vertices of each vertex, then the triangles at those.  The moment sums of
every patch (count, barycenter c, the products of c with itself and with
the gradient g, and g) are sums over contiguous runs of that pattern, one
np.add.reduceat per moment, so no (pattern, 12) block is held at once.
Eliminating the constant term of the normal equations leaves, per
vertex, a 2x2 system in the patch-centred moments (centred on the patch
mean, so no shift to the vertex is needed), solved in one batch.
Vertices whose patch has fewer than three triangles or collinear
barycenters fall back to averaging the neighbours' recovered Hessians and
are counted.  Callers that need the Hessian more than once recover it
once per field and pass it on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .mesh import Mesh2D


@dataclasses.dataclass
class ScalarField:
    """Vertex values of a P1 finite element function."""

    mesh: Mesh2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_vertices,):
            raise ValueError("values must have one entry per mesh vertex")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")


def element_gradients(mesh, values):
    """Per-triangle gradients of bare vertex values (no ScalarField checks)."""
    return np.einsum("tv,tvd->td", values[mesh.triangles], mesh.basis_grads)


def recover_gradient(field):
    """Per-triangle gradients, shape (n_triangles, 2).  Exact for P1."""
    return element_gradients(field.mesh, field.values)


def nodal_gradient(field):
    """Area-weighted average of incident triangle gradients per vertex."""
    mesh = field.mesh
    wg = mesh.areas[:, None] * recover_gradient(field)
    # the flattened triangles list each vertex's triangles in ascending order
    vertex = mesh.triangles.ravel()
    n = mesh.n_vertices
    total = np.column_stack([np.bincount(vertex, weights=np.repeat(wg[:, d], 3), minlength=n)
                             for d in range(2)])
    weight = np.bincount(vertex, weights=np.repeat(mesh.areas, 3), minlength=n)
    return total / weight[:, None]


def _distinct_pairs(key, n_rows, n_cols):
    """Distinct pairs from keys row * n_cols + col, as compressed rows
    (indptr, indices) with each row's columns ascending.  Sorts key in place."""
    key.sort()
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]
    indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols)
    key -= np.repeat(np.arange(n_rows) * n_cols, np.diff(indptr))
    return indptr, key


def _two_ring(mesh):
    """2-ring patches in compressed rows: (indptr, indices).

    indices[indptr[v]:indptr[v + 1]] are the triangles that share a vertex
    with a triangle at v, ascending: the pattern of A A^T A.
    """
    indptr, indices = mesh.incidence()
    counts = np.diff(indptr)
    n, n_tri = mesh.n_vertices, mesh.n_triangles
    # 1-ring: the vertices of the triangles at v, v included
    key = np.repeat(np.arange(n) * n, 3 * counts)
    key += mesh.triangles[indices].ravel()
    ring_ptr, ring = _distinct_pairs(key, n, n)
    # 2-ring: the triangles at those vertices.  The keys are built in place,
    # since these arrays are the largest of a recovery.
    per_u = counts[ring]
    key = np.repeat(np.repeat(np.arange(n) * n_tri, np.diff(ring_ptr)), per_u)
    at_u = np.repeat(indptr[:-1][ring] - (np.cumsum(per_u) - per_u), per_u)
    at_u += np.arange(len(at_u))
    key += indices[at_u]
    del at_u
    return _distinct_pairs(key, n, n_tri)


# Patch barycenters count as collinear when det(C) <= _COLLINEAR_RTOL tr(C)^2
# for their centred second moments C, i.e. at an aspect ratio below ~1e-4.
# Rounding in C is ~eps (R/w)^2 relative for a domain of radius R and patch
# width w, so the test stays clear of it up to R/w ~ 1e3.
_COLLINEAR_RTOL = 1e-8


def recover_hessian(field, with_stats=False):
    """Recovered vertex Hessians, shape (n_vertices, 2, 2), symmetric.

    With ``with_stats`` also returns the number of vertices that needed
    the averaging fallback.
    """
    mesh = field.mesh
    ring_ptr, ring_tris = _two_ring(mesh)
    # moments about the vertex centroid: centring on each patch mean below
    # cancels digits in proportion to (distance from origin / patch size)^2
    cx, cy = (mesh.barycenters - mesh.vertices.mean(axis=0)).T
    gx, gy = recover_gradient(field).T
    moments = (np.ones_like(cx), cx, cy, cx * cx, cx * cy, cy * cy,
               gx, gy, cx * gx, cx * gy, cy * gx, cy * gy)
    mom = np.column_stack([np.add.reduceat(m[ring_tris], ring_ptr[:-1]) for m in moments])
    count = mom[:, 0]
    mean_c = mom[:, 1:3] / count[:, None]
    mean_g = mom[:, 6:8] / count[:, None]
    second = mom[:, [3, 4, 4, 5]].reshape(-1, 2, 2)  # sum c_i c_j
    cross = mom[:, 8:12].reshape(-1, 2, 2)           # sum c_i g_k
    cov = second - count[:, None, None] * mean_c[:, :, None] * mean_c[:, None, :]
    cov_g = cross - count[:, None, None] * mean_c[:, :, None] * mean_g[:, None, :]
    trace = np.trace(cov, axis1=1, axis2=2)
    fitted = (count >= 3) & (np.linalg.det(cov) > _COLLINEAR_RTOL * trace ** 2)

    hess = np.zeros((mesh.n_vertices, 2, 2))
    slope = np.linalg.solve(cov[fitted], cov_g[fitted])  # d g_k / d x_i
    hess[fitted] = 0.5 * (slope + slope.transpose(0, 2, 1))
    needs_avg = np.flatnonzero(~fitted)
    indptr, indices = mesh.incidence()
    for v in needs_avg:
        ring = np.unique(mesh.triangles[indices[indptr[v]:indptr[v + 1]]])
        good = ring[fitted[ring]]
        if good.size:
            hess[v] = hess[good].mean(axis=0)
    if with_stats:
        return hess, len(needs_avg)
    return hess


def hessian_at_barycenters(field, vertex_hessians=None):
    """Vertex Hessians averaged to triangle barycenters, (n_triangles, 2, 2)."""
    if vertex_hessians is None:
        vertex_hessians = recover_hessian(field)
    return vertex_hessians[field.mesh.triangles].mean(axis=1)


def boundary_normal_derivative(field, vertex):
    """Inner-normal derivative of the field at a boundary vertex.

    Area-weighted average of <grad u|_T, nu(v)> over triangles touching v;
    positive means the field grows walking into the domain.  ``vertex``
    may be one index (returns a float) or an array of them (returns an
    array).
    """
    nu = field.mesh.inner_normal(vertex)
    slopes = np.einsum("...d,...d->...", nodal_gradient(field)[vertex], nu)
    return float(slopes) if np.ndim(vertex) == 0 else slopes
