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
matrix A.  The 2-ring pattern is S = A A^T A with unit entries, and one
sparse product S F, with F holding per triangle 1, the barycenter c, the
products of c with itself and with the gradient g, and g, gives every
patch's moment sums.  Eliminating the constant term of the normal
equations leaves, per vertex, a 2x2 system in the patch-centred moments
(centred on the patch mean, so no shift to the vertex is needed), solved
in one batch.  Vertices whose patch has fewer than three triangles or
collinear barycenters fall back to averaging the neighbours' recovered
Hessians and are counted.  Callers that need the Hessian more than once
recover it once per field and pass it on.
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
    inc = mesh.incidence()
    wg = mesh.areas[:, None] * recover_gradient(field)
    return (inc @ wg) / (inc @ mesh.areas)[:, None]


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
    inc = mesh.incidence()
    two_ring = inc @ inc.T @ inc
    two_ring.data[:] = 1.0
    # moments about the vertex centroid: centring on each patch mean below
    # cancels digits in proportion to (distance from origin / patch size)^2
    c = mesh.barycenters - mesh.vertices.mean(axis=0)
    g = recover_gradient(field)
    cx, cy = c[:, :1], c[:, 1:]
    mom = two_ring @ np.hstack([np.ones_like(cx), c, cx * cx, cx * cy, cy * cy,
                                g, cx * g, cy * g])
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
    for v in needs_avg:
        ring = np.unique(mesh.triangles[inc[v].indices])
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
