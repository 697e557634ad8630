"""Piecewise-linear scalar fields and derivative recovery.

Gradients of P1 fields are constant per triangle and exact.  The nodal
gradient averages them to the vertices, weighted by area, which makes it
a continuous P1 vector field.  Its own element gradient, symmetrized, is
the recovered Hessian: one 2x2 matrix per triangle, taken at the
barycentre.  On the structured meshes of this package its weighted
integrals converge at first order in h.  Pointwise, the error stays O(1)
on a thin strip of triangles (along the diagonals of the ball template),
so only integral and mean errors shrink with h.  Callers that need the
Hessian more than once recover it once per field and pass it on.
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


def element_gradients(mesh, values, cells=slice(None)):
    """Gradients of bare vertex values (no ScalarField checks) on the
    triangles in ``cells``, by default all of them.

    Summed vertex by vertex over whole columns, as einsum sums them: numpy
    is slow along axes of length 2 and 3.
    """
    u = values[mesh.triangles[cells]].T
    grads = mesh.basis_grads[cells].transpose(1, 2, 0)  # (3, 2, M), contiguous
    columns = []
    for d in range(2):
        g = u[0] * grads[0, d]
        g += u[1] * grads[1, d]
        g += u[2] * grads[2, d]
        columns.append(g)
    return np.column_stack(columns)


def gradient_norms(grads):
    """Euclidean length of each row of the gradients ``grads`` (T, 2)."""
    return np.sqrt(grads[:, 0] * grads[:, 0] + grads[:, 1] * grads[:, 1])


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


def recover_hessian(field, with_stats=False):
    """Recovered Hessians, one per triangle, shape (n_triangles, 2, 2), symmetric.

    The P1 derivative of the nodal gradient, symmetrized.
    """
    mesh = field.mesh
    g = nodal_gradient(field)
    # slope[t, i, k] = d g_k / d x_i on triangle t
    slope = np.stack([element_gradients(mesh, g[:, k]) for k in range(2)], axis=2)
    hess = 0.5 * (slope + slope.transpose(0, 2, 1))
    # nothing falls back; with_stats serves bench/child.py until the benchmark next changes
    return (hess, 0) if with_stats else hess


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
