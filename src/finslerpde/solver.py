"""P1 finite element solver for the anisotropic quasilinear equation.

Minimizes the discrete energy

    I_h(u) = sum_T |T| [ B(H(grad u|_T)) - F(u(x_T)) ],    F' = f,

over piecewise-linear fields with Dirichlet boundary data, using damped
Newton with Armijo backtracking.  The source is lagged inside the tangent
(Picard on f, Newton on the principal part), which keeps every tangent
matrix symmetric positive definite; the residual is still the exact energy
gradient, so the Newton direction is a descent direction for the energy
that gets recorded.  Near-critical elements (|grad u| < eps_grad) take
the tensor (k + eps_grad)^(p-2) I, the scale that hypothesis (iii) gives
B'' at |xi| = eps_grad; elsewhere the structural lower bound keeps the
tensor positive definite on its own.  An lp norm with q < 2 has an
infinite D^2 H where a gradient component is exactly 0; such a triangle's
tensor is taken with each zero component set to eps_grad times its
largest one.  Tangent systems go to conjugate gradients preconditioned by
a multigrid V-cycle, solved inexactly: step k stops CG at the relative
residual

    eta_k = min(0.5, max(0.9 (|r_k| / |r_{k-1}|)^2, s_k, tol / (2 |r_k|))),

floored at 1e-12, where r is the interior energy gradient, tol the
convergence threshold tol_solve (1 + |I_h|) and s_k = 0.9 eta_{k-1}^2
when that exceeds 0.1, else 0.  The first term is choice 2 of Eisenstat
and Walker ("Choosing the forcing terms in an inexact Newton method",
SIAM J. Sci. Comput. 17, 1996) and s_k its safeguard: loose solves while
the residual falls slowly, tight ones as Newton turns quadratic, and no
sudden tight solve after a loose one.  The last term keeps CG from
solving past what the convergence test can see (Kelley, "Iterative
Methods for Linear and Nonlinear Equations", SIAM 1995, sec. 6.3).  With
no history the first step is solved to 0.5, as Eisenstat and Walker
start.  In the singular corner p < 2, k = 0 every system is solved to
1e-12: there the tangent is unbounded near critical points, Newton
converges only linearly, the residual ratio stays near 1 and choice 2
would hold every solve at 0.5; such solves stall runs that converge with
exact steps (lp q = 4, p = 1.5).  The convergence test stays on the exact
energy gradient.  If CG stalls or returns an ascent direction the step
falls back to Jacobi-scaled steepest descent.

The initial iterate comes from one of two starts.  When the principal
part is quadratic (p = 2, where B is quadratic in both profiles, and a
Euclidean or ellipsoidal norm, where H^2 is), and on meshes too small to
nest, it solves the p = 2 problem of the norm's quadratic part: the
tensor is the matrix A of an ellipsoidal norm, H(xi)^2 = xi . A xi, and
the identity for the other kinds.  Its right-hand side is minus that
part's residual at the boundary data, the level's own residual kernel run
with the flux A xi, and its matrix is the level's stiffness assembly of
the constant tensor A; the start keeps no assembly of its own.  So a
problem that is quadratic in the interior values (those norms at p = 2
with a constant source) needs no Newton step.  Its CG stops below
tol_solve / 2, the least threshold Newton's test accepts halved (Kelley's
guard again), or at the relative 1e-12 when that is looser; if it fails,
Newton starts from zero, a warning is logged and the report keeps the CG status.
Otherwise the start is nested iteration (Trottenberg, Oosterlee and
Schueller, cited below; Deuflhard, "Newton Methods for Nonlinear
Problems", Springer 2004): the same problem is solved on mesh.coarsen's
mesh, every other vertex of the builder's grid, with the fine boundary
values at the kept vertices, and that solution is interpolated linearly
along each axis of the full vertex grid, so boundary data of any form
carry over.  On the h = 0.025 lp q = 4,
p = 3 ball the fine level then takes 4 Newton steps instead of 9.  The
coarse lattice needs at least _NESTED_MIN unknowns: the nested lp q = 4 and
Euclidean p = 3 solves broke even at 1,225 coarse unknowns and gained 4 to
7% at 1,849, and the minimum ends the recursion, since each level may nest
in turn.  (Shifted profiles with k = 1/2, which need only 4 to 7 steps
from the p = 2 start, ran 10 to 20% slower nested below 4,761 coarse
unknowns.)  The coarse lattice also needs an odd number of rows, and of
columns unless they wrap: on an even lattice the V-cycle's coarse points
sit against one end and a ball loses its template's centre vertex, and
there the coarse solve took twice the Newton steps and CG iterations
(Euclidean p = 3 and 4 disks at h = 0.025 ran 11% and 48% slower nested).
A coarse solve that does not converge still gives its last iterate as the
start, with a warning, so the fine level reports on its own mesh.

Every mesh builder numbers its vertices along a grid and records the
lattice of the interior vertices (mesh.Lattice; the annulus wraps around
its angle), and a P1 stiffness matrix couples each lattice point only to
its 8 neighbours.  So each tangent is stored as a 3 x 3 stencil per
lattice point, a (3, 3, rows, cols) array; solve rejects a mesh without
a lattice.  The element-to-stencil scatter is built once per level as
int32 slots.  Assembly keeps the area-scaled tensor entries |T| M00,
|T| M01 and |T| M11 of each triangle, 3 floats where the element matrix
has 9, and builds the nine (a, b) element-matrix entries one at a time
over all triangles, each added into its row of slots by its own
numpy.add.at.  add.at adds in input order, as bincount does without
bincount's intp copy of the slots, so each stencil entry sums its terms
in the order of one scatter of the (3, 3, T) element matrices.  The
product sums each row over its 3 x 3 neighbours in stencil order, on
every lattice; the annulus seam needs no case of its own, since the
padded field already holds the wrapped neighbours.

Each level of a solve is one _EnergyProblem: the problem on one mesh with
the solve's options and stopwatch, which the starts, the Newton steps and
the report read; the nested start gets the coarse level from it, with the
source table and stencil slots rebuilt for the coarse mesh.  Its
per-triangle kernels (energy density, residual contributions, area
tensors, the near-critical count) run over fixed blocks of _BLOCK
triangles, each block writing its slice of the one full-length output, so
their temporaries do not grow with the mesh.  Sums, scatters and assembly
still run once over the full outputs, in the order they always had, so no
result depends on the block size.  A Newton step keeps one tangent alive:
its stencil is dropped once the step's directions are built, and the
directions when the step ends, before the next assembly.  A residual,
search direction or trial iterate that is not finite ends the solve with
NonconvergenceError, which carries the last finite iterate, as does an
initial energy that is not finite.

The preconditioner is one V(1,1)-cycle from a zero start, built once per
tangent (Trottenberg, Oosterlee and Schueller, "Multigrid", Academic
Press 2001; for p-Laplacians, Bermejo and Infante, SIAM J. Sci. Comput.
21, 2000).  Coarse lattice point I sits on fine point 2 I + 1, the
prolongation P is bilinear in lattice index and the coarse operator is
the Galerkin product P^T A P, again a 9-point stencil, computed axis by
axis as 13 strided sums.  An axis is coarsened while it has two or more
points, a periodic one while its length is even and at least 4; the
coarsening stops at _COARSEST unknowns, and that level is solved with a
dense Cholesky factor from numpy.linalg.  Every other level smooths with
one damped Jacobi sweep, weight 2/3, before its coarse correction and
one after.  Each element matrix is positive semidefinite, so its entries
obey |a_ij| <= sqrt(a_ii a_jj) and D^{-1/2} A D^{-1/2} has eigenvalues
at most 3; with weight 2/3 the sweep is contractive in the energy norm
and the cycle is symmetric positive definite, as CG needs.  The coarse
Galerkin levels carry no such proof; there the largest eigenvalue of
D^{-1} A measured 1.7 to 2.6 on lp q = 4, ellipsoidal and Euclidean
tangents and on random positive definite element tensors.  If the
Cholesky factor fails, the solve reports CG status -1 and takes the
failure path (descent fallback, or zero start).  The conjugate gradient
loop is that of scipy.sparse.linalg.cg with the preconditioner as an
argument and counts its iterations, which the report records with the
wall time of each stage.  Its reductions, and Newton's, are summed by
_dot with no BLAS call: a threaded BLAS sums a long vector in an order
set by its thread count, and fields and reports would change with it.
The module needs numpy only: the source primitive is tabulated by
composite Simpson and evaluated as a cubic Hermite interpolant in numpy.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time

import numpy as np

from .errors import NonconvergenceError
from .fields import ScalarField, element_gradients, gradient_norms
# check_structural_bounds is not called here; the benchmark's tracer wraps this name
from .material import (check_source_signs, check_structural_bounds,  # noqa: F401
                       flux, linearized_tensor)
from .mesh import coarsen, grid_shape

logger = logging.getLogger(__name__)

# Fixed settings of the Newton iteration and its line search.
_EPS_GRAD = 1e-10              # near-critical gradient threshold
_CG_RTOL = 1e-12               # initial and singular solves; floor of the forcing term
_ETA_MAX = 0.5                 # cap of the forcing term
_EW_GAMMA = 0.9                # Eisenstat-Walker choice 2 factor
_MAX_BACKTRACKS = 40
_ARMIJO_C1 = 1e-4
_OMEGA = 2.0 / 3.0             # damped Jacobi weight of the multigrid smoother
_COARSEST = 150                # multigrid coarsening stops at this many unknowns
_NESTED_MIN = 1600             # fewest coarse unknowns of a nested start
_FACTOR_FAILED = -1            # CG status when the multigrid set-up fails
_RHS_NOT_FINITE = -2           # CG status when the right-hand side's norm is not finite
_BLOCK = 4096                  # triangles per block of the per-triangle kernels
# wall-time stages of a solve, as SolveReport.seconds records them
_STAGES = ("admissibility", "init", "tangent", "preconditioner", "linear_solve",
           "line_search")


@dataclasses.dataclass
class SolveOptions:
    tol_solve: float = 1e-8        # residual <= tol_solve * (1 + |I_h(u)|)
    max_iter: int = 100


@dataclasses.dataclass
class SolveReport:
    iterations: int
    energy_history: list
    final_residual: float
    min_u: float
    critical_fraction: float
    converged: bool
    h: float
    n_vertices: int
    n_triangles: int
    init_cg_info: int        # CG status of the initial quadratic solve; nonzero starts from zero
    init_cg_iterations: int  # CG iterations of the initial quadratic solve
    start: str               # "quadratic" or "nested": where the initial iterate came from
    coarse: dict             # the coarse solve of a nested start, else None
    steps: list              # per accepted Newton step: residual, eta, cg_info,
                             # cg_iterations, direction, alpha, backtracks
    seconds: dict            # wall time per stage of the solve, keys _STAGES


class _Primitive:
    """F(s) = int_0^s f, tabulated on a growing grid.

    The table holds F at 8192 uniform intervals of [0, hi], first [0, 1],
    summed by the composite Simpson rule from f at the nodes and midpoints;
    a call past hi regrows it to twice the call's largest argument.  Below
    0, F is continued linearly with slope f(0), the table's first node, so
    it stays the primitive of SourceTerm.f_vals, which is f(max(s, 0)).
    The top is capped at the largest float, and an argument past it (or
    NaN) reads the last interval, so an overflowing mean gives a
    non-finite energy.
    """

    _INTERVALS = 8192

    def __init__(self, f):
        self._f = f
        self._build(1.0)

    def _build(self, s_hi):
        self._hi = s_hi
        self._grid = np.linspace(0.0, s_hi, self._INTERVALS + 1)
        self._dx = s_hi / self._INTERVALS
        fv = np.asarray(self._f(self._grid), dtype=float)
        mid = np.asarray(self._f(0.5 * (self._grid[:-1] + self._grid[1:])), dtype=float)
        vals = np.empty_like(fv)
        vals[0] = 0.0
        np.cumsum(self._dx / 6.0 * (fv[:-1] + 4.0 * mid + fv[1:]), out=vals[1:])
        self._vals, self._fv = vals, fv

    def _hermite(self, s):
        """Cubic Hermite interpolant of the table at s in [0, hi].

        Its slope equals f at the nodes, so the energy it induces is
        consistent with the analytic gradient used for residuals.
        """
        dx = self._dx
        i = np.fmin(s / dx, self._INTERVALS - 1).astype(np.intp)
        t = (s - self._grid[i]) / dx
        v0, v1 = self._vals[i], self._vals[i + 1]
        d0, d1 = dx * self._fv[i], dx * self._fv[i + 1]
        # Horner form of h00 v0 + h10 d0 + h01 v1 + h11 d1
        c2 = 3.0 * (v1 - v0) - 2.0 * d0 - d1
        c3 = 2.0 * (v0 - v1) + d0 + d1
        return v0 + t * (d0 + t * (c2 + t * c3))

    def cover(self, s):
        """Regrow the table to twice the largest of s if that passes its top."""
        top = s.max() if s.size else 0.0
        if top > self._hi:
            self._build(min(2.0 * top, np.finfo(float).max))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        self.cover(s)
        return np.where(s < 0.0, s * self._fv[0], self._hermite(np.maximum(s, 0.0)))


def _boundary_values(mesh, bc):
    bvs = mesh.boundary_vertices
    if callable(bc):
        arr = np.asarray(bc(mesh.vertices[bvs]), dtype=float).reshape(len(bvs))
    else:
        arr = np.asarray(bc, dtype=float)
        if arr.ndim == 0:
            arr = np.full(len(bvs), float(arr))
        if arr.shape != (len(bvs),):
            raise ValueError("boundary data must be scalar, callable, or one value "
                             "per boundary vertex")
    if not np.all(np.isfinite(arr)):
        raise ValueError("boundary data must be finite")
    return arr


def _blocks(n):
    """Consecutive slices of range(n), each _BLOCK long but the last."""
    return (slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def _area_tensors(mesh, cell_tensors, cells=slice(None), out=None):
    """|T| times the symmetric part of M_T for the triangles T in ``cells``:
    rows m00, m01 and m11 of a (3, T) array, written into ``out`` when
    given."""
    area = mesh.areas[cells]
    if out is None:
        out = np.empty((3, len(area)))
    np.multiply(area, cell_tensors[:, 0, 0], out=out[0])
    out[1] = 0.5 * area * (cell_tensors[:, 0, 1] + cell_tensors[:, 1, 0])
    np.multiply(area, cell_tensors[:, 1, 1], out=out[2])
    return out


def _element_entries(grads, m):
    """(a, b, |T| grad phi_a . M_T grad phi_b) for the nine (a, b) in order,
    from the basis gradients (T, 3, 2) and the area tensors ``m`` (3, T) of
    the same triangles; built entry by entry, as numpy is slow along axes
    of length 2 or 3."""
    m00, m01, m11 = m
    for a in range(3):
        # |T| M_T grad phi_a, then its product with each grad phi_b
        wx = grads[:, a, 0] * m00 + grads[:, a, 1] * m01
        wy = grads[:, a, 0] * m01 + grads[:, a, 1] * m11
        for b in range(3):
            entry = wx * grads[:, b, 0]
            entry += wy * grads[:, b, 1]
            yield a, b, entry


def _stencil_slots(mesh):
    """Place of every element-matrix entry in the lattice stencil.

    Entry k of the flattened (3, 3, T) element matrices couples the interior
    vertices at lattice points (i, j) and (i + a - 1, j + b - 1) and adds
    into slot (3 a + b) n_int + i cols + j of the (3, 3, rows, cols) stencil
    data; entries that touch the boundary go to slot 9 n_int, one past the
    data, which assembly drops.  The slots are int32.  Each corner's lattice
    row and column are taken once; the nine (a, b) rows of the slot array
    are then filled one at a time.  Raises ValueError for a mesh without a
    lattice or with a coupling past a lattice neighbour.
    """
    lattice = mesh.lattice
    if lattice is None:
        raise ValueError("the mesh records no vertex lattice: number the vertices along a "
                         "grid, as build_domain does")
    cols = lattice.cols
    n_int = lattice.rows * cols
    # int32 throughout, which holds the slots (up to 9 n_int) for up to 238
    # million interior vertices; add.at takes them without an intp copy
    local = np.full(mesh.n_vertices, -1, dtype=np.int32)
    local[mesh.interior_mask] = np.arange(n_int, dtype=np.int32)
    tri = local[mesh.triangles.T]
    row, col = np.divmod(tri, np.int32(max(cols, 1)))  # a lattice may have no points
    inside = tri >= 0
    slot = np.empty((3, 3, tri.shape[1]), dtype=np.int32)
    for a in range(3):
        for b in range(3):
            di = row[b] - row[a]
            dj = col[b] - col[a]
            if lattice.periodic:
                dj += 1
                dj %= cols
                dj -= 1
            both = inside[a] & inside[b]
            if np.any(both & ((np.abs(di) > 1) | (np.abs(dj) > 1))):
                raise ValueError("the stiffness matrix couples vertices that are not "
                                 "lattice neighbours: number the vertices along a grid")
            di *= 3
            di += dj + 4
            out = slot[a, b]
            np.multiply(di, n_int, out=out)
            out += tri[a]
            np.copyto(out, 9 * n_int, where=~both)
    return slot.ravel()


# The 3 x 3 neighbours of a lattice point, in the order the product sums them
_ORDER = tuple((a, b) for a in range(3) for b in range(3))


class _Stencil:
    """Square matrix on the mesh lattice, stored as a 3 x 3 stencil per point.

    data[a, b, i, j] is the entry coupling lattice point (i, j) to
    (i + a - 1, j + b - 1), the column taken modulo cols when the lattice
    is periodic; entries that reach past the lattice are zero.  The
    product sums each row over its neighbours in (a, b) order, the wrapped
    ones read from the padded field.
    """

    def __init__(self, data, periodic):
        self.data = data
        self.periodic = periodic
        self.shape = data.shape[2:]

    def diagonal(self):
        return self.data[1, 1].ravel()

    def __matmul__(self, x):
        return self.apply(x.reshape(self.shape)).ravel()

    def apply(self, x):
        """Product with fields on the lattice, shape (..., rows, cols)."""
        rows, cols = self.shape
        data = self.data
        xp = np.zeros(x.shape[:-2] + (rows + 2, cols + 2))
        xp[..., 1:-1, 1:-1] = x
        if self.periodic:
            xp[..., 1:-1, 0] = x[..., -1]
            xp[..., 1:-1, -1] = x[..., 0]
        out = data[0, 0] * xp[..., :rows, :cols]
        term = np.empty_like(out)
        for a, b in _ORDER[1:]:
            np.multiply(data[a, b], xp[..., a:a + rows, b:b + cols], out=term)
            out += term
        return out


def _pad(f, n_coarse, periodic):
    """f along its last axis, extended to length 2 n_coarse + 1 by zeros
    (the boundary) or, on a periodic axis, by its first entry."""
    n = f.shape[-1]
    g = np.zeros(f.shape[:-1] + (2 * n_coarse + 1,))
    g[..., :n] = f
    if periodic:
        g[..., n] = f[..., 0]
    return g


def _restrict_axis(f, periodic):
    """P^T f along the last axis: coarse point I sits on fine point 2 I + 1
    and takes half of each fine neighbour."""
    g = _pad(f, f.shape[-1] // 2, periodic)
    return g[..., 1::2] + 0.5 * (g[..., :-1:2] + g[..., 2::2])


def _refine_axis(c, periodic):
    """Linear interpolation along the last axis onto twice the resolution:
    c lands on the even points, each odd point takes the mean of its two
    neighbours (around the end when periodic)."""
    n = c.shape[-1]
    f = np.empty(c.shape[:-1] + (2 * n if periodic else 2 * n - 1,))
    f[..., ::2] = c
    f[..., 1::2] = 0.5 * (c + np.roll(c, -1, axis=-1) if periodic else c[..., :-1] + c[..., 1:])
    return f


def _prolong_axis(c, n, periodic):
    """P c along the last axis, to n fine points: linear interpolation in
    lattice index, zero on the boundary: _refine_axis of c padded by a
    zero at each end, the front one wrapped around a periodic axis."""
    zero = np.zeros(c.shape[:-1] + (1,))
    padded = np.concatenate([c[..., -1:] if periodic else zero, c, zero], axis=-1)
    return _refine_axis(padded, False)[..., 1:n + 1]


# The 13 terms (e, s, d, weight) of a one-axis Galerkin product P^T M P:
# weight M_d[2 I + 1 + s] adds into the coarse coupling of I to I + e, where
# M_d[j] couples fine point j to j + d and P gives coarse point I weight 1
# on fine point 2 I + 1 and 1/2 on 2 I and 2 I + 2.
_WEIGHT = {-1: 0.5, 0: 1.0, 1: 0.5}
_GALERKIN_TERMS = tuple((e, s, 2 * e + t - s, _WEIGHT[s] * _WEIGHT[t])
                        for e in (-1, 0, 1) for s in (-1, 0, 1) for t in (-1, 0, 1)
                        if abs(2 * e + t - s) <= 1)


def _galerkin_axis(stencil, periodic):
    """P^T M P along the last axis of stencil[d + 1, ..., j], the coupling
    of fine point j to j + d; the other axes ride along."""
    m = stencil.shape[-1] // 2
    g = _pad(stencil, m, periodic)
    out = np.zeros(stencil.shape[:-1] + (m,))
    for e, s, d, weight in _GALERKIN_TERMS:
        out[e + 1] += weight * g[d + 1, ..., 1 + s:1 + s + 2 * m:2]
    if not periodic:
        # couplings to coarse points past the ends, which do not exist
        out[0, ..., 0] = 0.0
        out[2, ..., -1] = 0.0
    return out


def _coarsen(stencil, axes):
    """Galerkin operator P^T A P of the stencil, P bilinear along the axes
    (rows, cols) flagged in ``axes`` and the identity along the other."""
    data = stencil.data
    if axes[1]:
        data = _galerkin_axis(data.transpose(1, 0, 2, 3), stencil.periodic).transpose(1, 0, 2, 3)
    if axes[0]:
        data = _galerkin_axis(data.transpose(0, 1, 3, 2), False).transpose(0, 1, 3, 2)
    return _Stencil(np.ascontiguousarray(data), stencil.periodic)


def _dense(stencil):
    """The stencil as a dense matrix: its products with the unit vectors."""
    n = stencil.shape[0] * stencil.shape[1]
    return stencil.apply(np.eye(n).reshape((n,) + stencil.shape)).reshape(n, n).T


class _VCycle:
    """One V(1,1)-cycle from a zero start: the preconditioner of CG.

    Levels are Galerkin operators P^T A P on ever coarser lattices, down
    to at most _COARSEST unknowns or a lattice that cannot be coarsened;
    the coarsest level is solved with a dense Cholesky factor.  Each other
    level smooths with one damped Jacobi sweep, weight _OMEGA, before and
    one after its coarse correction, so the cycle is symmetric.  Raises
    numpy.linalg.LinAlgError when a level's diagonal is not positive or the
    coarsest factor fails.
    """

    def __init__(self, stencil):
        levels, axes = [stencil], []
        while True:
            rows, cols = levels[-1].shape
            wide = cols >= 4 and cols % 2 == 0 if stencil.periodic else cols >= 2
            can = (rows >= 2, wide)
            if rows * cols <= _COARSEST or not any(can):
                break
            levels.append(_coarsen(levels[-1], can))
            axes.append(can)
        self._levels, self._axes = levels, axes
        self._weights = []
        for level in levels[:-1]:
            diag = level.data[1, 1]
            if not np.all(diag > 0.0):
                raise np.linalg.LinAlgError("a multigrid level has a nonpositive diagonal")
            self._weights.append(_OMEGA / diag)
        linv = np.linalg.inv(np.linalg.cholesky(_dense(levels[-1])))
        if not np.all(np.isfinite(linv)):
            raise np.linalg.LinAlgError("the coarsest Cholesky factor is not finite")
        self._linv, self._linv_t = linv, np.ascontiguousarray(linv.T)

    def __call__(self, r):
        return self._cycle(0, r.reshape(self._levels[0].shape)).ravel()

    def _cycle(self, k, b):
        if k == len(self._axes):
            return (self._linv_t @ (self._linv @ b.ravel())).reshape(b.shape)
        level, weight, axes = self._levels[k], self._weights[k], self._axes[k]
        x = weight * b
        coarse = b - level.apply(x)
        if axes[1]:
            coarse = _restrict_axis(coarse, level.periodic)
        if axes[0]:
            coarse = _restrict_axis(coarse.T, False).T
        coarse = self._cycle(k + 1, coarse)
        if axes[0]:
            coarse = _prolong_axis(coarse.T, b.shape[0], False).T
        if axes[1]:
            coarse = _prolong_axis(coarse, b.shape[1], level.periodic)
        x += coarse
        x += weight * (b - level.apply(x))
        return x


def _dot(a, b):
    """Inner product of two vectors, summed in numpy's own loop: no BLAS
    call, so the sum does not depend on the BLAS thread count."""
    return float(np.einsum("i,i->", a, b))


def _cg_solve(k_mat, rhs, rtol, precondition):
    """Preconditioned conjugate gradients from a zero start.

    ``precondition`` maps a residual to its preconditioned residual.
    Returns (x, info, iterations).  The loop is that of
    scipy.sparse.linalg.cg with atol = 0, its reductions taken by _dot: it
    stops when |r| < rtol |rhs| (info 0) or after 10 n iterations (info
    10 n), and a zero right-hand side returns at once, as does one whose
    norm is not finite (info _RHS_NOT_FINITE), which no iteration meets.
    """
    rhs_norm = math.sqrt(_dot(rhs, rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0
    if not math.isfinite(rhs_norm):
        return np.zeros_like(rhs), _RHS_NOT_FINITE, 0
    atol = float(rtol) * rhs_norm
    maxiter = 10 * len(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    for iteration in range(maxiter):
        if math.sqrt(_dot(r, r)) < atol:
            return x, 0, iteration
        z = precondition(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = k_mat @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _forcing_term(residual, previous, last_eta, target):
    """Relative CG tolerance of a Newton step with residual norm ``residual``:
    Eisenstat-Walker choice 2 with its safeguard, no tighter than the
    convergence test needs.

    ``previous`` is the residual norm before the last step (inf before the
    first), ``last_eta`` the last step's term and ``target`` the norm the
    convergence test accepts.  With no history the step is solved to
    _ETA_MAX.
    """
    if previous == np.inf:
        return _ETA_MAX
    eta = _EW_GAMMA * (residual / previous) ** 2
    # the safeguard keeps the term from falling far below a large last one
    if _EW_GAMMA * last_eta ** 2 > 0.1:
        eta = max(eta, _EW_GAMMA * last_eta ** 2)
    eta = max(eta, _kelley_rtol(target, residual))
    return max(_CG_RTOL, min(_ETA_MAX, eta))


def _kelley_rtol(target, residual):
    """CG's relative tolerance to bring a norm ``residual`` below ``target`` / 2."""
    return 0.5 * target / residual


def _near_critical(xi):
    """Mask of the gradients xi (T, 2) with |xi| < _EPS_GRAD."""
    return gradient_norms(xi) < _EPS_GRAD


class _EnergyProblem:
    """One level of a solve: the problem on ``mesh``, its kernels, and the
    solve's settings, which ``on`` carries to another mesh."""

    def __init__(self, mesh, material, norm, source, opts, watch):
        self.mesh, self.material, self.norm, self.source = mesh, material, norm, source
        self.opts, self.watch = opts, watch
        self.primitive = _Primitive(source.f_vals)
        self._slot = _stencil_slots(mesh)

    def on(self, mesh):
        return _EnergyProblem(mesh, self.material, self.norm, self.source, self.opts, self.watch)

    def stiffness(self, m):
        """Interior block of sum_T (element matrix of T), as a lattice
        stencil, from the area tensors ``m`` (3, T) of every triangle.

        Each (a, b) entry of the element matrices is added by its own add.at,
        in (a, b) order.  add.at sums each slot in input order, as bincount
        does, so every slot takes its terms in the order of one scatter of
        the flattened (3, 3, T) element matrices, which are never held."""
        rows, cols, periodic = self.mesh.lattice
        size = 9 * rows * cols
        data = np.zeros(size + 1)
        slot = self._slot.reshape(3, 3, -1)
        for a, b, entry in _element_entries(self.mesh.basis_grads, m):
            np.add.at(data, slot[a, b], entry)
        return _Stencil(data[:size].reshape(3, 3, rows, cols), periodic)

    def cell_means(self, values, cells=slice(None)):
        """Mean vertex value per triangle in ``cells``, summed as
        .mean(axis=1) sums it."""
        u = values[self.mesh.triangles[cells]].T
        mean = u[0] + u[1]
        mean += u[2]
        mean /= 3.0
        return mean

    def energy(self, values):
        mesh = self.mesh
        means = self.cell_means(values)
        # the table grows once, for the whole call, before the first block
        self.primitive.cover(means)
        dens = np.empty(mesh.n_triangles)
        for cells in _blocks(mesh.n_triangles):
            hn = self.norm.eval(element_gradients(mesh, values, cells))
            np.subtract(self.material.b(hn), self.primitive(means[cells]), out=dens[cells])
        return float((mesh.areas * dens).sum())

    def residual(self, values, cell_flux=None):
        """Gradient of the energy with respect to vertex values (full).

        ``cell_flux`` maps element gradients (T, 2) to the flux of their
        triangles; by default it is the problem's own, B'(H) grad H."""
        mesh = self.mesh
        contrib = np.empty((mesh.n_triangles, 3))
        for cells in _blocks(mesh.n_triangles):
            xi = element_gradients(mesh, values, cells)
            fx, fy = (flux(self.material, self.norm, xi) if cell_flux is None
                      else cell_flux(xi)).T
            area = mesh.areas[cells]
            load = area * self.source.f_vals(self.cell_means(values, cells)) / 3.0
            grads = mesh.basis_grads[cells].transpose(1, 2, 0)  # (3, 2, block), contiguous
            # |T| flux . grad phi_v - |T| f / 3, vertex by vertex
            for v in range(3):
                column = fx * grads[v, 0]
                column += fy * grads[v, 1]
                column *= area
                column -= load
                contrib[cells, v] = column
        return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=mesh.n_vertices)

    def tangent(self, values):
        mesh, material = self.mesh, self.material
        # hypothesis (iii)'s scale of B'' at |xi| = _EPS_GRAD
        critical = (material.k + _EPS_GRAD) ** (material.p - 2.0) * np.eye(2)
        m = np.empty((3, mesh.n_triangles))
        for cells in _blocks(mesh.n_triangles):
            xi = element_gradients(mesh, values, cells)
            small = _near_critical(xi)
            xi[small, 0] += _EPS_GRAD  # off the origin, where jet raises
            # exactly symmetric (its entries are mirrored, not recomputed)
            tensors = linearized_tensor(material, self.norm, xi)
            # lp with q < 2: D2H is infinite where a component of xi is 0
            axial = ~np.isfinite(tensors[:, 0, 0] + tensors[:, 1, 1])
            if np.any(axial):
                off = xi[axial]
                nudge = _EPS_GRAD * np.abs(off).max(axis=1, keepdims=True)
                tensors[axial] = linearized_tensor(material, self.norm,
                                                   np.where(off == 0.0, nudge, off))
            tensors[small] = critical
            _area_tensors(mesh, tensors, cells, m[:, cells])
        return self.stiffness(m)

    def critical_count(self, values):
        """Number of triangles where |grad u| < _EPS_GRAD, the tangent's
        threshold."""
        return sum(np.count_nonzero(_near_critical(element_gradients(self.mesh, values, cells)))
                   for cells in _blocks(self.mesh.n_triangles))


class _Stopwatch:
    """Wall time per stage: each lap charges the time since the last one."""

    def __init__(self):
        self.seconds = dict.fromkeys(_STAGES, 0.0)
        self._last = time.perf_counter()

    def lap(self, stage):
        now = time.perf_counter()
        self.seconds[stage] += now - self._last
        self._last = now


def _linear_solve(k_mat, rhs, rtol, watch):
    """CG on k_mat x = rhs, preconditioned by a V-cycle built for k_mat.

    Returns (x, info, iterations) as _cg_solve does; when the multigrid
    set-up fails, x is zero and info is _FACTOR_FAILED.
    """
    try:
        vcycle = _VCycle(k_mat)
    except np.linalg.LinAlgError as exc:
        watch.lap("preconditioner")
        logger.warning("multigrid set-up failed: %s", exc)
        return np.zeros_like(rhs), _FACTOR_FAILED, 0
    watch.lap("preconditioner")
    solution = _cg_solve(k_mat, rhs, rtol, vcycle)
    watch.lap("linear_solve")
    return solution


def solve(mesh, material, norm, source, bc=0.0, options=None):
    """Solve the Dirichlet problem on the mesh.

    Returns (field, report).  Raises AdmissibilityError for inadmissible
    inputs and NonconvergenceError (carrying the last iterate) when the
    iteration fails; the caller can still write partial artifacts from it.
    Floating-point overflow prints no warning: every energy, residual,
    direction and iterate is checked for finiteness.
    """
    watch = _Stopwatch()
    opts = options or SolveOptions()
    if norm.dim != 2:
        raise ValueError("the 2D solver needs a planar norm")

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        check_source_signs(source)
        watch.lap("admissibility")

        values = np.zeros(mesh.n_vertices)
        values[mesh.boundary_vertices] = _boundary_values(mesh, bc)
        return _newton(_EnergyProblem(mesh, material, norm, source, opts, watch), values)


def _nested_mesh(mesh):
    """The coarsening of the mesh if a nested start is taken on it, else
    None: it needs at least _NESTED_MIN interior vertices and an odd count
    along each non-periodic axis, where the V-cycle's coarse points sit
    symmetrically and a ball keeps its template's centre vertex."""
    coarse = coarsen(mesh)
    if coarse is None:
        return None
    rows, cols, periodic = coarse.lattice
    if rows * cols < _NESTED_MIN or rows % 2 == 0 or (cols % 2 == 0 and not periodic):
        return None
    return coarse


def _nested_start(problem, coarse, values):
    """Interior values of the problem's mesh interpolated from the solve on
    its coarsening ``coarse``, and the coarse solve's record for the report.

    The coarse boundary data are the fine ones at the kept vertices.  A
    coarse solve that does not converge still gives its last iterate.
    """
    mesh = problem.mesh
    keep = np.arange(mesh.n_vertices).reshape(grid_shape(mesh.lattice))[::2, ::2].ravel()
    began = time.perf_counter()
    try:
        field, report = _newton(problem.on(coarse), values[keep])
    except NonconvergenceError as exc:
        logger.warning("coarse solve failed (%s); the fine level starts from its "
                       "last iterate", exc)
        field, report = exc.last_iterate, exc.report
    grid = field.values.reshape(grid_shape(coarse.lattice))
    grid = _refine_axis(_refine_axis(grid.T, False).T, mesh.lattice.periodic)
    record = {"lattice": list(coarse.lattice[:2]), "start": report.start,
              "converged": report.converged, "iterations": report.iterations,
              "cg_iterations": report.init_cg_iterations
              + sum(step["cg_iterations"] for step in report.steps),
              "seconds": time.perf_counter() - began, "coarse": report.coarse}
    return grid.ravel()[mesh.interior_mask], record


def _quadratic_start(problem, values):
    """Interior values of the p = 2 solve of the norm's quadratic part,
    H^2 = xi . A xi, with the boundary data of ``values`` (interior entries
    zero), and the CG status and iterations of that solve.  The right-hand
    side is minus that part's energy gradient at ``values``, the residual
    with the flux A xi: the load less the stiffness times the boundary
    data.  CG stops at the relative residual _CG_RTOL, or at the residual
    norm tol_solve / 2 when that is looser."""
    mesh, norm = problem.mesh, problem.norm
    a = norm.matrix if norm.kind == "ellipsoidal" else np.eye(2)
    rhs_i = -problem.residual(values, lambda xi: xi @ a)[mesh.interior_mask]  # A is symmetric
    k0 = problem.stiffness(np.multiply.outer((a[0, 0], 0.5 * (a[0, 1] + a[1, 0]), a[1, 1]),
                                             mesh.areas))
    problem.watch.lap("init")
    rhs_norm = math.sqrt(_dot(rhs_i, rhs_i))
    rtol = max(_CG_RTOL, _kelley_rtol(problem.opts.tol_solve, rhs_norm)) if rhs_norm else _CG_RTOL
    return _linear_solve(k0, rhs_i, rtol, problem.watch)


def _newton(problem, values):
    """Damped Newton on the problem's mesh from boundary data ``values``
    (interior entries zero).  It starts from the solve on the coarsened
    mesh when the principal part is not quadratic and _nested_mesh accepts
    that mesh, else from the p = 2 solve of the norm's quadratic part."""
    mesh, material, opts, watch = problem.mesh, problem.material, problem.opts, problem.watch
    interior = mesh.interior_mask
    # B is quadratic for p = 2 in both profiles, and H^2 for these two kinds
    quadratic = material.p == 2.0 and problem.norm.kind in ("euclidean", "ellipsoidal")
    coarse = None if quadratic else _nested_mesh(mesh)
    init_info = init_iterations = 0
    nested = None
    if coarse is not None:
        watch.lap("init")
        values[interior], nested = _nested_start(problem, coarse, values)
        del coarse  # not needed at the fine level, where the peak is
    else:
        init, init_info, init_iterations = _quadratic_start(problem, values)
        if init_info == 0:
            values[interior] = init
        else:
            logger.warning("p = 2 start failed (CG info %d); "
                           "Newton starts from zero interior values", init_info)
        del init

    # B'' is unbounded at critical points in the singular corner p < 2, k = 0
    singular = material.p < 2.0 and material.k == 0.0
    energy = problem.energy(values)
    history = [energy]
    steps = []
    converged = False
    final_residual = np.inf
    eta = _ETA_MAX  # the last step's forcing term; the first step has no history
    watch.lap("init")

    def report(done):
        watch.lap("tangent")  # the last residual
        return SolveReport(
            iterations=len(steps), energy_history=[float(e) for e in history],
            final_residual=final_residual, min_u=float(values.min()),
            critical_fraction=float(problem.critical_count(values) / mesh.n_triangles),
            converged=done, h=mesh.h, n_vertices=mesh.n_vertices, n_triangles=mesh.n_triangles,
            init_cg_info=int(init_info), init_cg_iterations=init_iterations,
            start="quadratic" if nested is None else "nested", coarse=nested, steps=steps,
            seconds=dict(watch.seconds))

    def failure(why):
        return NonconvergenceError(f"{why} (residual {final_residual:.3e})",
                                   last_iterate=ScalarField(mesh, values), report=report(False))

    if not math.isfinite(energy):
        raise failure("the initial energy is not finite")
    for _ in range(opts.max_iter):
        r = problem.residual(values)[interior]
        previous, final_residual = final_residual, math.sqrt(_dot(r, r))
        if not math.isfinite(final_residual):
            raise failure(f"the residual is not finite after {len(steps)} accepted steps")
        target = opts.tol_solve * (1.0 + abs(energy))
        if final_residual <= target:
            converged = True
            break
        eta = _CG_RTOL if singular else _forcing_term(final_residual, previous, eta, target)
        trial, outcome = _newton_step(problem, values, energy, r, eta)
        watch.lap("line_search")
        if trial is None:
            raise failure(f"{outcome} after {len(steps)} accepted steps")
        values = trial
        energy = outcome.pop("energy")
        history.append(energy)
        steps.append(dict(residual=final_residual, eta=eta, **outcome))

    if not converged:
        raise failure(f"no convergence in {opts.max_iter} iterations")
    return ScalarField(mesh, values), report(True)


def _newton_step(problem, values, energy, r, eta):
    """One damped Newton step from ``values``, whose interior residual is r.

    Returns (new values, record) with the record's energy, CG status and
    iterations, direction, step length and backtracks, or (None, reason)
    when a direction or a trial iterate is not finite or no direction
    passes the Armijo test.  The tangent is dropped once the directions
    are built and the directions when the step returns, so one tangent is
    alive at a time.
    """
    interior = problem.mesh.interior_mask
    kii = problem.tangent(values)
    problem.watch.lap("tangent")
    step, info, iterations = _linear_solve(kii, -r, eta, problem.watch)
    directions = []
    if info == 0 and _dot(r, step) < 0.0:
        directions.append(("newton", step))
    directions.append(("descent", -r / kii.diagonal()))  # preconditioned fallback
    del kii, step

    backtracks = 0
    for kind, d in directions:
        if not np.all(np.isfinite(d)):
            return None, f"the {kind} direction is not finite"
        slope = _dot(r, d)
        if slope >= 0.0:
            continue
        alpha = 1.0
        trial = values.copy()
        for _ in range(_MAX_BACKTRACKS):
            trial[interior] = values[interior] + alpha * d
            if not np.all(np.isfinite(trial)):
                return None, "a trial iterate is not finite"
            e_trial = problem.energy(trial)
            if e_trial <= energy + _ARMIJO_C1 * alpha * slope:
                return trial, {"energy": e_trial, "cg_info": int(info),
                               "cg_iterations": iterations, "direction": kind,
                               "alpha": alpha, "backtracks": backtracks}
            alpha *= 0.5
            backtracks += 1
    return None, "line search failed"
