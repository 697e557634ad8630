"""P1 finite element solver for the anisotropic quasilinear equation.

Minimizes the discrete energy

    I_h(u) = sum_T |T| [ B(H(grad u|_T)) - F(u(x_T)) ],    F' = f,

over piecewise-linear fields with Dirichlet boundary data, using damped
Newton with Armijo backtracking.  The source is lagged inside the tangent
(Picard on f, Newton on the principal part), which keeps every tangent
matrix symmetric positive definite; the residual is still the exact energy
gradient, so the Newton direction is a descent direction for the energy
that gets recorded.  Near-critical elements (|grad u| < eps_grad) get the
gradient nudged off the singularity and their elementwise tensor floored
to C1_est (k + eps_grad)^(p-2) I; elsewhere the structural lower bound
keeps the tensor positive definite on its own.  Tangent systems go to
conjugate gradients with Jacobi preconditioning, solved inexactly: step k
stops CG at the relative residual

    eta_k = min(0.5, max(0.9 (|r_k| / |r_{k-1}|)^2, tol / (2 |r_k|))),

floored at 1e-12, where r is the interior energy gradient and tol the
convergence threshold tol_solve (1 + |I_h|).  The first term is choice 2
of Eisenstat and Walker ("Choosing the forcing terms in an inexact Newton
method", SIAM J. Sci. Comput. 17, 1996): loose solves while the residual
falls slowly, tight ones as Newton turns quadratic.  The second keeps CG
from solving past what the convergence test can see (Kelley, "Iterative
Methods for Linear and Nonlinear Equations", SIAM 1995, sec. 6.3); with
no history it is the first step's tolerance alone, so a problem that is
quadratic in the interior values still converges in one step.  In the
singular corner p < 2, k = 0 every system is solved to 1e-12: there the
tangent is unbounded near critical points, Newton converges only
linearly, the residual ratio stays near 1 and choice 2 would hold every
solve at 0.5; such solves stall runs that converge with exact steps
(lp q = 4, p = 1.5).  The
convergence test stays on the exact energy gradient.  If CG stalls or
returns an ascent direction the step falls back to preconditioned
steepest descent.  The initial iterate solves the Euclidean p = 2
problem to 1e-12; if CG fails there, Newton starts from zero interior
values, a warning is logged and the report keeps the CG status.

Every mesh builder makes a logically structured grid, so the interior
block of a stiffness matrix has a few diagonals (9, or 11 on the annulus
with its seam) and is stored by them, the DIA format of Saad ("Iterative
Methods for Sparse Linear Systems", 2nd ed., SIAM 2003, sec. 3.4): a
(D, n_int) array for D distinct column - row offsets.  A mesh numbered
without such structure could need up to 2 n_int - 1 diagonals, so solve
rejects a mesh whose diagonals would hold more numbers than the element
entries summed into them; no builder here makes one.  Every stiffness
matrix of one solve shares the offsets, so the element-to-diagonal
scatter is built once and each assembly is one bincount into fixed
slots.  The product adds the diagonals in ascending offset order, the
summation order of a sorted CSR row, and the conjugate gradient loop is
that of scipy.sparse.linalg.cg with a Jacobi preconditioner, so both
return scipy's floats bit for bit.  It also counts its iterations, which
the report records.  The module needs numpy only: the source primitive
is tabulated by composite Simpson and evaluated as a cubic Hermite
interpolant in numpy.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

from .errors import NonconvergenceError
from .fields import ScalarField, element_gradients
from .material import check_source_signs, check_structural_bounds, flux, linearized_tensor

logger = logging.getLogger(__name__)

# Fixed settings of the Newton iteration, its line search and its sampling.
_EPS_GRAD = 1e-10              # near-critical gradient threshold
_CG_RTOL = 1e-12               # initial and singular solves; floor of the forcing term
_ETA_MAX = 0.5                 # cap of the forcing term
_EW_GAMMA = 0.9                # Eisenstat-Walker choice 2 factor
_MAX_BACKTRACKS = 40
_ARMIJO_C1 = 1e-4
_ADMISSIBILITY_SAMPLES = 2048


@dataclasses.dataclass
class SolveOptions:
    tol_solve: float = 1e-8        # residual <= tol_solve * (1 + |I_h(u)|)
    max_iter: int = 100
    seed: int = 0


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
    init_cg_info: int        # CG status of the initial p = 2 solve; nonzero starts from zero
    init_cg_iterations: int  # CG iterations of the initial p = 2 solve
    steps: list              # per accepted Newton step: residual, eta, cg_info,
                             # cg_iterations, direction, alpha, backtracks

    def to_dict(self):
        return dataclasses.asdict(self)


class _Primitive:
    """F(s) = int_0^s f, tabulated on a growing grid.

    The table holds F at 8192 uniform intervals of [0, hi], summed by the
    composite Simpson rule from f at the nodes and midpoints; a call past
    hi regrows it to twice the call's largest argument.  f is only assumed
    on [0, inf); trial line-search states may dip slightly negative, where
    f is frozen at f(0) (so F is linear there).
    """

    _INTERVALS = 8192

    def __init__(self, f, s_hi=1.0):
        self._f = f
        self._f0 = float(np.asarray(f(np.zeros(1)))[0])
        self._build(max(1.0, s_hi))

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
        i = np.minimum((s / dx).astype(np.intp), self._INTERVALS - 1)
        t = (s - self._grid[i]) / dx
        v0, v1 = self._vals[i], self._vals[i + 1]
        d0, d1 = dx * self._fv[i], dx * self._fv[i + 1]
        # Horner form of h00 v0 + h10 d0 + h01 v1 + h11 d1
        c2 = 3.0 * (v1 - v0) - 2.0 * d0 - d1
        c3 = 2.0 * (v0 - v1) + d0 + d1
        return v0 + t * (d0 + t * (c2 + t * c3))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        top = s.max() if s.size else 0.0
        if top > self._hi:
            self._build(2.0 * top)
        return np.where(s < 0.0, s * self._f0, self._hermite(np.maximum(s, 0.0)))


def _boundary_values(mesh, bc):
    bvs = mesh.boundary_vertices
    if callable(bc):
        return np.asarray(bc(mesh.vertices[bvs]), dtype=float).reshape(len(bvs))
    arr = np.asarray(bc, dtype=float)
    if arr.ndim == 0:
        return np.full(len(bvs), float(arr))
    if arr.shape != (len(bvs),):
        raise ValueError("boundary data must be scalar, callable, or one value "
                         "per boundary vertex")
    return arr


def _element_matrices(mesh, cell_tensors):
    """|T| grad phi_a . M_T grad phi_b for every triangle T, shape (T, 3, 3)."""
    return np.einsum("t,tad,tde,tbe->tab", mesh.areas, mesh.basis_grads,
                     cell_tensors, mesh.basis_grads, optimize=True)


def _interior_pattern(mesh):
    """Diagonal layout of the interior block of a P1 stiffness matrix.

    Returns (slot, offsets): offsets are the distinct column - row offsets
    of the block, ascending, and entry j of the flattened (T, 3, 3) element
    matrices adds into slot[j] = d n_int + row of the (D, n_int) diagonal
    data, d the index of its offset; entries that touch the boundary go to
    slot D n_int, one past the data, which assembly drops.
    """
    interior = mesh.interior_mask
    n_int = int(np.count_nonzero(interior))
    local = np.full(mesh.n_vertices, -1, dtype=np.int64)
    local[interior] = np.arange(n_int)
    tri = local[mesh.triangles]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    inside = (rows >= 0) & (cols >= 0)
    shift = cols[inside] - rows[inside]
    offsets = np.unique(shift)
    if len(offsets) * n_int > len(shift):
        # without grid numbering the diagonals, and their storage, grow with n_int
        raise ValueError(f"the interior stiffness block has {len(offsets)} diagonals for "
                         f"{n_int} interior vertices: number the vertices along a grid")
    slot = np.full(rows.size, len(offsets) * n_int)
    slot[inside] = np.searchsorted(offsets, shift) * n_int + rows[inside]
    return slot, offsets


class _Diagonals:
    """Square matrix stored by diagonals: data[d, i] is entry (i, i + offsets[d]).

    Slots outside the matrix hold zeros.  The product adds the diagonals in
    ascending offset order, so each row sums its entries by ascending
    column, starting from zero: the order of a CSR row with sorted indices.
    """

    def __init__(self, offsets, data):
        self.offsets = offsets
        self.data = data

    def diagonal(self):
        return self.data[np.searchsorted(self.offsets, 0)]

    def __matmul__(self, x):
        n = len(x)
        out = np.zeros(n)
        for off, diag in zip(self.offsets.tolist(), self.data):
            if off >= 0:
                out[:n - off] += diag[:n - off] * x[off:]
            else:
                out[-off:] += diag[-off:] * x[:n + off]
        return out


def _floor_spd(mats, floor):
    """Clamp the minimum eigenvalue of symmetric 2x2 blocks to floor."""
    a, b, c = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 1]
    lam_min = 0.5 * (a + c) - np.sqrt(0.25 * (a - c) ** 2 + b ** 2)
    bump = np.maximum(0.0, floor - lam_min)
    out = mats.copy()
    out[:, 0, 0] += bump
    out[:, 1, 1] += bump
    return out


def _cg_solve(k_mat, rhs, rtol):
    """Jacobi-preconditioned conjugate gradients from a zero start.

    Returns (x, info, iterations).  The loop is that of
    scipy.sparse.linalg.cg with atol = 0, operation for operation: it stops
    when |r| < rtol |rhs| (info 0) or after 10 n iterations (info 10 n),
    and a zero right-hand side returns at once.
    """
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0
    atol = float(rtol) * float(rhs_norm)
    maxiter = 10 * len(rhs)
    inv_diag = 1.0 / k_mat.diagonal()
    x = np.zeros_like(rhs)
    r = rhs.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0, iteration
        z = inv_diag * r
        rho = np.dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = k_mat @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _forcing_term(residual, previous, target):
    """Relative CG tolerance of a Newton step with residual norm ``residual``:
    Eisenstat-Walker choice 2, no tighter than the convergence test needs.

    ``previous`` is the residual norm before the last step (inf before the
    first) and ``target`` the norm the convergence test accepts.
    """
    eta = max(_EW_GAMMA * (residual / previous) ** 2, 0.5 * target / residual)
    return max(_CG_RTOL, min(_ETA_MAX, eta))


class _EnergyProblem:
    def __init__(self, mesh, material, norm, source):
        self.mesh = mesh
        self.material = material
        self.norm = norm
        self.source = source
        self.primitive = _Primitive(source.f_vals)
        self._slot, self._offsets = _interior_pattern(mesh)

    def stiffness(self, element_mats):
        """Interior block of sum_T (element matrix of T), stored by diagonals."""
        shape = (len(self._offsets), int(np.count_nonzero(self.mesh.interior_mask)))
        size = shape[0] * shape[1]
        data = np.bincount(self._slot, weights=element_mats.ravel(), minlength=size + 1)
        return _Diagonals(self._offsets, data[:size].reshape(shape))

    def scatter(self, contrib):
        """Sum per-triangle vertex contributions (T, 3) into vertex values."""
        return np.bincount(self.mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def cell_means(self, values):
        return values[self.mesh.triangles].mean(axis=1)

    def energy(self, values):
        g = element_gradients(self.mesh, values)
        hn = self.norm.eval(g)
        dens = self.material.b(hn) - self.primitive(self.cell_means(values))
        return float((self.mesh.areas * dens).sum())

    def residual(self, values):
        """Gradient of the energy with respect to vertex values (full)."""
        mesh = self.mesh
        cell_flux = flux(self.material, self.norm, element_gradients(mesh, values))
        fbar = self.source.f_vals(self.cell_means(values))
        contrib = mesh.areas[:, None] * np.einsum("td,tvd->tv", cell_flux, mesh.basis_grads)
        contrib -= (mesh.areas * fbar / 3.0)[:, None]
        return self.scatter(contrib)

    def tangent(self, values, c1_floor):
        g = element_gradients(self.mesh, values)
        gnorm = np.linalg.norm(g, axis=1)
        small = gnorm < _EPS_GRAD
        xi = g.copy()
        xi[small, 0] += _EPS_GRAD
        mats = linearized_tensor(self.material, self.norm, xi)
        mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        if np.any(small):
            floor = c1_floor * (self.material.k + _EPS_GRAD) ** (self.material.p - 2.0)
            mats[small] = _floor_spd(mats[small], floor)
        return self.stiffness(_element_matrices(self.mesh, mats))


def solve(mesh, material, norm, source, bc=0.0, options=None):
    """Solve the Dirichlet problem on the mesh.

    Returns (field, report).  Raises AdmissibilityError for inadmissible
    inputs and NonconvergenceError (carrying the last iterate) when the
    iteration fails; the caller can still write partial artifacts from it.
    """
    opts = options or SolveOptions()
    if norm.dim != 2:
        raise ValueError("the 2D solver needs a planar norm")

    c1_est, _ = check_structural_bounds(
        material, norm, n_samples=_ADMISSIBILITY_SAMPLES, seed=opts.seed)
    check_source_signs(source)

    problem = _EnergyProblem(mesh, material, norm, source)
    interior = mesh.interior_mask
    bvals = _boundary_values(mesh, bc)

    values = np.zeros(mesh.n_vertices)
    values[mesh.boundary_vertices] = bvals
    ke0 = _element_matrices(mesh, np.tile(np.eye(2), (mesh.n_triangles, 1, 1)))
    fbar = source.f_vals(problem.cell_means(values))
    load = np.repeat((mesh.areas * fbar / 3.0)[:, None], 3, axis=1)
    # interior values are still zero: subtracting K0 @ values moves the boundary
    # data to the right-hand side
    load -= np.einsum("tab,tb->ta", ke0, values[mesh.triangles])
    rhs_i = problem.scatter(load)[interior]
    init, init_info, init_iterations = _cg_solve(problem.stiffness(ke0), rhs_i, _CG_RTOL)
    if init_info == 0:
        values[interior] = init
    else:
        logger.warning("initial Laplacian solve failed (CG info %d); "
                       "Newton starts from zero interior values", init_info)

    # B'' is unbounded at critical points in the singular corner p < 2, k = 0
    singular = material.p < 2.0 and material.k == 0.0
    energy = problem.energy(values)
    history = [energy]
    steps = []
    converged = False
    final_residual = np.inf

    for _ in range(opts.max_iter):
        r = problem.residual(values)[interior]
        previous, final_residual = final_residual, float(np.linalg.norm(r))
        target = opts.tol_solve * (1.0 + abs(energy))
        if final_residual <= target:
            converged = True
            break
        eta = _CG_RTOL if singular else _forcing_term(final_residual, previous, target)

        kii = problem.tangent(values, c1_est)
        step, info, iterations = _cg_solve(kii, -r, eta)
        directions = []
        if info == 0 and float(r @ step) < 0.0:
            directions.append(("newton", step))
        directions.append(("descent", -r / kii.diagonal()))  # preconditioned fallback

        accepted = False
        backtracks = 0
        for kind, d in directions:
            slope = float(r @ d)
            if slope >= 0.0:
                continue
            alpha = 1.0
            trial = values.copy()
            for _ in range(_MAX_BACKTRACKS):
                trial[interior] = values[interior] + alpha * d
                e_trial = problem.energy(trial)
                if e_trial <= energy + _ARMIJO_C1 * alpha * slope:
                    accepted = True
                    break
                alpha *= 0.5
                backtracks += 1
            if accepted:
                values = trial
                energy = e_trial
                history.append(energy)
                steps.append({"residual": final_residual, "eta": eta, "cg_info": int(info),
                              "cg_iterations": iterations, "direction": kind,
                              "alpha": alpha, "backtracks": backtracks})
                break
        if not accepted:
            field = ScalarField(mesh, values)
            report = _make_report(problem, values, history, steps, final_residual,
                                  converged=False, init_cg_info=init_info,
                                  init_cg_iterations=init_iterations)
            raise NonconvergenceError(
                f"line search failed after {len(steps)} accepted steps "
                f"(residual {final_residual:.3e})", last_iterate=field, report=report)

    field = ScalarField(mesh, values)
    report = _make_report(problem, values, history, steps, final_residual, converged,
                          init_info, init_iterations)
    if not converged:
        raise NonconvergenceError(
            f"no convergence in {opts.max_iter} iterations "
            f"(residual {final_residual:.3e})", last_iterate=field, report=report)
    return field, report


def _make_report(problem, values, history, steps, final_residual, converged,
                 init_cg_info, init_cg_iterations):
    g = element_gradients(problem.mesh, values)
    gnorm = np.linalg.norm(g, axis=1)
    frac = float(np.count_nonzero(gnorm < _EPS_GRAD) / len(gnorm))
    return SolveReport(
        iterations=len(steps),
        energy_history=[float(e) for e in history],
        final_residual=final_residual,
        min_u=float(values.min()),
        critical_fraction=frac,
        converged=converged,
        h=problem.mesh.h,
        n_vertices=problem.mesh.n_vertices,
        n_triangles=problem.mesh.n_triangles,
        init_cg_info=int(init_cg_info),
        init_cg_iterations=init_cg_iterations,
        steps=steps,
    )
