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

Every stiffness matrix of one solve shares the sparsity pattern of the
interior block, so the element-to-CSR scatter is built once and each
assembly is one bincount into fixed indices.  The module needs numpy and
scipy.sparse only: the source primitive is tabulated by composite Simpson
and evaluated as a cubic Hermite interpolant in numpy.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    init_cg_info: int  # CG status of the initial p = 2 solve; nonzero starts from zero
    steps: list        # per accepted Newton step: residual, eta, cg_info, direction,
                       # alpha, backtracks

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
    """CSR pattern of the interior block of a P1 stiffness matrix.

    Returns (slot, indices, indptr).  Entry j of the flattened (T, 3, 3)
    element matrices adds into data slot slot[j]; entries that touch the
    boundary go to slot nnz, one past the pattern, which assembly drops.
    """
    interior = mesh.interior_mask
    n_int = int(np.count_nonzero(interior))
    local = np.full(mesh.n_vertices, -1, dtype=np.int64)
    local[interior] = np.arange(n_int)
    tri = local[mesh.triangles]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    key = rows * n_int + cols
    key[(rows < 0) | (cols < 0)] = n_int * n_int
    # np.sort and a mask: np.unique took ten times as long on these keys
    ordered = np.sort(key)
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])
    keys = ordered[first & (ordered < n_int * n_int)]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n_int, minlength=n_int))])
    # scipy picks the index dtype once here, so no assembly converts them
    pattern = sp.csr_matrix((np.empty(len(keys)), keys % n_int, indptr), shape=(n_int, n_int))
    return np.searchsorted(keys, key), pattern.indices, pattern.indptr


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
    precond = sp.diags(1.0 / k_mat.diagonal())
    x, info = spla.cg(k_mat, rhs, rtol=rtol, atol=0.0, M=precond)
    return x, info


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
        self._slot, self._indices, self._indptr = _interior_pattern(mesh)

    def stiffness(self, element_mats):
        """Interior block of sum_T (element matrix of T), as CSR."""
        nnz = len(self._indices)
        data = np.bincount(self._slot, weights=element_mats.ravel(), minlength=nnz + 1)
        n_int = len(self._indptr) - 1
        return sp.csr_matrix((data[:nnz], self._indices, self._indptr), shape=(n_int, n_int))

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
    init, init_info = _cg_solve(problem.stiffness(ke0), rhs_i, _CG_RTOL)
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
        step, info = _cg_solve(kii, -r, eta)
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
                              "direction": kind, "alpha": alpha, "backtracks": backtracks})
                break
        if not accepted:
            field = ScalarField(mesh, values)
            report = _make_report(problem, values, history, steps, final_residual,
                                  converged=False, init_cg_info=init_info)
            raise NonconvergenceError(
                f"line search failed after {len(steps)} accepted steps "
                f"(residual {final_residual:.3e})", last_iterate=field, report=report)

    field = ScalarField(mesh, values)
    report = _make_report(problem, values, history, steps, final_residual, converged,
                          init_info)
    if not converged:
        raise NonconvergenceError(
            f"no convergence in {opts.max_iter} iterations "
            f"(residual {final_residual:.3e})", last_iterate=field, report=report)
    return field, report


def _make_report(problem, values, history, steps, final_residual, converged,
                 init_cg_info):
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
        steps=steps,
    )
