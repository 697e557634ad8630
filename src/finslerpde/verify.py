"""Estimate checkers: weighted integrals, critical set, Hopf and comparison.

All reductions are one-point (barycenter) quadratures over the mesh,
with gradients and recovered Hessians both taken per triangle.  A weight
with a negative power of k + |grad u| is infinite on a triangle where
k = 0 and the gradient vanishes, as on the corner triangles of a
rectangle; such a quadrature keeps its value and logs a warning with the
number of triangles whose integrand is not finite.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Optional

import numpy as np

from .errors import FitError
from . import fields  # recover_hessian is looked up per call, so wrappers see it
from .fields import boundary_normal_derivative, gradient_norms, recover_gradient
from .mesh import build_domain
from .radial import RadialProblem, check_target, evaluate, hopf_margin, shoot
from .solver import solve

logger = logging.getLogger(__name__)

# Slopes this close to the minimum tie for the contact.  Mirror vertices
# differ by the solve's stopping error (up to 1.7e-8 relative), while the
# next distinct slope was 2.4e-5 or more away (disk, lp q=4 and ellipsoidal
# diag(4,1) balls at h = 0.05 and 0.025, p = 2 and 3).
_CONTACT_RTOL = 1e-6


@dataclasses.dataclass
class RegularityReport:
    beta: float
    t: float
    hessian_integral_finest: float
    weight_integral_finest: float
    critical_fraction: float     # at the finest level
    sobolev: list                # (q, integral of |D2 u|^q) at the finest level


@dataclasses.dataclass
class HopfReport:
    min_normal_derivative: float
    barrier_margin: float
    comparison_violation: float  # most negative u - v over annulus nodes
    contact_vertex: int
    center: tuple
    marches: int              # distinct slopes the barrier shot marched, the root's included
    bracket: tuple            # boundary-slope interval the shot searched


def _check_beta(beta):
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")


def _check_t(material, t):
    if not 0.0 <= t < material.p - 1.0:
        raise ValueError(f"t must lie in [0, p-1) = [0, {material.p - 1.0}), got {t}")


def _check_q(q_grid):
    for q in q_grid:
        if not 1.0 < q <= 4.0:
            raise ValueError(f"q must lie in (1, 4], got {q}")


def check_study(material, source, levels, beta, t, q_grid, hopf):
    """Reject refinement_study parameters before anything is meshed or solved.

    A ``hopf`` (radius, m) pair is checked by building its barrier problem.
    """
    if levels < 1:
        raise ValueError(f"levels must be at least 1, got {levels}")
    _check_beta(beta)
    _check_t(material, t)
    _check_q(q_grid)
    if hopf is not None:
        radius, m = hopf
        check_target(RadialProblem(material, source, radius=radius, mode="barrier"), m)


def _quadrature(name, mesh, integrand):
    """Sum of |T| times the integrand over the triangles.  Triangles whose
    integrand is not finite are counted in a logged warning and summed as
    they are."""
    bad = np.count_nonzero(~np.isfinite(integrand))
    if bad:
        logger.warning("%s: the integrand is not finite on %d of %d triangles",
                       name, bad, mesh.n_triangles)
    return float((mesh.areas * integrand).sum())


def weighted_hessian_integral(u, material, beta=0.0, hess=None):
    """Quadrature of (k+|grad u|)^(p-2-beta) |D2 u|^2.

    ``hess`` is ``fields.recover_hessian(u)`` when the caller already has it.
    """
    _check_beta(beta)
    gnorm = gradient_norms(recover_gradient(u))
    if hess is None:
        hess = fields.recover_hessian(u)
    hnorm2 = np.einsum("tij,tij->t", hess, hess)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        weight = (material.k + gnorm) ** (material.p - 2.0 - beta)
        return _quadrature("weighted Hessian integral", u.mesh, weight * hnorm2)


def weight_integral(u, material, t=0.5):
    """Quadrature of 1 / (k+|grad u|)^t."""
    _check_t(material, t)
    gnorm = gradient_norms(recover_gradient(u))
    with np.errstate(divide="ignore", over="ignore"):
        return _quadrature("weight integral", u.mesh, (material.k + gnorm) ** (-t))


def critical_set_fraction(u, eps_grad):
    """Area fraction of triangles where |grad u| < eps_grad."""
    gnorm = gradient_norms(recover_gradient(u))
    return float(u.mesh.areas[gnorm < eps_grad].sum() / u.mesh.areas.sum())


def sobolev_scan(u, q_grid, hess=None):
    """Quadratures of |D2 u|^q for each q; pairs (q, integral).

    ``hess`` is ``fields.recover_hessian(u)`` when the caller already has it.
    """
    q_grid = [float(q) for q in q_grid]
    _check_q(q_grid)
    if hess is None:
        hess = fields.recover_hessian(u)
    hnorm = np.sqrt(np.einsum("tij,tij->t", hess, hess))
    return [(q, float((u.mesh.areas * hnorm ** q).sum())) for q in q_grid]


def _fit_center(mesh, h_dual, contact, normal, radius):
    """Step inward from the contact vertex until the Wulff ball of the
    given radius clears the domain boundary (vertices either outside the
    ball or inside its concentric half, which allows annular domains)."""
    y = mesh.vertices[contact]
    h_nu = float(h_dual.eval(normal[None, :])[0])
    boundary_pts = mesh.vertices[mesh.boundary_vertices]
    diam = float(np.ptp(mesh.vertices, axis=0).max())
    t_step = radius / h_nu
    t_max = t_step + diam / h_nu
    while t_step <= t_max:
        center = y + t_step * normal
        dist = h_dual.eval(boundary_pts - center)
        clear = (dist >= radius * (1.0 - 1e-12)) | (dist <= 0.5 * radius * (1.0 + 1e-12))
        if np.all(clear):
            return center
        t_step *= 1.002
    raise FitError(
        f"no interior Wulff annulus of outer radius {radius:.6g} fits at the "
        f"contact vertex; try a smaller radius")


def hopf_check(u, h, material, source, radius, m):
    """Boundary slope, barrier margin, and comparison defect for u.

    The minimum inner-normal derivative is taken over boundary vertices
    carrying (numerically) zero data, where the boundary-slope statement
    applies; if none do, all boundary vertices are used.  The contact
    vertex is the lowest-index one whose slope is within a relative 1e-6
    of that minimum.  The barrier is shot on the annulus
    radius/2 <= H_dual(x - center) <= radius with inner value m, the
    center placed by stepping inward from the contact vertex, and the
    comparison defect is min(u - v) over mesh nodes in that annulus.
    """
    mesh = u.mesh
    bvs = mesh.boundary_vertices
    slopes = boundary_normal_derivative(u, bvs)
    span = float(np.ptp(u.values)) or 1.0
    zero_data = np.abs(u.values[bvs]) <= 1e-9 * span
    if not np.any(zero_data):
        zero_data = np.ones(len(bvs), dtype=bool)
    candidates = np.where(zero_data)[0]
    min_slope = float(slopes[candidates].min())
    # mirror vertices tie up to the solve's stopping error: take the first one
    # near the minimum, so the contact does not flip when the field moves there
    near = slopes[candidates] <= min_slope + _CONTACT_RTOL * abs(min_slope)
    local = candidates[np.argmax(near)]
    contact = int(bvs[local])

    center = _fit_center(mesh, h.dual, contact, mesh.boundary_normals[local], radius)
    problem = RadialProblem(material, source, radius=radius, mode="barrier", n=2)
    profile = shoot(problem, m)
    margin = hopf_margin(profile, h)

    rho_geo = h.dual.eval(mesh.vertices - center)
    sel = (rho_geo >= 0.5 * radius * (1.0 - 1e-12)) & (rho_geo <= radius * (1.0 + 1e-12))
    if np.any(sel):
        v = evaluate(profile, radius - rho_geo[sel])
        violation = float(np.min(u.values[sel] - v))
    else:
        violation = 0.0
    return HopfReport(
        min_normal_derivative=min_slope,
        barrier_margin=float(margin),
        comparison_violation=violation,
        contact_vertex=contact,
        center=(float(center[0]), float(center[1])),
        marches=profile.marches,
        bracket=profile.bracket,
    )


@dataclasses.dataclass
class StudyResult:
    regularity: RegularityReport
    hopf: Optional[HopfReport]
    rows: list                    # dicts keyed h, hessian_integral, weight_integral, critical_fraction
    fields: list                  # solved fields, coarse first
    reports: list                 # SolveReports, coarse first


def refinement_study(dom, material, norm, source, h_coarsest, levels=3,
                     beta=0.0, t=0.5, q_grid=(1.4, 1.6), hopf=None, options=None):
    """Solve at h, h/2, ..., run the reductions per level.

    The critical-set threshold scales with the mesh (eps_grad = h/2), so
    the fraction tracks the area where the discrete gradient is small at
    the resolvable scale rather than a fixed tiny set.  ``hopf`` is an
    optional (radius, m) pair checked on the finest field.  The Hessian
    is recovered once per level and shared by the weighted Hessian
    integral and, on the finest level, the Sobolev scan.  Parameters are
    checked by ``check_study`` before the first mesh is built.

    The levels are solved finest first, so no coarser level's field, mesh
    or Hessian is alive while the finest one, the largest, is assembled;
    rows, fields and reports are still returned coarse first.
    """
    check_study(material, source, levels, beta, t, q_grid, hopf)
    solved, reports, rows = [], [], []
    finest_hess = None
    for h in reversed([h_coarsest / 2 ** i for i in range(levels)]):
        mesh = build_domain(dom, h)
        field, report = solve(mesh, material, norm, source, options=options)
        hess = fields.recover_hessian(field)
        if finest_hess is None:
            finest_hess = hess
        hess_int = weighted_hessian_integral(field, material, beta, hess)
        w_int = weight_integral(field, material, t)
        frac = critical_set_fraction(field, 0.5 * h)
        solved.insert(0, field)
        reports.insert(0, report)
        rows.insert(0, {"h": h, "hessian_integral": hess_int,
                        "weight_integral": w_int, "critical_fraction": frac})

    finest = solved[-1]
    regularity = RegularityReport(
        beta=beta, t=t,
        hessian_integral_finest=rows[-1]["hessian_integral"],
        weight_integral_finest=rows[-1]["weight_integral"],
        critical_fraction=rows[-1]["critical_fraction"],
        sobolev=sobolev_scan(finest, q_grid, finest_hess),
    )
    hopf_report = None
    if hopf is not None:
        radius, m = hopf
        hopf_report = hopf_check(finest, norm, material, source, radius, m)
    return StudyResult(regularity=regularity, hopf=hopf_report, rows=rows,
                       fields=solved, reports=reports)
