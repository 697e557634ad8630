"""Estimate checkers: weighted integrals, critical set, Hopf and comparison.

All reductions are one-point (barycenter) quadratures over the mesh,
with gradients taken per triangle and Hessians from patch recovery
averaged back to barycenters.  The kernel |x - y|^(-gamma) is written
generally, but for planar fields the admissibility window (gamma <
n - 2, or gamma = 0 when n = 2) pins gamma to 0, where the kernel is 1
and the sup over y-samples is trivially y-independent.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .fields import (ScalarField, boundary_normal_derivative, hessian_at_barycenters,
                     recover_gradient)
from .material import MaterialProfile, SourceTerm
from .mesh import DomainSpec, build_domain
from .radial import RadialProblem, evaluate, hopf_margin, shoot
from .solver import SolveOptions, solve

_SUP_SAMPLES = 25


@dataclasses.dataclass
class RegularityReport:
    beta: float
    gamma: float
    t: float
    hessian_integral_sup: float
    weight_integral_sup: float
    per_refinement: list      # (h, hessian integral, weight integral), coarse first
    critical_fraction: float  # at the finest level
    sobolev: list             # (q, integral of |D2 u|^q) at the finest level

    def to_dict(self):
        return {
            "beta": self.beta,
            "gamma": self.gamma,
            "t": self.t,
            "hessian_integral_sup": self.hessian_integral_sup,
            "weight_integral_sup": self.weight_integral_sup,
            "per_refinement": [list(row) for row in self.per_refinement],
            "critical_fraction": self.critical_fraction,
            "sobolev": [list(row) for row in self.sobolev],
        }


@dataclasses.dataclass
class HopfReport:
    min_normal_derivative: float
    barrier_margin: float
    comparison_violation: float  # most negative u - v over annulus nodes
    contact_vertex: int
    center: tuple
    marches: int              # RK4 marches of the barrier shot, final one included
    bracket: tuple            # boundary-slope interval the shot searched

    def to_dict(self):
        return dataclasses.asdict(self)


def _halton(index, base):
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


def sample_sup_points(mesh, count=_SUP_SAMPLES):
    """Low-discrepancy points inside the domain, plus the area centroid."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    points = []
    index = 1
    while len(points) < count and index < 200 * count:
        cand = lo + (hi - lo) * np.array([_halton(index, 2), _halton(index, 3)])
        index += 1
        if mesh.contains(cand[None, :])[0]:
            points.append(cand)
    centroid = (mesh.areas @ mesh.barycenters) / mesh.areas.sum()
    if mesh.contains(centroid[None, :])[0]:
        points.append(centroid)
    return np.array(points)


def _check_gamma(gamma, n=2):
    if gamma == 0.0:
        return
    if not 0.0 <= gamma < n - 2:
        raise ValueError(f"gamma must be 0 or in [0, n-2); got gamma = {gamma} with n = {n}")


def _inradii(mesh):
    v = mesh.vertices[mesh.triangles]
    sides = (np.linalg.norm(v[:, 0] - v[:, 1], axis=1)
             + np.linalg.norm(v[:, 1] - v[:, 2], axis=1)
             + np.linalg.norm(v[:, 2] - v[:, 0], axis=1))
    return 2.0 * mesh.areas / sides


def _kernel_sup(mesh, density, gamma, y_samples):
    """max over y of sum_T |T| density_T / |x_T - y|^gamma.

    Distances are floored at a third of the element inradius, so a y
    inside an element contributes through that element's averaged scale
    rather than a vanishing denominator.
    """
    if gamma == 0.0:
        return float((mesh.areas * density).sum())
    if y_samples is None:
        y_samples = sample_sup_points(mesh)
    floor = _inradii(mesh) / 3.0
    best = -np.inf
    for y in np.atleast_2d(y_samples):
        dist = np.maximum(np.linalg.norm(mesh.barycenters - y, axis=1), floor)
        best = max(best, float((mesh.areas * density / dist ** gamma).sum()))
    return best


def weighted_hessian_integral(u, material, beta=0.0, gamma=0.0, y_samples=None, hess=None):
    """sup_y of the quadrature of (k+|grad u|)^(p-2-beta) |D2 u|^2 / |x-y|^gamma.

    ``hess`` is ``hessian_at_barycenters(u)`` when the caller already has it.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    _check_gamma(gamma)
    grads = recover_gradient(u)
    gnorm = np.linalg.norm(grads, axis=1)
    if hess is None:
        hess = hessian_at_barycenters(u)
    hnorm2 = np.einsum("tij,tij->t", hess, hess)
    weight = (material.k + gnorm) ** (material.p - 2.0 - beta)
    return _kernel_sup(u.mesh, weight * hnorm2, gamma, y_samples)


def weight_integral(u, material, t=0.5, gamma=0.0, y_samples=None):
    """sup_y of the quadrature of 1 / ((k+|grad u|)^t |x-y|^gamma)."""
    if not 0.0 <= t < material.p - 1.0:
        raise ValueError(f"t must lie in [0, p-1) = [0, {material.p - 1.0}), got {t}")
    _check_gamma(gamma)
    grads = recover_gradient(u)
    gnorm = np.linalg.norm(grads, axis=1)
    density = (material.k + gnorm) ** (-t)
    return _kernel_sup(u.mesh, density, gamma, y_samples)


def critical_set_fraction(u, eps_grad):
    """Area fraction of triangles where |grad u| < eps_grad."""
    gnorm = np.linalg.norm(recover_gradient(u), axis=1)
    return float(u.mesh.areas[gnorm < eps_grad].sum() / u.mesh.areas.sum())


def sobolev_scan(u, material, q_grid, hess=None):
    """Quadratures of |D2 u|^q for each q; pairs (q, integral).

    ``hess`` is ``hessian_at_barycenters(u)`` when the caller already has it.
    """
    q_grid = [float(q) for q in q_grid]
    for q in q_grid:
        if not 1.0 < q <= 4.0:
            raise ValueError(f"q must lie in (1, 4], got {q}")
    if hess is None:
        hess = hessian_at_barycenters(u)
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
    raise ValueError(
        f"no interior Wulff annulus of outer radius {radius:.6g} fits at the "
        f"contact vertex; try a smaller radius")


def hopf_check(u, h, material, source, radius, m, tol=1e-10):
    """Boundary slope, barrier margin, and comparison defect for u.

    The minimum inner-normal derivative is taken over boundary vertices
    carrying (numerically) zero data, where the boundary-slope statement
    applies; if none do, all boundary vertices are used.  The barrier is
    shot on the annulus radius/2 <= H_dual(x - center) <= radius with
    inner value m, the center placed by stepping inward from the worst
    vertex, and the comparison defect is min(u - v) over mesh nodes in
    that annulus.
    """
    mesh = u.mesh
    bvs = mesh.boundary_vertices
    slopes = boundary_normal_derivative(u, bvs)
    span = float(np.ptp(u.values)) or 1.0
    zero_data = np.abs(u.values[bvs]) <= 1e-9 * span
    if not np.any(zero_data):
        zero_data = np.ones(len(bvs), dtype=bool)
    candidates = np.where(zero_data)[0]
    local = candidates[np.argmin(slopes[candidates])]
    min_slope = float(slopes[local])
    contact = int(bvs[local])

    center = _fit_center(mesh, h.dual, contact, mesh.boundary_normals[local], radius)
    problem = RadialProblem(material, source, radius=radius, mode="barrier", n=2)
    profile = shoot(problem, m, tol=tol)
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
                     beta=0.0, gamma=0.0, t=0.5, q_grid=(1.4, 1.6),
                     hopf=None, options=None):
    """Solve at h, h/2, ..., run the reductions per level.

    The critical-set threshold scales with the mesh (eps_grad = h/2), so
    the fraction tracks the area where the discrete gradient is small at
    the resolvable scale rather than a fixed tiny set.  ``hopf`` is an
    optional (radius, m) pair checked on the finest field.  The Hessian
    is recovered once per level and shared by the weighted Hessian
    integral and, on the finest level, the Sobolev scan.
    """
    h_levels = [h_coarsest / 2 ** i for i in range(levels)]
    fields, reports, rows = [], [], []
    per_refinement = []
    for h in h_levels:
        mesh = build_domain(dom, h)
        field, report = solve(mesh, material, norm, source, options=options)
        y_samples = sample_sup_points(mesh) if gamma != 0.0 else None
        hess = hessian_at_barycenters(field)
        hess_int = weighted_hessian_integral(field, material, beta, gamma, y_samples, hess)
        w_int = weight_integral(field, material, t, gamma, y_samples)
        frac = critical_set_fraction(field, 0.5 * h)
        fields.append(field)
        reports.append(report)
        per_refinement.append((h, hess_int, w_int))
        rows.append({"h": h, "hessian_integral": hess_int,
                     "weight_integral": w_int, "critical_fraction": frac})

    finest = fields[-1]
    regularity = RegularityReport(
        beta=beta, gamma=gamma, t=t,
        hessian_integral_sup=per_refinement[-1][1],
        weight_integral_sup=per_refinement[-1][2],
        per_refinement=per_refinement,
        critical_fraction=rows[-1]["critical_fraction"],
        sobolev=sobolev_scan(finest, material, q_grid, hess),
    )
    hopf_report = None
    if hopf is not None:
        radius, m = hopf
        hopf_report = hopf_check(finest, norm, material, source, radius, m)
    return StudyResult(regularity=regularity, hopf=hopf_report, rows=rows,
                       fields=fields, reports=reports)
