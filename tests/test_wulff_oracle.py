"""Weighted Hessian integrals of FE solutions against a closed-form oracle.

For f = const on the Wulff ball {H_dual(x) < R} the solution is
u = w(H_dual(x)), and the radial equation integrates once:
w'(rho) = -Phi^-1(f rho / n) and w'' = -(f / n) / B''(|w'|), with
Phi = B'.  With e = (cos theta, sin theta) and x = rho e / H_dual(e),

    grad u = w' grad H_dual(e),
    D2u    = w'' grad H_dual(e) (x) grad H_dual(e) + (w' / |x|) D2H_dual(e),
    dx     = rho / H_dual(e)^2 drho dtheta,

so the integrals are a tensor quadrature: Gauss-Legendre in rho, graded as
s^6 toward the centre where w' may be singular, and the trapezoid rule in
the periodic theta.
"""

import math

import numpy as np
import pytest

from finslerpde import (DomainSpec, FinslerNorm, MaterialProfile, build_domain, solve,
                        weighted_hessian_integral)
from finslerpde.radial import _phi_inverse

ELLIPSOIDAL = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
EUCLIDEAN = FinslerNorm.euclidean(2)


def wulff_ball_integrals(norm, material, f=1.0, radius=1.0, beta=0.0, t=0.5,
                         n_rho=64, n_theta=512):
    """(weighted Hessian integral, weight integral) of the exact solution:
    the integrals of (k+|grad u|)^(p-2-beta) |D2u|^2 and (k+|grad u|)^-t."""
    n = 2
    s, ws = np.polynomial.legendre.leggauss(n_rho)
    s, ws = 0.5 * (s + 1.0), 0.5 * ws
    rho = radius * s ** 6
    drho = 6.0 * radius * s ** 5 * ws
    w1 = -_phi_inverse(material, f * rho / n)
    w2 = -(f / n) / material.b_second(-w1)
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    hd, g, d2 = norm.dual.jet(np.column_stack([np.cos(theta), np.sin(theta)]))
    gg = np.einsum("ti,tj->tij", g, g)
    # D2u = a gg + b D2H_dual(e) on the (rho, theta) grid, with |x| = rho / H_dual(e)
    a = w2[:, None]
    b = (w1 / rho)[:, None] * hd[None, :]
    hess2 = (a * a * np.einsum("tij,tij->t", gg, gg)
             + 2.0 * a * b * np.einsum("tij,tij->t", gg, d2)
             + b * b * np.einsum("tij,tij->t", d2, d2))
    gnorm = np.abs(w1)[:, None] * np.linalg.norm(g, axis=1)
    area = (rho * drho)[:, None] * ((2.0 * np.pi / n_theta) / hd ** 2)
    base = material.k + gnorm
    return (float((area * base ** (material.p - 2.0 - beta) * hess2).sum()),
            float((area * base ** -t).sum()))


@pytest.mark.parametrize("norm, p, index, exact", [
    (EUCLIDEAN, 2.0, 0, math.pi / 2.0),
    (EUCLIDEAN, 2.0, 1, 4.0 * math.sqrt(2.0) * math.pi / 3.0),
    (ELLIPSOIDAL, 2.0, 0, 2.0 * math.pi * 17.0 / 64.0),
    (EUCLIDEAN, 3.0, 0, 5.0 * math.pi / (6.0 * math.sqrt(2.0))),
], ids=["disk_p2_hessian", "disk_p2_weight", "ellipsoidal_p2_hessian", "euclidean_p3_hessian"])
def test_oracle_closed_forms(norm, p, index, exact):
    # u = (1 - |x|^2)/4 on the disk: |D2u|^2 = 1/2, |grad u| = |x|/2; on the
    # diag(4, 1) ball u = (1 - x^T A^-1 x)/4, |D2u|^2 = |A^-1|^2/4 = 17/64
    value = wulff_ball_integrals(norm, MaterialProfile(p=p))[index]
    assert value == pytest.approx(exact, rel=1e-13, abs=0.0)


# Relative errors of the FE weighted Hessian integral at h = 0.2 / 0.1,
# measured once: disk p=2 -6.00 / -3.10%, ellipsoidal p=2 -2.47 / -1.31%,
# Euclidean p=3 -0.95 / -0.39%, ellipsoidal p=3 +0.68 / +0.22%,
# Euclidean p=4 -0.28 / -0.019%.  Each case bounds the finer error and
# asks each halving of h to cut |error| to at most 0.6 of the coarser.
@pytest.mark.parametrize("norm, p, bound", [
    (EUCLIDEAN, 2.0, 0.035),
    (ELLIPSOIDAL, 2.0, 0.015),
    (EUCLIDEAN, 3.0, 0.005),
    (ELLIPSOIDAL, 3.0, 0.003),
    (EUCLIDEAN, 4.0, 0.0003),
], ids=["disk_p2", "ellipsoidal_p2", "euclidean_p3", "ellipsoidal_p3", "euclidean_p4"])
def test_weighted_hessian_converges_to_oracle(norm, p, bound, unit_source):
    material = MaterialProfile(p=p)
    exact = wulff_ball_integrals(norm, material)[0]
    errors = []
    for h in (0.2, 0.1):
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=norm), h)
        field, _ = solve(mesh, material, norm, unit_source)
        errors.append(abs(weighted_hessian_integral(field, material) / exact - 1.0))
    assert errors[1] <= 0.6 * errors[0]
    assert errors[1] <= bound
