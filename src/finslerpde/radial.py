"""Radial reduction: shooting for profiles w of v(x) = w(rho(x)).

The anisotropic equation restricted to functions of the dual-norm
distance becomes a 1D boundary value problem

    (q(rho) Phi(w'))' = rhs(w) q(rho),    Phi(t) = B'(|t|) sign(t),

which this module integrates as a first-order system in (w, Psi) with
Psi = Phi(w') q, so that the possibly singular Phi' (p < 2) is never
differentiated.  A problem is a march over an interval of rho with
q(rho) = r^(n-1), r = origin + orient rho the dual-norm radius, and
rhs = sign * (the source part it reads); each mode is a preset of these
(_PRESETS), and only its start state and the ball's center node differ:

* ``barrier``: rho in [0, R/2], r = R - rho, rhs = +g.  The coordinate
  runs inward from the outer boundary, so w(0) = 0 is the boundary value
  and shoot_slope = w'(0) is the boundary slope.  Used for Hopf and
  comparison checks on the annulus R/2 <= geometric radius <= R.
* ``ball``: rho in [0, R], r = rho, rhs = -f.  w decreases from its
  central maximum; the shooting parameter is the central value w(0) and
  the terminal condition is the boundary value.  q(0) = 0 makes
  Phi^{-1}(Psi/q) indeterminate at the center, so the march starts at
  rho0 = R * 1e-6 with the series values Psi(rho0) = -f(w(0)) rho0^n / n
  and w(rho0) = w(0) - int_0^rho0 Phi^{-1}(f(w(0)) rho / n); the exact
  center point (w(0), w'(0) = 0) is prepended to the returned grid.

Integration is classical 4-stage Runge-Kutta on 4096 uniform steps.
When the source the march reads is constant (zero included), every stage
depends on rho alone: Psi and w are then cumulative sums of the steps'
increments, with all stages from one array inversion of Phi, and only a
w-dependent source is marched by a scalar loop, which evaluates q on
Python floats.  Both give the same numbers to a few ulp (in the cases
tested, bit for bit for w of power-law profiles and for w and w' at
p = 2); numpy's pow and the array Newton path move the others.  The
shooting parameter is bracketed geometrically and then found by Brent's
method, each trial being one full march; the bracket ends are not
marched again, and the returned profile is the march made at the root.
Phi is inverted in closed form for power-law profiles and otherwise by
material.invert_increasing: a geometric bracket, then Newton's method on
B'(t) = |y| with B''(t) = (k + t)^(p-3) ((p - 1) t + k), safeguarded by
geometric bisection (the scalar loop runs the same iteration on floats).
The profile does not invert Phi again: its w' at a node is the slope
Phi^{-1}(Psi/q) the march took there (the first RK4 stage of the step
leaving the node), and only the last node takes one more inversion.

Brent's method (_brent) is a port of scipy.optimize.brentq to plain
Python.  It takes the same floating-point steps, so it gives the same
roots bit for bit.  Importing scipy.optimize costs a process about 0.5 s
and 47 MB of peak memory on a 2-vCPU host, more than the RK4 work of a
barrier shot.  Profiles are interpolated by the cubic Hermite spline
through the nodes' (w, w') pairs, so the slopes the march took are
reused there as well.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from .errors import NumericError
from .fields import ScalarField
from .material import (_DOUBLINGS, _NEWTON_RTOL, _NEWTON_STEPS, MaterialProfile, SourceTerm,
                       invert_increasing)

N_STEPS = 4096
_SLOPE_MIN, _SLOPE_MAX = 1e-12, 1e6
_W_CAP = 1e12  # treat profiles beyond this as diverged (Keller-Osserman trials)
_CENTER_CUT = 1e-6  # ball mode starts at R * this
_RTOL = 4.0 * np.finfo(float).eps  # the smallest relative tolerance scipy's brentq accepts

# mode: (interval / R, origin / R, orient, source part, sign); see RadialProblem
_PRESETS = {
    "barrier": ((0.0, 0.5), 1.0, -1.0, "g", 1.0),
    "ball": ((_CENTER_CUT, 1.0), 0.0, 1.0, "f", -1.0),
}


@dataclasses.dataclass
class RadialProblem:
    """``mode`` fixes, as plain attributes: the march's rho ``interval``,
    the dual-norm radius ``origin`` + ``orient`` * rho, and the source
    ``part`` ("f" or "g") the march reads times ``sign``."""

    material: MaterialProfile
    source: SourceTerm
    radius: float
    mode: str = "barrier"
    n: int = 2

    def __post_init__(self):
        if self.mode not in tuple(_PRESETS):  # a tuple: a config's mode may be unhashable
            raise ValueError(f"mode must be 'barrier' or 'ball', got {self.mode!r}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.n < 2:
            raise ValueError(f"dimension n must be at least 2, got {self.n}")
        (lo, hi), origin, self.orient, self.part, self.sign = _PRESETS[self.mode]
        self.interval = (lo * self.radius, hi * self.radius)
        self.origin = origin * self.radius

    def q(self, rho):
        """r^(n-1) at rho, for a float or an array alike."""
        return (self.origin + self.orient * rho) ** (self.n - 1)


@dataclasses.dataclass
class BarrierProfile:
    """Radial profile on an increasing rho grid.

    In barrier mode w(0) = 0, w is non-decreasing and w' > 0 in the
    interior; shoot_slope is the converged boundary slope w'(0).  In
    ball mode the same container holds the decreasing profile from the
    central maximum, with shoot_slope = w'(0) = 0 at the center.
    ``w_prime`` holds the slopes Phi^{-1}(Psi/q) the march computed at
    its nodes (0 at the prepended ball center); they are also the node
    slopes of the interpolant ``evaluate``.  ``marches`` counts the
    distinct shooting parameters marched (the root's march, which the
    profile is built from, included) and
    ``bracket`` is the shooting parameter interval the root was sought
    in; a plain ``integrate`` has one march and no bracket.
    """

    grid: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray
    shoot_slope: float
    mode: str
    radius: float
    n: int
    marches: int = 1
    bracket: Optional[tuple] = None


def _unreachable(ay):
    return NumericError(f"Phi inversion failed: B'(t) never reaches {ay:.3e}")


def _phi_inverse_scalar(material):
    """Scalar t = Phi^{-1}(y): solve B'(t) = |y|, signed.

    The w-dependent RK4 loop inverts one value at a time: this runs the
    geometric bracket and safeguarded Newton iteration of _phi_inverse on
    Python floats, and raises where _phi_inverse gives NaN.
    """
    p, k = material.p, material.k
    if k == 0.0:
        e = 1.0 / (p - 1.0)

        def inv(y):
            if y == 0.0:
                return 0.0
            return math.copysign(abs(y) ** e, y)
        return inv

    def inv(y):
        if y == 0.0:
            return 0.0
        ay = abs(y)
        hi = 1.0
        for _ in range(_DOUBLINGS):
            if (k + hi) ** (p - 2.0) * hi >= ay:
                break
            hi *= 2.0
        else:
            raise _unreachable(ay)
        lo = hi
        while (k + lo) ** (p - 2.0) * lo >= ay and lo > 1e-320:
            lo *= 0.5
        # Newton on B'(t) = ay from the upper end.  B' increases, so each
        # iterate tightens the bracket; a step that would leave it is replaced
        # by a geometric bisection step (relative accuracy survives tiny roots)
        t = hi
        for _ in range(_NEWTON_STEPS):
            excess = (k + t) ** (p - 2.0) * t - ay
            if excess < 0.0:
                lo = t
            elif excess > 0.0:
                hi = t
            else:
                break
            step = excess / ((k + t) ** (p - 3.0) * ((p - 1.0) * t + k))
            if abs(step) <= _NEWTON_RTOL * t:
                t -= step
                break
            t = t - step if lo < t - step < hi else math.sqrt(lo * hi)
        return math.copysign(t, y)
    return inv


def _phi_inverse(material, y):
    """Array t = Phi^{-1}(y) for a 1-d array y, signed.

    Closed form |y|^(1/(p-1)) for power-law profiles, where an overflow
    gives inf; otherwise invert_increasing on B' with B'', where NaN marks
    a |y| that B' does not reach below t = 2^199 (the scalar inverse
    raises there).
    """
    if material.k == 0.0:
        return np.copysign(np.abs(y) ** (1.0 / (material.p - 1.0)), y)
    return np.copysign(invert_increasing(material.b_prime, material.b_second, np.abs(y)), y)


def _march(problem, start, n_steps):
    """RK4 in (w, Psi).

    Returns (w_nodes, w_prime_nodes), or (None, None) if the trajectory
    leaves the finite range (a diverged shooting trial).  w' = Phi^{-1}(Psi/q)
    at a node is the k1 slope of the step leaving it; only the last node
    takes one more inversion of B'.  The source the march reads, the
    problem's part with its sign, is classified by SourceTerm.constant: a
    constant one is marched as arrays (_march_constant), a w-dependent one
    by a scalar loop that evaluates it through SourceTerm.scalar, so at
    max(w, 0).
    """
    sign, const = problem.sign, problem.source.constant(problem.part)
    read = problem.source.scalar(problem.part) if const is None else (lambda w: const)

    def rhs(w):
        return sign * read(w)

    a, mat = problem.interval[0], problem.material
    if problem.mode == "barrier":
        # start is the boundary slope w'(0), and w(0) = 0
        psi0 = problem.q(a) * float(mat.b_prime(np.asarray(start, dtype=float)))
        w_start = lambda slope0: 0.0
    else:
        # start is the central value w(0), and the series start at rho0 = a
        # takes w(rho0) from slope0, the integrand at rho0: Phi^{-1} is y^d
        # with d = 1/(p - 1), or near 0 linear (d = 1) when k > 0
        psi0 = rhs(float(start)) * a ** problem.n / problem.n
        d = 1.0 / (mat.p - 1.0) if mat.k == 0.0 else 1.0
        w_start = lambda slope0: float(start) + a * slope0 / (1.0 + d)
    if const is None:
        return _march_loop(problem, n_steps, rhs, psi0, w_start)
    return _march_constant(problem, n_steps, sign * const, psi0, w_start)


def _march_loop(problem, n_steps, rhs, psi0, w_start):
    """_march for a w-dependent source: one RK4 step at a time on floats."""
    phi_inv = _phi_inverse_scalar(problem.material)
    q = problem.q
    a, b = problem.interval
    step = (b - a) / n_steps
    try:
        w = w_start(phi_inv(psi0 / q(a)))
    except OverflowError:
        return None, None
    psi, ws, dws = psi0, [w], []
    for i in range(n_steps):
        r = a + i * step
        try:
            q0, q_mid, q1 = q(r), q(r + 0.5 * step), q(r + step)
            k1w, k1p = phi_inv(psi / q0), rhs(w) * q0
            k2w = phi_inv((psi + 0.5 * step * k1p) / q_mid)
            k2p = rhs(w + 0.5 * step * k1w) * q_mid
            k3w = phi_inv((psi + 0.5 * step * k2p) / q_mid)
            k3p = rhs(w + 0.5 * step * k2w) * q_mid
            k4w, k4p = phi_inv((psi + step * k3p) / q1), rhs(w + step * k3w) * q1
        except OverflowError:
            return None, None
        w += step * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0
        psi += step * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        if not (math.isfinite(w) and math.isfinite(psi) and abs(w) < _W_CAP):
            return None, None
        ws.append(w)
        dws.append(k1w)
    try:
        dws.append(phi_inv(psi / q(b)))
    except OverflowError:
        return None, None
    return np.array(ws), np.array(dws)


def _march_constant(problem, n_steps, c, psi0, w_start):
    """_march for a constant source: Psi' = c q(rho), c the signed source,
    makes every RK4 stage a function of rho alone.

    Psi's nodes are np.add.accumulate of the steps' increments, the w
    stages come from one array Phi^{-1} on the node, midpoint and end
    abscissae, and w's nodes are np.add.accumulate again.  The abscissae
    (a + i*step, + 0.5*step, + step) and the operation order are the
    loop's, so the numbers are its numbers but for an ulp here and there
    from numpy's pow (not libm's) and, for shifted profiles, the array
    inverter's Newton path.  A march that diverges at step i (an
    overflow gives inf) returns (None, None), unless a stage of step i is
    a value B' does not reach: that raises, as in the loop.
    """
    a, b = problem.interval
    step = (b - a) / n_steps
    r = a + np.arange(n_steps) * step
    q0, q_mid, q1 = problem.q(r), problem.q(r + 0.5 * step), problem.q(r + step)
    k1p, k2p, k4p = c * q0, c * q_mid, c * q1  # k3p is k2p
    with np.errstate(over="ignore", invalid="ignore"):
        psi = np.add.accumulate(np.concatenate(
            [[psi0], step * (k1p + 2.0 * k2p + 2.0 * k2p + k4p) / 6.0]))
        node = psi[:-1]
        # q at b from an array too, so numpy's pow as at the other abscissae
        y = np.concatenate([node / q0, (node + 0.5 * step * k1p) / q_mid,
                            (node + 0.5 * step * k2p) / q_mid, (node + step * k2p) / q1,
                            psi[-1:] / problem.q(np.array([b]))])
        slopes = _phi_inverse(problem.material, y)
        k1w, k2w, k3w, k4w = slopes[:-1].reshape(4, n_steps)
        w = np.add.accumulate(np.concatenate(
            [[w_start(k1w[0])], step * (k1w + 2.0 * k2w + 2.0 * k3w + k4w) / 6.0]))
    bad = ~(np.isfinite(w[1:]) & np.isfinite(psi[1:]) & (np.abs(w[1:]) < _W_CAP))
    if np.any(bad):
        stages = np.flatnonzero(bad)[0] + n_steps * np.arange(4)
        unreached = np.isnan(slopes[stages])
        if np.any(unreached):
            raise _unreachable(abs(y[stages[unreached][0]]))
        return None, None
    if np.isnan(slopes[-1]):
        raise _unreachable(abs(y[-1]))
    if not np.isfinite(slopes[-1]):
        return None, None
    return w, np.append(k1w, slopes[-1])


def _profile(problem, start, ws, w_prime):
    """BarrierProfile from one march's (w, w') nodes."""
    grid = np.linspace(*problem.interval, len(ws))
    if problem.mode == "ball":
        grid = np.concatenate([[0.0], grid])
        ws = np.concatenate([[float(start)], ws])
        w_prime = np.concatenate([[0.0], w_prime])
    return BarrierProfile(grid=grid, w=ws, w_prime=w_prime,
                          shoot_slope=float(w_prime[0]), mode=problem.mode,
                          radius=problem.radius, n=problem.n)


def _diverged(start):
    return NumericError(f"radial profile diverged for shooting parameter {start:.6g}")


def integrate(problem, start, n_steps=N_STEPS):
    """Integrate for a given shooting parameter (no terminal condition).

    In barrier mode ``start`` is the boundary slope w'(0) > 0; in ball
    mode it is the central value w(0).  Raises NumericError if the
    trajectory diverges.
    """
    ws, dws = _march(problem, start, n_steps)
    if ws is None:
        raise _diverged(start)
    return _profile(problem, start, ws, dws)


def check_target(problem, target_m):
    """Reject a shooting target the problem's mode cannot reach."""
    if problem.mode == "barrier" and target_m <= 0:
        raise ValueError("barrier mode needs target_m > 0")
    if problem.mode == "ball" and target_m < 0:
        raise ValueError("ball mode needs target_m >= 0")


def _brent(f, xpre, xcur, fpre, fcur, xtol, rtol, maxiter=100):
    """Root of f between xpre and xcur by Brent's method.

    fpre and fcur are f at the two ends, already known to the caller, and
    must not have the same sign.  A line-by-line port of the C routine of
    scipy.optimize.brentq (Brent 1973, ch. 4): the same steps in the same
    floating-point order, so the same points are tried and the same root
    is returned.  As brentq with disp=False, the last iterate is returned
    when maxiter runs out.
    """
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f must have different signs at the two ends")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur


def shoot(problem, target_m, tol=1e-10, n_steps=N_STEPS):
    """Find the profile hitting w(end) = target_m by bracketed root finding.

    Barrier mode solves for the boundary slope (target_m > 0); ball mode
    for the central value (target_m >= 0, typically 0 for Dirichlet
    data).  The bracket grows geometrically from [1e-6, 1], the end that
    does not move taking the last value of the one that does; slopes
    outside [1e-12, 1e6] raise NumericError.  Brent's method then finds
    the parameter to a relative accuracy of 4 ulp, starting from the
    bracket ends' values.  Each parameter is marched once: the profile
    is built from the march at the root, and it must hit the target
    within tol * max(1, |target_m|): the parameter's 4-ulp error reaches
    w(end) through dw(end)/d(parameter), which grows with the target.
    """
    check_target(problem, target_m)
    marched = {}

    def hit(s):
        if s not in marched:
            marched[s] = _march(problem, s, n_steps)
        ws, _ = marched[s]
        return math.inf if ws is None else float(ws[-1])

    lo, hi = 1e-6, 1.0
    hit_lo, hit_hi = hit(lo), hit(hi)
    while hit_lo > target_m:
        hi, hit_hi = lo, hit_lo
        lo *= 0.25
        if lo < _SLOPE_MIN:
            raise NumericError(
                f"shooting bracket not found: w(end) > {target_m:.6g} down to "
                f"slope {_SLOPE_MIN:.0e}")
        hit_lo = hit(lo)
    while hit_hi < target_m:
        lo, hit_lo = hi, hit_hi
        hi *= 4.0
        if hi > _SLOPE_MAX:
            raise NumericError(
                f"shooting bracket not found: w(end) < {target_m:.6g} up to "
                f"slope {_SLOPE_MAX:.0e}")
        hit_hi = hit(hi)

    # Diverged trials are capped so Brent sees finite values of the right
    # sign.  xtol stays below rtol * lo over the whole slope range, so the
    # relative tolerance governs.  A root Brent does not converge on is
    # left to the tol check on the profile.
    def miss(s):
        return min(hit(s), _W_CAP) - target_m

    root = _brent(miss, lo, hi, miss(lo), miss(hi), xtol=_RTOL * _SLOPE_MIN, rtol=_RTOL)
    ws, dws = marched[root]
    if ws is None:
        raise _diverged(root)
    profile = _profile(problem, root, ws, dws)
    profile.marches = len(marched)
    profile.bracket = (lo, hi)
    missed = abs(float(profile.w[-1]) - target_m)
    allowed = tol * max(1.0, abs(target_m))
    if missed > allowed:
        raise NumericError(f"shooting missed the target by {missed:.3e} (tol {allowed:.1e})")
    return profile


def evaluate(profile, rho):
    """Cubic Hermite interpolation of w at radial coordinates rho.

    The node slopes are the profile's w_prime, the slopes the march took.
    rho is clipped to the grid.  The coefficients and their evaluation
    follow scipy's CubicHermiteSpline and PPoly in the same order, so the
    values equal CubicHermiteSpline(grid, w, w_prime)'s bit for bit.
    """
    x, y, d = profile.grid, profile.w, profile.w_prime
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (d[:-1] + d[1:] - 2 * slope) / dx
    c0 = t / dx
    c1 = (slope - d[:-1]) / dx - t
    r = np.clip(np.asarray(rho, dtype=float), x[0], x[-1])
    i = np.clip(np.searchsorted(x, r, "right") - 1, 0, len(x) - 2)
    s = r - x[i]
    # summed term by term in PPoly's order: 0 + c3, + c2 s, + c1 s^2, + c0 s^3
    return (0.0 + y[i] + d[i] * s) + c1[i] * (s * s) + c0[i] * (s * s * s)


def _radial_coordinate(profile, h, center, points):
    dist = h.dual.eval(np.asarray(points, dtype=float) - np.asarray(center, dtype=float))
    return profile.radius - dist if profile.mode == "barrier" else dist


def lift(h, center, profile, mesh):
    """Nodal field v(x) = w(rho(x)) with rho from the dual-norm distance."""
    rho = _radial_coordinate(profile, h, center, mesh.vertices)
    tol = 1e-9 * profile.radius
    bad = (rho < profile.grid[0] - tol) | (rho > profile.grid[-1] + tol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"mesh node {i} at ({mesh.vertices[i, 0]:.6g}, {mesh.vertices[i, 1]:.6g}) "
            f"lies outside the radial range [{profile.grid[0]:.6g}, {profile.grid[-1]:.6g}] "
            f"(rho = {rho[i]:.6g})")
    return ScalarField(mesh, evaluate(profile, rho))


def hopf_margin(profile, h=None):
    """Lower bound for the lifted field's inner-normal boundary slope.

    The lifted barrier v = w(R - H_dual(x - center)) has boundary slope
    w'(0) |grad H_dual|, so the floor is shoot_slope times the minimum
    of |grad H_dual| over boundary directions (1 for the Euclidean
    norm, h=None).  Must be positive.
    """
    if profile.mode != "barrier":
        raise ValueError("hopf_margin needs a barrier mode profile")
    factor = 1.0
    if h is not None:
        theta = (np.arange(4096) + 0.5) * (2.0 * np.pi / 4096.0)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        factor = float(np.linalg.norm(h.dual.grad(dirs), axis=1).min())
    margin = profile.shoot_slope * factor
    if margin <= 0.0:
        raise NumericError(f"Hopf margin must be positive, got {margin:.3e}")
    return margin


def ode_residual(profile, problem):
    """Max discrepancy of d/drho [Phi(w')q] against the stored rhs."""
    qv = problem.q(profile.grid)
    mat, src = problem.material, problem.source
    psi = mat.b_prime(np.abs(profile.w_prime)) * np.sign(profile.w_prime) * qv
    dpsi = np.gradient(psi, profile.grid, edge_order=2)
    vals = {"f": src.f_vals, "g": src.g_vals}[problem.part]
    return float(np.max(np.abs(dpsi - problem.sign * vals(profile.w) * qv)))
