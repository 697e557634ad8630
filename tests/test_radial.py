import dataclasses
import math
import warnings

import numpy as np
import pytest

from finslerpde import (DomainSpec, MaterialProfile, NumericError, RadialProblem,
                        SourceTerm, build_domain, evaluate, hopf_margin, lift, shoot)
from finslerpde import radial
from finslerpde.radial import _brent, integrate
from conftest import const_source


def central_value(prof):
    """w at the end of the profile away from the geometric boundary."""
    return float(prof.w[0] if prof.mode == "ball" else prof.w[-1])


def ode_residual(profile, problem):
    """Max discrepancy of d/drho [Phi(w')q] against the stored rhs."""
    qv = problem.q(profile.grid)
    mat, src = problem.material, problem.source
    psi = mat.b_prime(np.abs(profile.w_prime)) * np.sign(profile.w_prime) * qv
    dpsi = np.gradient(psi, profile.grid, edge_order=2)
    vals = {"f": src.f_vals, "g": src.g_vals}[problem.part]
    return float(np.max(np.abs(dpsi - problem.sign * vals(profile.w) * qv)))


def shoot_counted(prob, target_m):
    """shoot() with every RK4 march recorded; returns (profile, marches by
    shooting parameter).  No parameter may be marched twice."""
    starts, marched = [], {}
    march = radial._march

    def counted(problem, start, n_steps):
        starts.append(start)
        marched[start] = march(problem, start, n_steps)
        return marched[start]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(radial, "_march", counted)
        prof = shoot(prob, target_m)
    assert len(set(starts)) == len(starts) == prof.marches
    return prof, marched


def brent_pair(f, lo, hi, maxiter=100):
    """(root, points tried) from scipy's brentq and from _brent, with the
    tolerances shoot uses; _brent is handed f at the two ends."""
    from scipy.optimize import brentq

    tol = dict(xtol=radial._RTOL * radial._SLOPE_MIN, rtol=radial._RTOL, maxiter=maxiter)
    ref_tried, tried = [], []
    ref = brentq(lambda x: ref_tried.append(x) or f(x), lo, hi, disp=False, **tol)
    root = _brent(lambda x: tried.append(x) or f(x), lo, hi, f(lo), f(hi), **tol)
    return (ref, ref_tried), (root, [lo, hi] + tried)


def shoot_bisection(prob, target_m, n_steps):
    """Reference: the geometric bracket, then 80 fixed bisection steps."""
    def hit(s):
        ws, _ = radial._march(prob, s, n_steps)
        return math.inf if ws is None else float(ws[-1])

    lo, hi = 1e-6, 1.0
    while hit(lo) > target_m:
        lo *= 0.25
    while hit(hi) < target_m:
        hi *= 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if hit(mid) < target_m:
            lo = mid
        else:
            hi = mid
    return integrate(prob, 0.5 * (lo + hi), n_steps)


def bisection_phi_inverse(material, y):
    """Reference Phi^{-1} for a shifted profile: bracket B'(t) = |y| by doubling
    and halving from 1, then 120 geometric bisection steps."""
    p, k = material.p, material.k
    ay = abs(y)
    hi = 1.0
    while (k + hi) ** (p - 2.0) * hi < ay:
        hi *= 2.0
    lo = hi
    while (k + lo) ** (p - 2.0) * lo >= ay and lo > 1e-320:
        lo *= 0.5
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if (k + mid) ** (p - 2.0) * mid < ay:
            lo = mid
        else:
            hi = mid
    return math.copysign(math.sqrt(lo * hi), y)


def ball(p, k=0.0):
    kind = "shifted" if k else "power"
    return RadialProblem(material=MaterialProfile(p=p, k=k, kind=kind),
                         source=const_source(), radius=1.0, mode="ball")


def barrier():
    return RadialProblem(material=MaterialProfile(p=2.0), source=const_source(),
                         radius=1.0, mode="barrier")


@pytest.fixture(scope="module")
def barrier_p2(euclid):
    prob = barrier()
    return prob, shoot(prob, target_m=0.1)


@pytest.fixture(scope="module")
def shifted_ball():
    return shoot_counted(ball(3.0, k=0.5), 0.0)


# (problem, target) of a Hopf study on the bench disk, a barrier run, and
# two ball shots; the shifted ball reuses its fixture
SHOTS = {
    "study_barrier_p2": lambda: (RadialProblem(material=MaterialProfile(p=2.0),
                                               source=const_source(), radius=0.5,
                                               mode="barrier"), 0.1),
    "barrier_p3": lambda: (RadialProblem(material=MaterialProfile(p=3.0),
                                         source=const_source(), radius=1.0,
                                         mode="barrier"), 1.0),
    "shifted_ball_p3": lambda: (ball(3.0, k=0.5), 0.0),
    "ball_p1.5_n3": lambda: (RadialProblem(material=MaterialProfile(p=1.5),
                                           source=const_source(), radius=1.0,
                                           mode="ball", n=3), 0.0),
}


@pytest.fixture(scope="module", params=list(SHOTS))
def shot(request):
    """(problem, target, profile, marches by shooting parameter)."""
    prob, target = SHOTS[request.param]()
    if request.param == "shifted_ball_p3":
        return (prob, target, *request.getfixturevalue("shifted_ball"))
    return (prob, target, *shoot_counted(prob, target))


@pytest.fixture(scope="module")
def ball_p2(euclid, unit_source):
    prob = RadialProblem(material=MaterialProfile(p=2.0),
                         source=unit_source, radius=1.0, mode="ball")
    return prob, shoot(prob, target_m=0.0)


class TestBarrier:
    def test_shoot_slope_matches_closed_form(self, barrier_p2):
        # with B(t) = t^2/2, g = m, target m: w(rho) = m*ln(R/(R-rho))/ln 2
        _, prof = barrier_p2
        assert prof.shoot_slope == pytest.approx(0.1 / math.log(2.0), abs=1e-6)

    def test_curve_matches_closed_form(self, barrier_p2):
        _, prof = barrier_p2
        rho = prof.grid[:-1]
        exact = 0.1 * np.log(1.0 / (1.0 - rho)) / math.log(2.0)
        assert np.abs(prof.w[:-1] - exact).max() < 1e-10

    def test_profile_increasing(self, barrier_p2):
        _, prof = barrier_p2
        assert prof.w[0] == 0.0
        assert np.all(np.diff(prof.w) > 0.0)
        assert np.all(prof.w_prime > 0.0)

    def test_flux_conservation(self, euclid):
        # q*Phi(w') - int q*g must be constant along the trajectory
        prob = RadialProblem(material=MaterialProfile(p=2.0),
                             source=const_source(g=0.2), radius=1.0, mode="barrier")
        from finslerpde.radial import integrate
        prof = integrate(prob, 0.3)
        q = (1.0 - prof.grid)
        flux = q * prob.material.b_prime(prof.w_prime)
        load = np.concatenate([[0.0], np.cumsum(
            0.5 * np.diff(prof.grid) * (0.2 * q[:-1] + 0.2 * q[1:]))])
        c = flux - load
        assert np.ptp(c) <= 1e-8 * max(1.0, np.abs(c).max())

    def test_ode_residual_small(self, barrier_p2):
        prob, prof = barrier_p2
        res = ode_residual(prof, prob)
        assert res <= 1e-6 * 0.1 + 1e-10

    def test_shooting_monotone_in_slope(self, euclid):
        prob = RadialProblem(material=MaterialProfile(p=3.0),
                             source=const_source(g=0.2), radius=1.0, mode="barrier")
        ends = []
        from finslerpde.radial import integrate
        for s in (0.05, 0.1, 0.2):
            ends.append(integrate(prob, s).w[-1])
        assert ends[0] < ends[1] < ends[2]


class TestBall:
    def test_torsion_center(self, ball_p2):
        _, prof = ball_p2
        assert central_value(prof) == pytest.approx(0.25, abs=1e-9)
        assert prof.w[-1] == pytest.approx(0.0, abs=1e-10)

    def test_torsion_edge_slope(self, ball_p2):
        _, prof = ball_p2
        assert prof.w_prime[-1] == pytest.approx(-0.5, abs=1e-6)

    def test_p3_center(self, euclid, unit_source):
        prob = RadialProblem(material=MaterialProfile(p=3.0),
                             source=unit_source, radius=1.0, mode="ball")
        prof = shoot(prob, target_m=0.0)
        exact = (2.0 / 3.0) * 2.0 ** -0.5
        assert central_value(prof) == pytest.approx(exact, abs=5e-7)

    def test_three_dimensional_torsion(self, unit_source):
        prob = RadialProblem(material=MaterialProfile(p=2.0),
                             source=unit_source, radius=1.0, mode="ball", n=3)
        prof = shoot(prob, target_m=0.0)
        assert central_value(prof) == pytest.approx(1.0 / 6.0, abs=1e-8)

    def test_shifted_profile_center(self, shifted_ball):
        # (k + t) t = rho/2 with k = 1/2 integrates to w(0) = 7/24
        prof, _ = shifted_ball
        assert central_value(prof) == pytest.approx(7.0 / 24.0, abs=1e-6)
        # the shot with bisection_phi_inverse made 5 marches to this centre value
        assert prof.marches == 5
        assert central_value(prof) == pytest.approx(0.2916666666607928, rel=1e-12, abs=0.0)


class TestVaryingSource:
    """Shots whose source depends on w, so every RK4 stage calls it."""

    # bounds about 3x the measured residuals: 2.1e-10 and 2.9e-10 for the
    # barriers, 3.1e-8 and 3.6e-8 for the balls
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("mode, target, bound", [("ball", 0.0, 1e-7),
                                                     ("barrier", 0.1, 1e-9)],
                             ids=["ball", "barrier"])
    def test_shot_converges_with_small_residual(self, p, mode, target, bound):
        # f(s) = 1 + s for the ball, g(s) = s^2 for the barrier
        source = SourceTerm(f=lambda s: 1.0 + np.asarray(s, dtype=float),
                            g=lambda s: np.asarray(s, dtype=float) ** 2)
        prob = RadialProblem(material=MaterialProfile(p=p), source=source, radius=1.0,
                             mode=mode)
        prof = shoot(prob, target)
        assert prof.marches <= 12
        assert abs(prof.w[-1] - target) <= 1e-10
        assert ode_residual(prof, prob) <= bound
        if mode == "ball" and p == 2.0:
            # -(rho w')'/rho = 1 + w, w(1) = 0: w = J0(rho)/J0(1) - 1
            assert central_value(prof) == pytest.approx(1.0 / 0.7651976865579666 - 1.0,
                                                       abs=1e-11)


def march_pair(prob, start, n_steps):
    """_march of a constant-source problem as arrays, and as the scalar
    loop, forced by classifying the source as w-dependent."""
    arrays = radial._march(prob, start, n_steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SourceTerm, "constant", lambda self, part: None)
        loop = radial._march(prob, start, n_steps)
    return arrays, loop


class TestPhiInverse:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("k", [1e-3, 0.5, 1.0])
    def test_matches_bisection(self, p, k):
        # the scalar inverse and the array one
        material = MaterialProfile(p=p, k=k, kind="shifted")
        inv = radial._phi_inverse_scalar(material)
        ys = np.concatenate([np.geomspace(1e-150, 1e10, 97), -np.geomspace(1e-8, 1e8, 17)])
        ref = np.array([bisection_phi_inverse(material, y) for y in ys])
        for got in (np.array([inv(y) for y in ys]), radial._phi_inverse(material, ys)):
            assert np.all(np.abs(got - ref) <= 16 * np.finfo(float).eps * np.abs(ref))
        assert inv(0.0) == 0.0
        assert radial._phi_inverse(material, np.array([0.0]))[0] == 0.0

    def test_past_the_bracket_is_infinite(self):
        # B'(t) ~ t^0.2 stays below 1e13 up to t = 2^199: the inverse is +-inf
        material = MaterialProfile(p=1.2, k=0.5, kind="shifted")
        inv = radial._phi_inverse_scalar(material)
        assert (inv(1e13), inv(-1e13)) == (math.inf, -math.inf)
        got = radial._phi_inverse(material, np.array([1.0, 1e13, -1e13]))
        assert math.isfinite(got[0]) and list(got[1:]) == [math.inf, -math.inf]

    @pytest.mark.parametrize("force_loop", [False, True], ids=["array", "loop"])
    @pytest.mark.parametrize("material, g, slope", [
        # step 0's midpoint stage |y|^5 overflows
        (MaterialProfile(p=1.2), 1e70, 1.0),
        # step 0's midpoint stage is Phi^{-1}(6.1e13), past the bracket
        (MaterialProfile(p=1.2, k=0.5, kind="shifted"), 1e18, 1.0),
        # w passes the cap at step 0, where every stage is in the bracket;
        # Psi/q reaches 2 B'(2^198.5), beyond B'(2^199), later
        (MaterialProfile(p=1.2, k=0.5, kind="shifted"), 0.0, 2.0 ** 198.5),
    ], ids=["power-overflow", "shifted-past-bracket", "shifted-slope-2^198.5"])
    def test_a_march_past_the_inversion_range_diverges(self, material, g, slope, force_loop):
        prob = RadialProblem(material=material, source=const_source(g=g), radius=1.0,
                             mode="barrier")
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            if force_loop:
                mp.setattr(SourceTerm, "constant", lambda self, part: None)
            with pytest.raises(NumericError, match="radial profile diverged"):
                integrate(prob, slope)

    def test_overflow_is_a_diverged_march(self):
        # f = 1e70 (1 + s) in ball mode: the series start Phi^{-1}(f rho0 / 2)
        # already overflows in the loop
        prob = RadialProblem(material=MaterialProfile(p=1.2), radius=1.0, mode="ball",
                             source=SourceTerm(f=lambda s: 1e70 * (1.0 + np.asarray(s))))
        with pytest.raises(NumericError, match="diverged"):
            integrate(prob, 0.0)


class TestArrayMarch:
    """Constant-source marches go through arrays, with the loop's numbers."""

    # Largest differences measured at 1024 and 4096 steps: none in w at
    # k = 0 or p = 2, and none in w' at p = 2; w' at k = 0 within 0.98 eps
    # relative; at k > 0, w within 0.83 eps of max |w| and w' within 3.5 eps
    # relative.  The bounds are about 4x those.
    @pytest.mark.parametrize("k", [0.0, 1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    # At n = 3, q = r^2 comes from numpy's square in the arrays and from
    # libm's pow in the loop, which differ by an ulp at some r; the same
    # bounds hold there.
    @pytest.mark.parametrize("mode, source, n", [("barrier", const_source(), 2),
                                                 ("barrier", const_source(g=0.7), 2),
                                                 ("ball", const_source(), 2),
                                                 ("barrier", const_source(g=0.7), 3),
                                                 ("ball", const_source(), 3)],
                             ids=["barrier_g0", "barrier_g0.7", "ball_f1",
                                  "barrier_g0.7_n3", "ball_f1_n3"])
    def test_equals_loop(self, mode, source, n, p, k):
        eps = np.finfo(float).eps
        material = MaterialProfile(p=p, k=k, kind="shifted" if k else "power")
        prob = RadialProblem(material=material, source=source, radius=1.0, mode=mode, n=n)
        (w, dw), (w_ref, dw_ref) = march_pair(prob, 0.3, n_steps=1024)
        if p == 2.0 and n == 2:
            assert np.array_equal(dw, dw_ref)
        if (p == 2.0 or k == 0.0) and n == 2:
            assert np.array_equal(w, w_ref)
        assert np.abs(w - w_ref).max() <= 4 * eps * np.abs(w_ref).max()
        assert np.all(np.abs(dw - dw_ref) <= (4 if k == 0.0 else 16) * eps * np.abs(dw_ref))

    def test_constant_source_skips_the_loop(self, monkeypatch):
        # a silent fallback to the loop would invert ~16k values one by one
        calls = {"phi_inv": 0, "f": 0}
        factory = radial._phi_inverse_scalar

        def counting_factory(material):
            inv = factory(material)

            def counted(y):
                calls["phi_inv"] += 1
                return inv(y)
            return counted

        def f(s):
            calls["f"] += 1
            return np.ones_like(np.asarray(s, dtype=float))

        monkeypatch.setattr(radial, "_phi_inverse_scalar", counting_factory)
        prob = RadialProblem(material=MaterialProfile(p=3.0, k=0.5, kind="shifted"),
                             source=SourceTerm(f=f), radius=1.0, mode="ball")
        integrate(prob, 0.3)
        assert calls == {"phi_inv": 0, "f": 1}  # f: SourceTerm.constant's one probe
        monkeypatch.setattr(SourceTerm, "constant", lambda self, part: None)
        integrate(prob, 0.3)
        assert calls["phi_inv"] == 1 + 4 * radial.N_STEPS + 1


class TestLift:
    def test_lift_onto_annulus(self, euclid, barrier_p2):
        _, prof = barrier_p2
        mesh = build_domain(DomainSpec(kind="annulus_wulff", radius=1.0,
                                       norm=euclid), 0.1)
        field = lift(euclid, np.zeros(2), prof, mesh)
        r = np.linalg.norm(mesh.vertices, axis=1)
        exact = 0.1 * np.log(1.0 / r) / math.log(2.0)
        assert np.abs(field.values - exact).max() < 1e-9

    def test_lift_rejects_out_of_range_points(self, euclid, barrier_p2):
        _, prof = barrier_p2
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        with pytest.raises(ValueError, match="node"):
            lift(euclid, np.zeros(2), prof, mesh)

    def test_evaluate_matches_grid(self, ball_p2):
        _, prof = ball_p2
        vals = evaluate(prof, prof.grid)
        assert np.abs(vals - prof.w).max() < 1e-12

    def test_evaluate_midpoints_match_torsion_closed_form(self, ball_p2):
        # p = 2 torsion: w(rho) = (1 - rho^2)/4, a cubic Hermite spline
        # through the march's slopes is exact but for the march's own error
        _, prof = ball_p2
        g = prof.grid
        mid = 0.5 * (g[1:] + g[:-1])
        assert np.abs(evaluate(prof, mid) - 0.25 * (1.0 - mid * mid)).max() < 1e-12

    def test_evaluate_monotone_within_one_ulp(self, shot):
        # a ball march starts at rho0 = R * 1e-6 on its own series profile,
        # so the cubic on [0, rho0] stays below the central value
        prof = shot[2]
        g, sign = prof.grid, (1.0 if prof.mode == "barrier" else -1.0)
        ulp = np.spacing(np.abs(prof.w).max())
        if prof.mode == "ball":
            assert evaluate(prof, np.linspace(0.0, g[1], 65)).max() <= prof.w[0] + ulp
        inner = g[:-1] + np.outer([0.25, 0.5, 0.75], np.diff(g))
        rho = np.sort(np.concatenate([g, inner.ravel()]))
        assert (sign * np.diff(evaluate(prof, rho))).min() >= -ulp

    @staticmethod
    def assert_hermite_equal(prof):
        from scipy.interpolate import CubicHermiteSpline

        g = prof.grid
        between = np.concatenate([0.5 * (g[1:] + g[:-1]), g[:-1] + 0.3 * np.diff(g),
                                  g[1:] - 1e-3 * np.diff(g)])
        outside = np.array([g[0] - 1.0, g[0] - 1e-9, g[-1] + 1e-9, g[-1] + 2.0])
        interp = CubicHermiteSpline(g, prof.w, prof.w_prime)
        for rho in (g, g[[0, -1]], between, outside):
            ref = interp(np.clip(rho, g[0], g[-1]))
            assert np.array_equal(evaluate(prof, rho), ref)

    # the ids are kept; the reference is scipy's CubicHermiteSpline through (w, w')
    def test_evaluate_equals_pchip(self, shot):
        self.assert_hermite_equal(shot[2])

    # one barrier step is a two-point grid, interpolated by a single cubic
    @pytest.mark.parametrize("prob, n_steps", [(barrier(), 1), (ball(2.0), 1), (ball(2.0), 2)],
                             ids=["two_points", "three_points", "four_points"])
    def test_evaluate_equals_pchip_on_short_grids(self, prob, n_steps):
        self.assert_hermite_equal(integrate(prob, 0.3, n_steps=n_steps))


class TestHopf:
    def test_isotropic_margin(self, euclid, barrier_p2):
        _, prof = barrier_p2
        assert hopf_margin(prof, euclid) == pytest.approx(prof.shoot_slope, rel=1e-9)

    def test_anisotropic_margin(self, euclid, ellipsoidal, barrier_p2):
        _, prof = barrier_p2
        iso = hopf_margin(prof, euclid)
        aniso = hopf_margin(prof, h=ellipsoidal)
        # slowest dual-ball direction of diag(4, 1) has min |grad H_dual| = 1/2;
        # the margin samples 4096 offset angles, hence the loose tolerance
        assert aniso == pytest.approx(0.5 * iso, rel=2e-5)

    def test_nonpositive_margin_raises(self, euclid, barrier_p2):
        _, prof = barrier_p2
        flat = dataclasses.replace(prof, shoot_slope=0.0)
        with pytest.raises(NumericError, match="Hopf margin must be positive, got 0.000e"):
            hopf_margin(flat, euclid)

    def test_requires_barrier_mode(self, euclid, ball_p2):
        _, prof = ball_p2
        with pytest.raises(ValueError, match="barrier"):
            hopf_margin(prof, euclid)


class TestShootRoot:
    @pytest.mark.parametrize("prob, target", [(barrier(), 0.1), (ball(3.0), 0.0)],
                             ids=["barrier_p2", "ball_p3"])
    def test_few_marches_per_shot(self, prob, target):
        prof, marched = shoot_counted(prob, target)
        assert prof.marches == len(marched) <= 12
        assert prof.bracket == (1e-6, 1.0)

    def test_few_marches_shifted(self, shifted_ball):
        prof, marched = shifted_ball
        assert prof.marches == len(marched) <= 12

    def test_brent_equals_brentq_on_shooting_function(self, shot):
        # Brent is handed the bracket ends' values, so it tries only the
        # points after brentq's first two; the profile is the root's march
        prob, target, prof, marched = shot
        n_marches = len(marched)

        def miss(s):
            if s not in marched:
                marched[s] = radial._march(prob, s, radial.N_STEPS)
            ws, _ = marched[s]
            return min(math.inf if ws is None else float(ws[-1]), radial._W_CAP) - target

        (ref, ref_tried), (root, tried) = brent_pair(miss, *prof.bracket)
        assert root == ref
        assert tried == ref_tried
        assert len(marched) == n_marches  # nothing tried that shoot did not march
        expect = radial._profile(prob, root, *marched[root])
        assert np.array_equal(prof.w, expect.w)
        assert np.array_equal(prof.w_prime, expect.w_prime)

    # exp: interpolation, extrapolation and rejected-interpolation bisection;
    # tanh: interpolation and bisection where |f| fails to shrink; the ninth
    # power: every kind of step, and maxiter runs out before convergence
    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: math.exp(x) - 1e4, 0.0, 20.0),
        (lambda x: math.tanh(50.0 * (x - 0.1234)), -1.0, 3.0),
        (lambda x: (x - 1.0) ** 9, 0.0, 1.7)], ids=["exp", "tanh", "ninth_power"])
    def test_brent_equals_brentq_on_analytic_functions(self, f, lo, hi):
        (ref, ref_tried), (root, tried) = brent_pair(f, lo, hi)
        assert root == ref
        assert tried == ref_tried

    def test_brent_stops_at_maxiter_like_brentq(self):
        (ref, ref_tried), (root, tried) = brent_pair(lambda x: (x - 1.0) ** 9, 0.0, 1.7,
                                                     maxiter=5)
        assert root == ref and tried == ref_tried and len(tried) == 7

    def test_brent_returns_an_end_where_f_vanishes(self):
        def never(x):
            raise AssertionError("f was called")
        assert _brent(never, 0.5, 2.0, 0.0, 1.0, 1e-12, 1e-15) == 0.5
        assert _brent(never, 0.5, 2.0, -1.0, 0.0, 1e-12, 1e-15) == 2.0
        with pytest.raises(ValueError, match="signs"):
            _brent(never, 0.5, 2.0, 1.0, 2.0, 1e-12, 1e-15)

    def test_integrate_is_one_march(self):
        prof = integrate(barrier(), 0.3)
        assert prof.marches == 1 and prof.bracket is None

    # a coarse grid keeps the 83-march reference cheap; the root finder is
    # what is compared, not the discretisation
    def test_barrier_slope_matches_bisection(self):
        prob = barrier()
        ref = shoot_bisection(prob, 0.1, n_steps=512)
        prof = shoot(prob, 0.1, n_steps=512)
        assert prof.shoot_slope == pytest.approx(ref.shoot_slope, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_ball_center_matches_bisection(self, p):
        prob = ball(p)
        ref = shoot_bisection(prob, 0.0, n_steps=512)
        prof = shoot(prob, 0.0, n_steps=512)
        assert central_value(prof) == pytest.approx(central_value(ref), rel=1e-13)

    def test_diverged_trials_keep_the_root(self, barrier_p2, monkeypatch):
        # trials above the threshold diverge; the bracket top is one of them
        march = radial._march
        monkeypatch.setattr(radial, "_march", lambda prob, s, n: (
            (None, None) if s > 0.5 else march(prob, s, n)))
        prob, ref = barrier_p2
        prof = shoot(prob, 0.1)
        assert prof.bracket == (1e-6, 1.0)
        assert prof.shoot_slope == pytest.approx(ref.shoot_slope, rel=1e-13)


def keller_osserman_barrier():
    # g(s) = s^2 grows fast enough that steep boundary slopes blow up
    source = SourceTerm(f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                        g=lambda s: np.asarray(s, dtype=float) ** 2)
    return RadialProblem(material=MaterialProfile(p=2.0), source=source, radius=1.0,
                         mode="barrier")


@pytest.fixture(scope="module")
def keller_osserman_shot():
    return shoot_counted(keller_osserman_barrier(), 1e5)


class TestKellerOssermanBarrier:
    def test_large_target_hits_within_relative_tol(self, keller_osserman_shot):
        # the root is found to 4 ulp; at m = 1e5 that leaves w(end) off by
        # about 8e-10, so an absolute 1e-10 would reject a converged shot
        prof, _ = keller_osserman_shot
        assert abs(prof.w[-1] - 1e5) <= 1e-10 * 1e5

    def test_bracket_growth_moves_the_lower_end(self, keller_osserman_shot):
        # slopes 1, 4, 16 and 64 fall short of m = 1e5, so Brent starts from
        # the last of them, not from 1e-6 (21 marches with bracket (1e-6, 256))
        prof, marched = keller_osserman_shot
        assert prof.bracket == (64.0, 256.0)
        assert prof.marches == len(marched) == 19

    def test_steep_march_diverges(self):
        prob = keller_osserman_barrier()
        assert integrate(prob, 100.0).w[-1] == pytest.approx(306.346, rel=1e-5)
        with pytest.raises(NumericError, match="diverged"):
            integrate(prob, 1e3)


class TestShootFailure:
    def test_unreachable_target(self, euclid):
        prob = RadialProblem(material=MaterialProfile(p=2.0),
                             source=const_source(g=0.0), radius=1.0, mode="barrier")
        with pytest.raises(NumericError, match="w\\(end\\) < .* up to slope"):
            shoot(prob, target_m=1e9, tol=1e-10)

    def test_every_trial_diverges(self, monkeypatch):
        monkeypatch.setattr(radial, "_march", lambda prob, s, n: (None, None))
        with pytest.raises(NumericError, match="w\\(end\\) > .* down to slope"):
            shoot(barrier(), target_m=0.1)

    def test_miss_beyond_tol_raises(self):
        # the shot misses 0.1 by less than 1e-15, but not by 0
        prof = shoot(barrier(), target_m=0.1)
        assert 0.0 < abs(prof.w[-1] - 0.1) < 1e-15
        with pytest.raises(NumericError, match=r"missed the target by .* \(tol 1\.0e-30\)"):
            shoot(barrier(), target_m=0.1, tol=1e-30)

    def test_problem_validation(self, euclid, unit_source):
        with pytest.raises(ValueError):
            RadialProblem(material=MaterialProfile(p=2.0), source=unit_source,
                          radius=-1.0)
        with pytest.raises(ValueError):
            RadialProblem(material=MaterialProfile(p=2.0), source=unit_source,
                          radius=1.0, mode="cube")
        with pytest.raises(ValueError):
            RadialProblem(material=MaterialProfile(p=2.0), source=unit_source,
                          radius=1.0, n=1)
