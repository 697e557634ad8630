import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerpde import (FinslerNorm, NumericError, ellipticity_constant, ellipticity_verdict,
                        verify_duality_identities, wulff_boundary)

RNG = np.random.default_rng(7)


def is_convex(pts, tol=1e-9):
    """Cross products of consecutive edges of the closed polygon ``pts``
    keep one sign (up to tol)."""
    e = np.roll(pts, -1, axis=0) - pts
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    scale = np.abs(cross).max()
    return bool(np.all(cross >= -tol * max(scale, 1e-300)))


def nonzero_points(n=64, dim=2, seed=3):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim))
    return pts[np.linalg.norm(pts, axis=1) > 1e-3]


class TestEval:
    def test_euclidean_is_l2(self):
        h = FinslerNorm.euclidean(2)
        pts = nonzero_points()
        assert np.allclose(h.eval(pts), np.linalg.norm(pts, axis=1))

    def test_ellipsoidal_axis_values(self):
        h = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
        assert h.eval(np.array([1.0, 0.0])) == pytest.approx(2.0)
        assert h.eval(np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_lp_diagonal_value(self):
        h = FinslerNorm.lp(4.0, 2)
        assert h.eval(np.array([1.0, 1.0])) == pytest.approx(2.0 ** 0.25)

    def test_scalar_and_batch_agree(self):
        h = FinslerNorm.lp(3.0, 2)
        pts = nonzero_points(8)
        batch = h.eval(pts)
        singles = [h.eval(p) for p in pts]
        assert np.allclose(batch, singles)


class TestGradHess:
    def test_gradient_matches_finite_differences(self):
        for h in (FinslerNorm.euclidean(2),
                  FinslerNorm.ellipsoidal(np.array([[2.0, 0.5], [0.5, 1.0]])),
                  FinslerNorm.lp(4.0, 2)):
            pts = nonzero_points(16, seed=11)
            grads = h.grad(pts)
            step = 1e-6
            for d in range(2):
                e = np.zeros(2)
                e[d] = step
                fd = (h.eval(pts + e) - h.eval(pts - e)) / (2 * step)
                assert np.allclose(grads[:, d], fd, atol=1e-6)

    def test_euler_identity(self):
        h = FinslerNorm.lp(4.0, 2)
        pts = nonzero_points(32, seed=5)
        assert np.allclose(np.einsum("ij,ij->i", h.grad(pts), pts), h.eval(pts))

    def test_hessian_annihilates_the_ray(self):
        h = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
        pts = nonzero_points(16, seed=9)
        hess = h.hess(pts)
        assert np.allclose(np.einsum("ijk,ik->ij", hess, pts), 0.0, atol=1e-12)

    def test_grad_raises_at_origin(self):
        h = FinslerNorm.euclidean(2)
        with pytest.raises(ValueError):
            h.grad(np.zeros(2))
        with pytest.raises(ValueError):
            h.hess(np.zeros(2))


class TestDuality:
    def test_ellipsoidal_dual_axis(self):
        h = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
        assert h.dual.eval(np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_lp_dual_exponent(self):
        h = FinslerNorm.lp(4.0, 2)
        assert h.dual.exponent == pytest.approx(4.0 / 3.0)
        assert h.dual.eval(np.array([1.0, 1.0])) == pytest.approx(2.0 ** 0.75)

    def test_dual_norm_zero_is_zero(self):
        for h in (FinslerNorm.euclidean(2),
                  FinslerNorm.ellipsoidal(np.diag([4.0, 1.0])),
                  FinslerNorm.lp(4.0, 2)):
            assert h.dual.eval(np.zeros(2)) == 0.0

    def test_exchange_identities_closed_forms(self):
        pts = nonzero_points(100, seed=2)
        for h in (FinslerNorm.euclidean(2),
                  FinslerNorm.ellipsoidal(np.diag([4.0, 1.0])),
                  FinslerNorm.lp(4.0, 2)):
            assert verify_duality_identities(h, pts) <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.2, 6.0), st.integers(0, 2 ** 31 - 1))
    def test_lp_bidual_and_homogeneity(self, q, seed):
        h = FinslerNorm.lp(q, 2)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2)
        if np.linalg.norm(x) < 1e-3:
            return
        t = float(rng.uniform(0.1, 5.0))
        assert h.eval(t * x) == pytest.approx(t * h.eval(x), rel=1e-12)
        assert h.eval(-x) == pytest.approx(h.eval(x), rel=1e-12)
        assert h.dual.dual.eval(x) == pytest.approx(h.eval(x), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_ellipsoidal_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2, 2))
        h = FinslerNorm.ellipsoidal(m @ m.T + 0.2 * np.eye(2))
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert h.eval(x + y) <= h.eval(x) + h.eval(y) + 1e-12


class TestEllipticity:
    def test_euclidean_is_one(self):
        assert ellipticity_constant(FinslerNorm.euclidean(2)) == pytest.approx(1.0)

    def test_lp4_positive_but_nearly_degenerate(self):
        lam = ellipticity_constant(FinslerNorm.lp(4.0, 2))
        assert 0.0 < lam < 1e-3

    def test_dimension_three(self):
        lam = ellipticity_constant(FinslerNorm.euclidean(3), n_samples=512)
        assert lam == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("norm, low, high", [
        # on H = 1, <D2H v, v> = v . A v for v orthogonal to grad H: at least
        # the least eigenvalue 1, which the sampled minimum approaches
        (FinslerNorm.ellipsoidal(np.diag([4.0, 1.0, 2.0])), 1.0 - 1e-12, 1.05),
        (FinslerNorm.lp(4.0, 3), 0.0, 1e-2),
    ], ids=["ellipsoidal", "lp4"])
    def test_dimension_three_sampled_norms(self, norm, low, high):
        lam = ellipticity_constant(norm, n_samples=512)
        assert low < lam <= high
        assert ellipticity_constant(norm, n_samples=512) == lam
        assert ellipticity_constant(norm, n_samples=512, seed=1) != lam

    @pytest.mark.parametrize("norm, verdict", [
        (FinslerNorm.euclidean(2), "uniform"),
        (FinslerNorm.ellipsoidal(np.diag([4.0, 1.0])), "uniform"),
        (FinslerNorm.lp(2.0, 2), "uniform"),
        (FinslerNorm.lp(4.0, 2), "degenerate on the coordinate axes"),
        (FinslerNorm.lp(1.5, 2), "unbounded on the coordinate axes"),
    ], ids=["euclidean", "ellipsoidal", "lp2", "lp4", "lp1.5"])
    def test_verdict(self, norm, verdict):
        assert ellipticity_verdict(norm) == verdict

    @pytest.mark.parametrize("q, limit", [(4.0, 0.0), (1.5, np.inf)])
    def test_verdict_matches_the_hessian_on_the_axis(self, q, limit):
        # the tangential curvature at (1, eps) tends to 0 (q > 2) or inf (q < 2)
        h = FinslerNorm.lp(q, 2)
        curv = [h.hess(np.array([1.0, eps]))[1, 1] for eps in (1e-2, 1e-4, 1e-6)]
        assert np.all(np.diff(curv) < 0.0) if limit == 0.0 else np.all(np.diff(curv) > 0.0)


def _wulff_bisection(n, dirs, radius):
    """The bracket-then-bisect tracer that homogeneity replaced."""
    t_lo = np.zeros(len(dirs))
    t_hi = np.ones(len(dirs))
    for _ in range(200):
        low = n.eval(t_hi[:, None] * dirs) < radius
        if not np.any(low):
            break
        t_hi[low] *= 2.0
    for _ in range(100):
        mid = 0.5 * (t_lo + t_hi)
        inside = n.eval(mid[:, None] * dirs) < radius
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)
    return 0.5 * (t_lo + t_hi)[:, None] * dirs


class TestWulff:
    @pytest.mark.parametrize("norm", [FinslerNorm.lp(4.0, 2),
                                      FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))],
                             ids=["lp4", "ellipsoidal"])
    @pytest.mark.parametrize("side", ["H", "H_dual"])
    def test_matches_bisection_tracer(self, norm, side):
        center = np.array([0.3, -0.2])
        shape = wulff_boundary(norm, center=center, radius=2.5, n_samples=256,
                               norm_side=side)
        dirs = np.column_stack([np.cos(shape.thetas), np.sin(shape.thetas)])
        ref = _wulff_bisection(norm.dual if side == "H_dual" else norm, dirs, 2.5)
        offset = shape.boundary - center
        err = np.linalg.norm(offset - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() <= 1e-14

    def test_euclidean_circle(self):
        shape = wulff_boundary(FinslerNorm.euclidean(2), radius=1.0)
        assert np.allclose(np.linalg.norm(shape.boundary, axis=1), 1.0, atol=1e-10)
        assert is_convex(shape.boundary)

    def test_ellipsoidal_dual_ball_semiaxes(self):
        h = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
        shape = wulff_boundary(h, radius=1.0, norm_side="H_dual")
        x = shape.boundary
        assert np.allclose(x[:, 0] ** 2 / 4.0 + x[:, 1] ** 2, 1.0, atol=1e-9)
        assert is_convex(shape.boundary)

    def test_primal_ball_side(self):
        h = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))
        shape = wulff_boundary(h, radius=1.0, norm_side="H")
        assert np.allclose(h.eval(shape.boundary), 1.0, atol=1e-9)

    def test_center_offset_and_radius(self):
        shape = wulff_boundary(FinslerNorm.euclidean(2), center=(1.0, -2.0), radius=0.5)
        assert np.allclose(np.linalg.norm(shape.boundary - [1.0, -2.0], axis=1),
                           0.5, atol=1e-10)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            wulff_boundary(FinslerNorm.euclidean(2), norm_side="primal")
