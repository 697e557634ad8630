import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerpde import (AdmissibilityError, FinslerNorm, MaterialProfile, NumericError,
                        SourceTerm, check_flux_bound, check_flux_monotonicity,
                        check_osserman, check_structural_bounds, flux,
                        linearized_tensor, sample_vectors)
from finslerpde import material, radial
from finslerpde.finsler import _Draws
from finslerpde.material import _RADIUS_RANGE, G_ZERO_NEAR_0, OSSERMAN_CHECKED, UNCHECKED


def const_f(value=1.0):
    return lambda s: np.full_like(np.asarray(s, dtype=float), value)


class TestProfileValues:
    def test_power_p3_closed_forms(self):
        m = MaterialProfile(p=3.0)
        b, bp, bpp = m.b(2.0), m.b_prime(2.0), m.b_second(2.0)
        assert b == pytest.approx(8.0 / 3.0)
        assert bp == pytest.approx(4.0)
        assert bpp == pytest.approx(4.0)

    def test_power_p2_is_quadratic(self):
        m = MaterialProfile(p=2.0)
        t = np.linspace(0.0, 3.0, 7)
        assert np.allclose(m.b(t), 0.5 * t ** 2)
        assert np.allclose(m.b_prime(t), t)
        assert np.allclose(m.b_second(t), 1.0)

    def test_shifted_p3_closed_forms(self):
        m = MaterialProfile(p=3.0, k=0.5, kind="shifted")
        assert m.b_prime(1.0) == pytest.approx(1.5)
        assert m.b_second(1.0) == pytest.approx(2.5)
        # B(1) = int_0^1 (0.5 + t) t dt = 1/4 + 1/3
        assert m.b(1.0) == pytest.approx(0.25 + 1.0 / 3.0)

    def test_b_is_primitive_of_b_prime(self):
        for m in (MaterialProfile(p=1.5), MaterialProfile(p=4.0),
                  MaterialProfile(p=2.5, k=0.7, kind="shifted")):
            t = np.linspace(0.1, 2.0, 9)
            step = 1e-6
            fd = (m.b(t + step) - m.b(t - step)) / (2 * step)
            assert np.allclose(fd, m.b_prime(t), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @pytest.mark.parametrize("k", [0.05, 0.5, 1.0])
    def test_shifted_b_and_ell_match_closed_forms(self, p, k):
        # B and L = t B' - B against their closed forms at 60 digits; for
        # t << k the closed form of B is a difference of O(t) terms
        def exact(t):
            with localcontext() as ctx:
                ctx.prec = 60
                pd, kd, td = Decimal(p), Decimal(k), Decimal(t)
                b = (((kd + td) ** pd - kd ** pd) / pd
                     - kd * ((kd + td) ** (pd - 1) - kd ** (pd - 1)) / (pd - 1))
                return float(b), float(td * td * (kd + td) ** (pd - 2) - b)

        m = MaterialProfile(p=p, k=k, kind="shifted")
        t = np.geomspace(1e-12, 10.0, 97)
        ref = np.array([exact(x) for x in t])
        assert np.all(np.abs(m.b(t) - ref[:, 0]) <= 1e-12 * ref[:, 0])
        assert np.all(np.abs(m.ell(t) - ref[:, 1]) <= 1e-12 * ref[:, 1])
        assert m.b(float(t[0])) == pytest.approx(ref[0, 0], rel=1e-12)
        assert m.b(0.0) == m.ell(0.0) == 0.0

    def test_gamma_bounds_enclose_b_prime(self):
        for m in (MaterialProfile(p=1.5), MaterialProfile(p=3.0),
                  MaterialProfile(p=3.0, k=0.5, kind="shifted")):
            t = np.geomspace(1e-3, 1e2, 50)
            # gamma and Gamma of hypothesis (iii)
            gamma, big_gamma = min(1.0, m.p - 1.0), max(1.0, m.p - 1.0)
            lo = gamma * (m.k + t) ** (m.p - 2.0) * t
            hi = big_gamma * (m.k + t) ** (m.p - 2.0) * t
            bp = m.b_prime(t)
            assert np.all(bp >= lo - 1e-12) and np.all(bp <= hi + 1e-12)

    def test_singular_second_derivative_raises(self):
        m = MaterialProfile(p=1.5)
        with pytest.raises(ValueError):
            m.b_second(np.array([0.0, 1.0]))

    def test_validation_names_hypothesis_iii(self):
        with pytest.raises(AdmissibilityError, match=r"there exist p > 1"):
            MaterialProfile(p=1.0)
        with pytest.raises(AdmissibilityError):
            MaterialProfile(p=2.0, k=1.5, kind="shifted")
        with pytest.raises(ValueError):
            MaterialProfile(p=2.0, k=0.5, kind="power")

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1.1, 5.0), st.floats(0.0, 1.0), st.floats(1e-6, 1e3))
    def test_b_prime_inverse_roundtrip(self, p, k, y):
        kind = "power" if k == 0.0 else "shifted"
        m = MaterialProfile(p=p, k=k, kind=kind)
        t = radial._phi_inverse_scalar(m)(y)
        assert m.b_prime(t) == pytest.approx(y, rel=1e-8, abs=1e-12)

    def test_ell_is_nonnegative_and_increasing(self):
        m = MaterialProfile(p=3.0)
        s = np.linspace(0.0, 4.0, 30)
        vals = m.ell(s)
        assert np.all(vals >= -1e-15)
        assert np.all(np.diff(vals) >= 0.0)
        # L(s) = s B'(s) - B(s) = (1 - 1/p) s^p for the power profile
        assert np.allclose(vals, (1.0 - 1.0 / 3.0) * s ** 3.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_ell_inverse_power_closed_form(self, p):
        # relative accuracy must hold far below the bisection bracket top
        y = np.geomspace(1e-30, 1e2, 129)
        expect = (p * y / (p - 1.0)) ** (1.0 / p)
        got = MaterialProfile(p=p).ell_inverse(y)
        assert np.all(np.abs(got - expect) <= 1e-13 * expect)
        assert MaterialProfile(p=p).ell_inverse(0.0) == 0.0

    @pytest.mark.parametrize("p, k", [(1.5, 0.05), (1.5, 0.5), (3.0, 0.1), (3.0, 1.0)])
    def test_ell_inverse_shifted_roundtrip(self, p, k):
        # the bisection bracket [s/2, s] scales with the root, so the relative
        # accuracy holds far below the bracket's start at 1
        m = MaterialProfile(p=p, k=k, kind="shifted")
        y = np.geomspace(1e-30, 1e8, 153)
        assert np.all(np.abs(m.ell(m.ell_inverse(y)) - y) <= 1e-13 * y)
        assert m.ell_inverse(0.0) == 0.0
        zero, one = m.ell_inverse(np.array([0.0, 1.0]))
        assert zero == 0.0 and one > 0.0

    def test_ell_inverse_bracket_limit(self):
        # the bracket stops at s = 2^199, where L is about 2^298.5 / 3 = 1.8e89
        m = MaterialProfile(p=1.5, k=0.5, kind="shifted")
        with pytest.raises(NumericError, match="L inversion failed"):
            m.ell_inverse(np.array([1.0, 1e100]))


class TestStructuralBounds:
    def test_quadratic_euclidean_tensor_is_identity(self, euclid):
        c1, c2 = check_structural_bounds(MaterialProfile(p=2.0), euclid, n_samples=2000)
        assert c1 == pytest.approx(1.0, abs=1e-12)
        assert c2 == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_tensor_symmetry(self, ellipsoidal):
        xi = np.random.default_rng(0).standard_normal((50, 2))
        mats = linearized_tensor(MaterialProfile(p=3.0), ellipsoidal, xi)
        assert np.allclose(mats, np.transpose(mats, (0, 2, 1)))

    def test_flux_zero_at_origin(self, euclid):
        assert np.all(flux(MaterialProfile(p=1.5), euclid, np.zeros(2)) == 0.0)

    @pytest.mark.parametrize("norm", ["euclid", "ellipsoidal", "lp4"])
    def test_flux_mixed_zero_rows_match_row_by_row(self, norm, request):
        h = request.getfixturevalue(norm)
        m = MaterialProfile(p=3.0)
        xi = np.random.default_rng(1).standard_normal((9, 2))
        xi[[0, 4, 8]] = 0.0
        got = flux(m, h, xi)
        assert np.array_equal(got, np.array([flux(m, h, row) for row in xi]))
        assert np.all(got[[0, 4, 8]] == 0.0) and np.all(got[[1, 2, 3, 5, 6, 7]] != 0.0)

    def test_flux_bound_euclidean_p2(self, euclid):
        assert check_flux_bound(MaterialProfile(p=2.0), euclid,
                                n_samples=2000) == pytest.approx(1.0)

    def test_monotonicity_pinned_pair(self, euclid, monkeypatch):
        # the check draws x with the seed and y with the seed + 1
        pair = {0: np.array([[1.0, 0.0]]), 1: np.array([[-1.0, 0.0]])}
        monkeypatch.setattr(material, "sample_vectors", lambda dim, count, seed: pair[seed])
        c = check_flux_monotonicity(MaterialProfile(p=4.0), euclid)
        assert c == pytest.approx(0.25)

    def test_positive_constants_across_grid(self, euclid, ellipsoidal, lp4):
        for h in (euclid, ellipsoidal, lp4):
            for p in (1.5, 2.0, 3.0, 4.0):
                for k in (0.0, 0.5):
                    m = MaterialProfile(p=p, k=k,
                                        kind="power" if k == 0.0 else "shifted")
                    c1, _ = check_structural_bounds(m, h, n_samples=500)
                    cm = check_flux_monotonicity(m, h, n_pairs=500)
                    assert c1 > 0.0 and cm > 0.0


class TestSampling:
    def test_seed_fixes_the_vectors(self):
        first = sample_vectors(2, 256, seed=0)
        assert np.array_equal(first, sample_vectors(2, 256, seed=0))
        assert np.array_equal(first, sample_vectors(2, 256, seed=np.int64(0)))
        assert not np.array_equal(first, sample_vectors(2, 256, seed=1))

    def test_log_radii_spread_over_the_range(self):
        # log radii uniform on [ln 1e-4, ln 1e2], width w = 13.8: the mean of
        # 2048 has standard error w / sqrt(12 * 2048) = 0.088, so 0.5 is 5.7
        # of them; the standard deviation is w / sqrt(12)
        lo, hi = _RADIUS_RANGE
        radii = np.linalg.norm(sample_vectors(2, 2048, seed=0), axis=1)
        assert np.all((radii >= lo * (1.0 - 1e-12)) & (radii <= hi * (1.0 + 1e-12)))
        logs = np.log(radii)
        assert abs(logs.mean() - 0.5 * (math.log(lo) + math.log(hi))) <= 0.5
        assert logs.std() == pytest.approx(math.log(hi / lo) / math.sqrt(12.0), rel=0.05)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_directions_are_unit_and_centred(self, dim):
        # each component of a uniform direction has mean 0 and standard
        # error 1 / sqrt(1000 dim) <= 0.023 over 1000 vectors
        v = sample_vectors(dim, 1000, seed=3, r_range=(1.0, 1.0))
        assert v.shape == (1000, dim)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-15
        assert np.abs(v.mean(axis=0)).max() <= 0.1

    def test_draws_are_standard_uniforms_and_normals(self):
        # 4096 normals: standard errors 1/64 for the mean and sqrt(2)/64 for
        # the variance; an odd count takes half of the last Box-Muller pair
        draws = _Draws(0)
        u = draws.uniform(4096)
        assert np.all((u > 0.0) & (u <= 1.0))
        z = draws.normal((4096,))
        assert abs(z.mean()) <= 0.08 and abs(z.var() - 1.0) <= 0.12
        assert draws.normal((5, 3)).shape == (5, 3)


class TestOsserman:
    def test_zero_g_verdict(self):
        src = SourceTerm(f=const_f())
        assert check_osserman(src, MaterialProfile(p=2.0)) == G_ZERO_NEAR_0

    def test_strong_growth_is_checked(self):
        src = SourceTerm(f=const_f(), g=lambda s: np.asarray(s, dtype=float) ** 2)
        assert check_osserman(src, MaterialProfile(p=2.0)) == OSSERMAN_CHECKED

    def test_sqrt_growth_unchecked(self):
        src = SourceTerm(f=const_f(),
                         g=lambda s: np.sqrt(np.asarray(s, dtype=float)))
        assert check_osserman(src, MaterialProfile(p=2.0)) == UNCHECKED
