import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from finslerpde import (DomainSpec, MaterialProfile, ScalarField, boundary_normal_derivative,
                        build_domain, critical_set_fraction, hopf_check, refinement_study,
                        sobolev_scan, solve, weight_integral, weighted_hessian_integral)
from finslerpde.io import write_json
from conftest import const_source


@pytest.fixture(scope="module")
def fine_torsion(torsion_study):
    return torsion_study.fields[-1]


class TestWeightedHessian:
    def test_torsion_hessian_mass(self, fine_torsion):
        # u = (1 - |x|^2)/4 has |D2u|^2 = 1/2, so the integral tends to pi/2
        val = weighted_hessian_integral(fine_torsion, MaterialProfile(p=2.0))
        assert val == pytest.approx(math.pi / 2.0, rel=0.03)

    def test_weighted_by_gradient_power(self, fine_torsion):
        # beta = 0.5 weight |x/2|^{-1/2} against 1/2 gives 4 sqrt(2) pi / 3... scaled
        val = weighted_hessian_integral(fine_torsion, MaterialProfile(p=2.0),
                                        beta=0.5)
        exact = 0.5 * 2.0 * math.pi * math.sqrt(2.0) * (2.0 / 3.0)
        assert val == pytest.approx(exact, rel=0.03)

    def test_parameter_validation(self, fine_torsion):
        mat = MaterialProfile(p=2.0)
        with pytest.raises(ValueError):
            weighted_hessian_integral(fine_torsion, mat, beta=1.0)
        with pytest.raises(ValueError):
            weighted_hessian_integral(fine_torsion, mat, beta=-0.1)


class TestWeightIntegral:
    def test_zeroth_power_is_area(self, fine_torsion):
        val = weight_integral(fine_torsion, MaterialProfile(p=2.0), t=0.0)
        assert val == pytest.approx(float(fine_torsion.mesh.areas.sum()), rel=1e-12)
        assert val == pytest.approx(math.pi, rel=1e-3)

    def test_half_power(self, fine_torsion):
        # int |x/2|^{-1/2} = 2 pi sqrt(2) int r^{1/2} = 4 sqrt(2) pi / 3
        val = weight_integral(fine_torsion, MaterialProfile(p=2.0), t=0.5)
        assert val == pytest.approx(4.0 * math.sqrt(2.0) * math.pi / 3.0, rel=0.03)

    def test_monotone_in_t(self, fine_torsion):
        mat = MaterialProfile(p=2.0)
        vals = [weight_integral(fine_torsion, mat, t=t)
                for t in (0.0, 0.25, 0.5, 0.75)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_t_range_enforced(self, fine_torsion):
        with pytest.raises(ValueError):
            weight_integral(fine_torsion, MaterialProfile(p=2.0), t=1.0)
        with pytest.raises(ValueError):
            weight_integral(fine_torsion, MaterialProfile(p=2.0), t=-0.5)


class TestCriticalSet:
    def test_affine_field_has_no_critical_cells(self, euclid):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        u = ScalarField(mesh, mesh.vertices[:, 0])
        assert critical_set_fraction(u, 1e-10) == 0.0

    def test_constant_field_is_all_critical(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        u = ScalarField(mesh, np.zeros(len(mesh.vertices)))
        assert critical_set_fraction(u, 1e-10) == pytest.approx(1.0)

    def test_shrinks_under_refinement(self, torsion_study):
        fracs = [row["critical_fraction"] for row in torsion_study.rows]
        assert all(b < a for a, b in zip(fracs, fracs[1:]))


class TestSobolev:
    def test_affine_field_integrates_to_zero(self):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        u = ScalarField(mesh, mesh.vertices[:, 0] + 2.0)
        out = dict(sobolev_scan(u, (1.4, 1.6)))
        assert set(out) == {1.4, 1.6}
        assert all(v == pytest.approx(0.0, abs=1e-18) for v in out.values())

    def test_torsion_second_derivative_mass(self, fine_torsion):
        # |D2u|_F = 1/sqrt 2 so the q-th power integrates to pi 2^{-q/2}
        out = dict(sobolev_scan(fine_torsion, (2.0,)))
        assert out[2.0] == pytest.approx(math.pi / 2.0, rel=0.03)

    def test_exponent_range(self, fine_torsion):
        with pytest.raises(ValueError):
            sobolev_scan(fine_torsion, (1.0,))
        with pytest.raises(ValueError):
            sobolev_scan(fine_torsion, (4.5,))


class TestHopf:
    def test_torsion_boundary_slope(self, torsion_study):
        rep = torsion_study.hopf
        # -du/dnu = |x|/2 = 1/2 on the unit circle
        assert rep.min_normal_derivative == pytest.approx(0.5, abs=0.05)
        assert rep.barrier_margin > 0.0

    def test_comparison_nonnegative_up_to_mesh_error(self, torsion_study):
        rep = torsion_study.hopf
        h_fine = torsion_study.rows[-1]["h"]
        assert rep.comparison_violation >= -5.0 * h_fine ** 2

    def test_positivity_chain(self, torsion_study):
        # the discrete Hopf slope should dominate the analytic barrier margin
        rep = torsion_study.hopf
        h_fine = torsion_study.rows[-1]["h"]
        assert rep.min_normal_derivative >= rep.barrier_margin - 5.0 * h_fine

    def test_barrier_field_is_its_own_barrier(self, euclid):
        from finslerpde import RadialProblem, lift, shoot
        prob = RadialProblem(material=MaterialProfile(p=2.0),
                             source=const_source(), radius=0.8, mode="barrier")
        prof = shoot(prob, target_m=0.1)
        mesh = build_domain(DomainSpec(kind="annulus_wulff", radius=0.8,
                                       norm=euclid), 0.05)
        u = lift(euclid.dual, np.zeros(2), prof, mesh)
        rep = hopf_check(u, euclid, MaterialProfile(p=2.0), const_source(),
                         radius=0.8, m=0.1)
        assert rep.comparison_violation == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def assert_contact_is_stable(euclid, size, boundary):
        # mirror vertices of the symmetric torsion field tie up to a
        # perturbation of its values of the given size, which moves the
        # boundary data too if ``boundary``
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        vals = 0.25 * (1.0 - (mesh.vertices ** 2).sum(axis=1))
        vals[mesh.boundary_vertices] = 0.0
        moves = np.ones(mesh.n_vertices) if boundary else mesh.interior_mask
        args = (euclid, MaterialProfile(p=2.0), const_source())
        base = hopf_check(ScalarField(mesh, vals), *args, radius=0.5, m=0.1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            moved = vals + size * rng.standard_normal(len(vals)) * moves
            rep = hopf_check(ScalarField(mesh, moved), *args, radius=0.5, m=0.1)
            assert rep.contact_vertex == base.contact_vertex
            assert rep.center == base.center

    def test_contact_vertex_is_stable_under_rounding(self, euclid):
        self.assert_contact_is_stable(euclid, 1e-14, boundary=True)

    def test_contact_vertex_is_stable_under_the_stopping_error(self, euclid):
        # 1e-9 of the field's maximum, 0.25: a solve stopped by its residual
        # test moves its interior values, and mirror slopes apart, about
        # this much relative; its boundary data stay exact
        self.assert_contact_is_stable(euclid, 2.5e-10, boundary=False)

    def test_without_zero_data_every_boundary_vertex_counts(self, euclid):
        # lifted by 1, the torsion field has no zero boundary data, so the
        # slopes of all boundary vertices count, as all count unlifted
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        vals = 0.25 * (1.0 - (mesh.vertices ** 2).sum(axis=1))
        vals[mesh.boundary_vertices] = 0.0
        args = (euclid, MaterialProfile(p=2.0), const_source())
        base = hopf_check(ScalarField(mesh, vals), *args, radius=0.5, m=0.1)
        lifted = hopf_check(ScalarField(mesh, vals + 1.0), *args, radius=0.5, m=0.1)
        slopes = boundary_normal_derivative(ScalarField(mesh, vals + 1.0),
                                            mesh.boundary_vertices)
        assert lifted.min_normal_derivative == slopes.min()
        assert lifted.min_normal_derivative == pytest.approx(base.min_normal_derivative,
                                                             rel=1e-12)
        assert lifted.contact_vertex == base.contact_vertex
        assert lifted.comparison_violation == pytest.approx(base.comparison_violation + 1.0)

    def test_ball_must_fit(self, euclid, torsion_study):
        u = torsion_study.fields[0]
        with pytest.raises(ValueError, match="fits"):
            hopf_check(u, euclid, MaterialProfile(p=2.0), const_source(),
                       radius=50.0, m=0.1)


class TestStudy:
    def test_row_fields(self, torsion_study):
        assert len(torsion_study.rows) == 3
        hs = [row["h"] for row in torsion_study.rows]
        assert hs[0] == pytest.approx(2.0 * hs[1], rel=1e-12)
        for row in torsion_study.rows:
            for key in ("h", "hessian_integral", "weight_integral",
                        "critical_fraction"):
                assert key in row

    def test_report_serializes(self, torsion_study, tmp_path):
        def written(report):
            write_json(tmp_path / "report.json", report)
            return json.loads((tmp_path / "report.json").read_text())
        d = written(torsion_study.regularity)
        assert d["t"] == 0.5
        assert "gamma" not in d and "per_refinement" not in d
        assert "hessian_integral_finest" in d and "hessian_integral_sup" not in d
        hd = written(torsion_study.hopf)
        assert "min_normal_derivative" in hd

    def test_finest_values_are_positive(self, torsion_study):
        reg, finest = torsion_study.regularity, torsion_study.rows[-1]
        assert reg.hessian_integral_finest == finest["hessian_integral"] > 0.0
        assert reg.weight_integral_finest == finest["weight_integral"] > 0.0

    def test_levels_are_returned_coarse_first(self, torsion_study, euclid, unit_source):
        # each level equals a solve of that level alone, whatever order the
        # study solves them in
        material = MaterialProfile(p=2.0)
        for i, h in enumerate((0.1, 0.05, 0.025)):
            field, report = solve(build_domain(DomainSpec(kind="disk", radius=1.0), h),
                                  material, euclid, unit_source)
            assert np.array_equal(torsion_study.fields[i].values, field.values)
            assert (dataclasses.replace(torsion_study.reports[i], seconds=None)
                    == dataclasses.replace(report, seconds=None))
            assert torsion_study.rows[i] == {
                "h": h, "hessian_integral": weighted_hessian_integral(field, material),
                "weight_integral": weight_integral(field, material, 0.5),
                "critical_fraction": critical_set_fraction(field, 0.5 * h)}

    # Traced peak of the torsion study (the study_disk_p2 benchmark config),
    # numpy 2.4: 8.1 MB, the finest level's solve, which runs first; 9.4 MB
    # when the coarse levels ran first and stayed alive through it.
    BOUND_MB = 9.0

    def test_study_traced_peak_stays_under_its_bound(self, euclid, unit_source):
        tracemalloc.start()
        try:
            refinement_study(DomainSpec(kind="disk", radius=1.0), MaterialProfile(p=2.0),
                             euclid, unit_source, h_coarsest=0.1, levels=3, t=0.5,
                             hopf=(0.5, 0.1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < self.BOUND_MB
