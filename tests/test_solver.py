import dataclasses
import functools
import logging
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from finslerpde import solver

from finslerpde import (AdmissibilityError, DomainSpec, FinslerNorm, MaterialProfile, Mesh2D,
                        NonconvergenceError, SolveOptions, SourceTerm, build_domain, solve)
from finslerpde.mesh import Lattice
from conftest import const_source


LP4 = FinslerNorm.lp(4.0, 2)
ELLIPSOIDAL = FinslerNorm.ellipsoidal(np.diag([4.0, 1.0]))


def center_value(field):
    i = int(np.argmin(np.linalg.norm(field.mesh.vertices, axis=1)))
    return float(field.values[i])


def level(mesh, material, norm, source, c1_est=1.0):
    """One level of a solve on the mesh: default options, a fresh stopwatch."""
    return solver._EnergyProblem(mesh, material, norm, source, SolveOptions(), c1_est,
                                 solver._Stopwatch())


class TestTorsion:
    def test_central_value(self, torsion_coarse):
        field, report = torsion_coarse
        assert center_value(field) == pytest.approx(0.25, abs=5e-3)
        assert report.converged

    def test_quadratic_case_needs_no_newton_steps(self, torsion_coarse):
        _, report = torsion_coarse
        assert report.init_cg_info == 0
        assert report.iterations == 0

    def test_energy_history_non_increasing(self, torsion_coarse, p4_study, lp4_p3_pair):
        for report in [torsion_coarse[1], lp4_p3_pair[0][1]] + p4_study.reports:
            hist = report.energy_history
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_discrete_positivity(self, torsion_coarse):
        _, report = torsion_coarse
        assert report.min_u >= -1e-10

    def test_residual_criterion(self, torsion_coarse):
        _, report = torsion_coarse
        assert report.final_residual <= 1e-8 * (1.0 + abs(report.energy_history[-1]))


class TestNonlinear:
    def test_p3_matches_radial_closed_form(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.05)
        field, report = solve(mesh, MaterialProfile(p=3.0), euclid, unit_source)
        exact = (2.0 / 3.0) * 2.0 ** -0.5
        assert center_value(field) == pytest.approx(exact, abs=2e-3)
        assert report.iterations > 0

    def test_singular_p(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.15)
        field, report = solve(mesh, MaterialProfile(p=1.5), euclid, unit_source)
        assert report.converged and report.min_u >= -1e-10

    def test_shifted_profile(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.15)
        field, report = solve(mesh, MaterialProfile(p=3.0, k=0.5, kind="shifted"),
                              euclid, unit_source)
        assert report.converged

    def test_anisotropic_torsion(self, ellipsoidal, unit_source):
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0,
                                       norm=ellipsoidal), 0.1)
        field, _ = solve(mesh, MaterialProfile(p=2.0), ellipsoidal, unit_source)
        d = ellipsoidal.dual.eval(mesh.vertices)
        exact = (1.0 - d ** 2) / 4.0
        assert np.abs(field.values - exact).max() < 5e-3

    def test_nonconstant_source(self, euclid):
        src = SourceTerm(f=lambda s: 1.0 + np.asarray(s, dtype=float))
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.15)
        field, report = solve(mesh, MaterialProfile(p=2.0), euclid, src)
        assert report.converged
        # f >= 1 implies u at least the torsion solution (comparison)
        assert center_value(field) > 0.24

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("bc", [-1.0, -3.0])
    def test_negative_boundary_data(self, euclid, p, bc):
        # f(s) = 1 + s is taken at max(s, 0), so f = 1 where u < 0, and u is
        # the p-torsion solution shifted by bc: bc + (p-1)/p 2^(-1/(p-1)) at the center
        src = SourceTerm(f=lambda s: 1.0 + np.asarray(s, dtype=float))
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.1)
        field, report = solve(mesh, MaterialProfile(p=p), euclid, src, bc=bc)
        assert report.converged
        exact = bc + (p - 1.0) / p * 0.5 ** (1.0 / (p - 1.0))
        assert abs(field.values.max() - exact) <= 5e-3


class TestFailureModes:
    def test_nonpositive_source_rejected(self, euclid):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        bad = SourceTerm(f=lambda s: -np.ones_like(np.asarray(s, dtype=float)))
        with pytest.raises(AdmissibilityError, match="positive"):
            solve(mesh, MaterialProfile(p=2.0), euclid, bad)

    def test_non_planar_norm_rejected(self, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        with pytest.raises(ValueError, match="needs a planar norm"):
            solve(mesh, MaterialProfile(p=2.0), FinslerNorm.euclidean(3), unit_source)

    def test_nonconvergence_carries_last_iterate(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        opts = SolveOptions(max_iter=1)
        with pytest.raises(NonconvergenceError) as err:
            solve(mesh, MaterialProfile(p=3.0), euclid, unit_source, options=opts)
        assert err.value.last_iterate is not None
        assert err.value.report is not None
        assert not err.value.report.converged

    def test_overflowing_trial_iterate_stops_the_step(self, euclid, unit_source, monkeypatch):
        # a finite iterate near the largest float and a finite Newton step
        # of the same size: the trial overflows before any energy is taken
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        problem = level(mesh, MaterialProfile(p=3.0), euclid, unit_source)
        big = 0.75 * np.finfo(float).max
        values = np.full(mesh.n_vertices, big)
        r = -np.ones(int(mesh.interior_mask.sum()))
        monkeypatch.setattr(solver, "_linear_solve",
                            lambda k_mat, rhs, rtol, watch: (np.full_like(rhs, big), 0, 1))
        energies = []
        monkeypatch.setattr(problem, "energy", energies.append)
        with np.errstate(all="ignore"):  # the tangent at this iterate is not finite
            assert solver._newton_step(problem, values, 0.0, r, 0.5) == (
                None, "a trial iterate is not finite")
        assert energies == []

    def test_mesh_without_grid_numbering_rejected(self, euclid, unit_source):
        # the same disk with its vertices numbered at random
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        perm = np.random.default_rng(0).permutation(mesh.n_vertices)
        new_id = np.argsort(perm)
        shuffled = Mesh2D(mesh.vertices[perm], new_id[mesh.triangles])
        with pytest.raises(ValueError, match="number the vertices along a grid"):
            solve(shuffled, MaterialProfile(p=2.0), euclid, unit_source)

    def test_mesh_without_interior_vertices(self, euclid, unit_source):
        # a 1 x 1 union-jack rectangle has an empty 0 x 0 lattice
        mesh = build_domain(DomainSpec(kind="rectangle", a=1.0, b=1.0), 1.5)
        assert mesh.lattice.rows * mesh.lattice.cols == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field, report = solve(mesh, MaterialProfile(p=3.0), euclid, unit_source, bc=0.5)
        assert report.converged and report.iterations == 0
        assert np.all(field.values == 0.5)

    def test_boundary_data_shapes(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        scalar, _ = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source, bc=0.1)
        assert scalar.values[mesh.boundary_vertices] == pytest.approx(0.1)
        per_vertex = np.full(len(mesh.boundary_vertices), 0.1)
        field, _ = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source, bc=per_vertex)
        assert np.array_equal(field.values, scalar.values)
        fun = lambda pts: pts[:, 0] * 0.0 + 0.2
        field, _ = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source, bc=fun)
        assert field.values[mesh.boundary_vertices] == pytest.approx(0.2)
        with pytest.raises(ValueError):
            solve(mesh, MaterialProfile(p=2.0), euclid, unit_source,
                  bc=np.ones(3))

    # the cell means of +-1.7e308 overflow, which the energy reports;
    # non-finite data are rejected input, in any form
    @pytest.mark.parametrize("bc, error, why", [
        (1.7e308, NonconvergenceError, "the initial energy is not finite"),
        (-1.7e308, NonconvergenceError, "the initial energy is not finite"),
        (np.inf, ValueError, "boundary data must be finite"),
        (np.nan, ValueError, "boundary data must be finite"),
        (lambda pts: pts[:, 0] / 0.0, ValueError, "boundary data must be finite"),
    ], ids=["huge", "-huge", "inf", "nan", "callable"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_extreme_boundary_data(self, euclid, unit_source, p, bc, error, why):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        with pytest.raises(error, match=why):
            solve(mesh, MaterialProfile(p=p), euclid, unit_source, bc=bc)

    def test_overflowing_start_norm_skips_cg(self, euclid, unit_source):
        # every entry of the p = 2 start's right-hand side is finite, but its
        # norm overflows: CG returns at once instead of at its iteration limit
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.3)
        with pytest.raises(NonconvergenceError, match="the initial energy is not finite") as err:
            solve(mesh, MaterialProfile(p=3.0), euclid, unit_source, bc=1e200)
        assert err.value.report.init_cg_iterations == 0
        assert err.value.report.init_cg_info == solver._RHS_NOT_FINITE != 0


def _rotated(matrix, angle):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ matrix @ rot.T


# constant tensors of the quadratic start, one with off-diagonal entries
LIFT_NORMS = [FinslerNorm.euclidean(2), FinslerNorm.ellipsoidal(np.diag([4.0, 1.0])),
              FinslerNorm.ellipsoidal(_rotated(np.diag([4.0, 1.0]), 0.5))]
LIFT_NORM_IDS = ["euclid", "diag41", "rotated41"]


def linear_data(x):
    return 0.1 + 0.05 * x[:, 0] - 0.02 * x[:, 1]


class TestInitialSolve:
    def test_initial_cg_failure_is_reported(self, euclid, unit_source, monkeypatch,
                                            caplog):
        cg_solve = solver._cg_solve
        calls = []

        def fail_first(k_mat, rhs, rtol, precondition):
            calls.append(rtol)
            x, info, iterations = cg_solve(k_mat, rhs, rtol, precondition)
            if len(calls) == 1:
                return np.zeros_like(rhs), 7, iterations
            return x, info, iterations

        monkeypatch.setattr(solver, "_cg_solve", fail_first)
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        with caplog.at_level(logging.WARNING, logger="finslerpde.solver"):
            field, report = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source)
        assert report.init_cg_info == 7
        assert any("p = 2 start failed" in r.getMessage() for r in caplog.records)
        # started from zero, so the quadratic case now needs Newton steps
        assert report.converged and report.iterations >= 1
        assert center_value(field) == pytest.approx(0.25, abs=2e-2)

    def test_quadratic_start_stops_at_the_newton_test(self, euclid, unit_source):
        # CG stops below tol_solve / 2, where Newton accepts the start: 16
        # iterations and a residual of 3.0e-9 at h = 0.025, against 27 and
        # 3.2e-14 to the relative 1e-12
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.025)
        _, report = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source)
        assert report.converged and report.iterations == 0
        assert report.init_cg_iterations <= 20
        assert 1e-12 < report.final_residual < SolveOptions().tol_solve

    def test_every_start_stops_at_the_newton_test(self, lp4, unit_source, monkeypatch):
        # lp q=4, p = 3: the start is not the answer, yet CG past tol_solve / 2
        # changes no Newton step: 15 start iterations against 24 to the
        # relative 1e-12, and the fields agree to rounding
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.1)
        args = (mesh, MaterialProfile(p=3.0), lp4, unit_source)
        field, report = solve(*args)
        start = solver._quadratic_start

        def exact_start(problem, values):
            guarded = problem.opts
            problem.opts = dataclasses.replace(guarded, tol_solve=0.0)
            try:
                return start(problem, values)
            finally:
                problem.opts = guarded

        monkeypatch.setattr(solver, "_quadratic_start", exact_start)
        exact_field, exact_report = solve(*args)
        assert report.start == exact_report.start == "quadratic"
        assert report.init_cg_iterations < exact_report.init_cg_iterations
        assert report.converged and report.iterations == exact_report.iterations
        deviation = np.abs(field.values - exact_field.values).max()
        assert deviation <= 1e-12 * np.abs(exact_field.values).max()

    @pytest.mark.parametrize("norm", LIFT_NORMS, ids=LIFT_NORM_IDS)
    @pytest.mark.parametrize("kind", ["disk", "rectangle"])
    def test_boundary_lift_reproduces_linear_data(self, kind, norm):
        # with f = 0 and a constant tensor, P1 reproduces linear boundary data
        mesh = build_domain(DomainSpec(kind=kind), 0.1)
        exact = linear_data(mesh.vertices)
        values = np.zeros(mesh.n_vertices)
        values[mesh.boundary_vertices] = exact[mesh.boundary_vertices]
        problem = level(mesh, MaterialProfile(p=2.0), norm, const_source(0.0))
        problem.opts = SolveOptions(tol_solve=1e-300)  # CG to the relative 1e-12
        init, info, _ = solver._quadratic_start(problem, values)
        assert info == 0
        interior = exact[mesh.interior_mask]
        assert np.abs(init - interior).max() <= 1e-12 * np.abs(interior).max()

    def test_rotated_quadratic_case_needs_no_newton_steps(self, unit_source):
        mesh = build_domain(DomainSpec(kind="disk"), 0.1)
        _, report = solve(mesh, MaterialProfile(p=2.0), LIFT_NORMS[2], unit_source,
                          bc=linear_data)
        assert report.converged and report.iterations == 0


def laplacian_stencil(rows, cols):
    """The 5-point Laplacian on a rows x cols lattice, as a stencil."""
    data = np.zeros((3, 3, rows, cols))
    data[1, 1] = 4.0
    data[0, 1, 1:], data[2, 1, :-1] = -1.0, -1.0
    data[1, 0, :, 1:], data[1, 2, :, :-1] = -1.0, -1.0
    return solver._Stencil(data, False)


def chain_stencil(n):
    """L L^T on a 1 x n lattice, L lower bidiagonal with 1 on its diagonal
    and 1e7 below it: positive definite and factored exactly, but the
    inverse factor's entries grow as 1e7^k and overflow from n = 46."""
    data = np.zeros((3, 3, 1, n))
    data[1, 1, 0] = 1e14 + 1.0
    data[1, 1, 0, 0] = 1.0
    data[1, 0, 0, 1:], data[1, 2, 0, :-1] = 1e7, 1e7
    return solver._Stencil(data, False)


def negative_diagonal():
    stencil = laplacian_stencil(13, 13)  # 169 unknowns: one level above the coarsest
    stencil.data[1, 1, 6, 6] = -1.0
    return stencil


# stencils whose V-cycle set-up fails, and the reason it gives
BAD_STENCILS = [(negative_diagonal, "a multigrid level has a nonpositive diagonal"),
                (lambda: chain_stencil(46), "the coarsest Cholesky factor is not finite")]


class TestMultigrid:
    def test_initial_solve_is_mesh_independent(self, euclid, unit_source):
        # Jacobi-CG took 81, 160 and 320 iterations here
        for h in (0.1, 0.05, 0.025):
            mesh = build_domain(DomainSpec(kind="disk", radius=1.0), h)
            _, report = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source)
            assert report.init_cg_info == 0
            assert 0 < report.init_cg_iterations <= 40

    def test_factor_failure_falls_back_to_descent(self, euclid, unit_source, monkeypatch,
                                                  caplog):
        def fail(_):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(solver.np.linalg, "cholesky", fail)
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        with caplog.at_level(logging.WARNING, logger="finslerpde.solver"):
            with pytest.raises(NonconvergenceError) as err:
                solve(mesh, MaterialProfile(p=3.0), euclid, unit_source,
                      options=SolveOptions(max_iter=3))
        report = err.value.report
        assert report.init_cg_info == solver._FACTOR_FAILED != 0
        assert [step["direction"] for step in report.steps] == ["descent"] * 3
        assert all(step["cg_info"] == solver._FACTOR_FAILED for step in report.steps)
        assert np.all(np.isfinite(err.value.last_iterate.values))
        messages = [r.getMessage() for r in caplog.records]
        assert any("multigrid set-up failed" in m for m in messages)
        assert any("p = 2 start failed" in m for m in messages)

    @pytest.mark.parametrize("stencil, why", BAD_STENCILS, ids=["diagonal", "factor"])
    def test_vcycle_rejection_falls_back_to_descent(self, euclid, unit_source, monkeypatch,
                                                    stencil, why):
        # without their defects the same stencils set up: two levels, and
        # a chain one point shorter
        assert len(solver._VCycle(laplacian_stencil(13, 13))._levels) == 2
        solver._VCycle(chain_stencil(45))
        with pytest.raises(np.linalg.LinAlgError, match=why):
            solver._VCycle(stencil())
        # every solve's V-cycle set-up meets the bad stencil
        vcycle = solver._VCycle
        monkeypatch.setattr(solver, "_VCycle", lambda k_mat: vcycle(stencil()))
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        with pytest.raises(NonconvergenceError, match="no convergence in 1 iterations") as err:
            solve(mesh, MaterialProfile(p=3.0), euclid, unit_source,
                  options=SolveOptions(max_iter=1))
        report = err.value.report
        assert report.init_cg_info == solver._FACTOR_FAILED
        assert [(step["direction"], step["cg_info"]) for step in report.steps] == [
            ("descent", solver._FACTOR_FAILED)]

    def test_mesh_with_a_wrong_lattice_rejected(self, euclid, unit_source):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        rows, cols, _ = mesh.lattice
        relabelled = Mesh2D(mesh.vertices, mesh.triangles, Lattice(cols * rows, 1))
        with pytest.raises(ValueError, match="number the vertices along a grid"):
            solve(relabelled, MaterialProfile(p=2.0), euclid, unit_source)

    def test_stage_seconds(self, lp4, unit_source):
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.1)
        start = time.perf_counter()
        _, report = solve(mesh, MaterialProfile(p=3.0), lp4, unit_source)
        wall = time.perf_counter() - start
        assert tuple(report.seconds) == solver._STAGES
        assert all(v >= 0.0 for v in report.seconds.values())
        assert report.seconds["tangent"] > 0.0 and report.seconds["linear_solve"] > 0.0
        assert sum(report.seconds.values()) <= wall


def forced_and_tight(*args):
    """solve(*args) with the forcing terms, and with every linear system
    solved to _CG_RTOL."""
    forced = solve(*args)
    cg_solve = solver._cg_solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_cg_solve", lambda k_mat, rhs, rtol, precondition:
                   cg_solve(k_mat, rhs, solver._CG_RTOL, precondition))
        tight = solve(*args)
    return forced, tight


def total_cg_iterations(report):
    return report.init_cg_iterations + sum(step["cg_iterations"] for step in report.steps)


@pytest.fixture(scope="module")
def lp4_p3_pair(lp4, unit_source):
    """Coarse lp q=4, p=3 Wulff ball, solved with the forcing terms and with
    every Newton system solved to _CG_RTOL."""
    mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.1)
    return forced_and_tight(mesh, MaterialProfile(p=3.0), lp4, unit_source)


# (norm fixture, p, k): the forcing grid, and the shifted p < 2 case on lp q=4
FORCING_GRID = [(norm, p, k) for norm in ("euclid", "ellipsoidal", "lp4")
                for p in (2.0, 3.0, 4.0) for k in (0.0, 0.5)] + [("lp4", 1.5, 0.5)]


class TestForcing:
    def test_forcing_terms_lie_in_range(self, lp4_p3_pair):
        (_, report), _ = lp4_p3_pair
        etas = [step["eta"] for step in report.steps]
        assert all(solver._CG_RTOL <= eta <= 0.5 for eta in etas)
        # no history: the first step is solved loosely
        assert etas[0] == 0.5

    def test_singular_corner_solves_exactly(self, lp4, unit_source):
        # p = 1.5, k = 0: solves held at eta = 0.5 stall this case at max_iter
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.1)
        _, report = solve(mesh, MaterialProfile(p=1.5), lp4, unit_source)
        assert report.converged
        assert all(step["eta"] == solver._CG_RTOL for step in report.steps)

    def test_quadratic_anisotropic_case_needs_no_steps(self, ellipsoidal, unit_source):
        # p = 2 with an ellipsoidal norm: the energy is quadratic in the values,
        # and the initial iterate solves that quadratic problem
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0,
                                       norm=ellipsoidal), 0.1)
        _, report = solve(mesh, MaterialProfile(p=2.0), ellipsoidal, unit_source)
        assert report.converged and report.init_cg_info == 0
        assert report.iterations == 0 and report.steps == []

    @pytest.mark.parametrize("norm, p, k", FORCING_GRID,
                             ids=[f"{n}-p{p}-k{k}" for n, p, k in FORCING_GRID])
    def test_grid_matches_tight_linear_solves(self, request, unit_source, norm, p, k):
        h = request.getfixturevalue(norm)
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=h), 0.1)
        material = MaterialProfile(p=p, k=k, kind="shifted" if k else "power")
        (field, report), (field_tight, report_tight) = forced_and_tight(
            mesh, material, h, unit_source)
        assert report.converged
        assert total_cg_iterations(report) <= total_cg_iterations(report_tight)
        assert np.abs(field.values - field_tight.values).max() <= 1e-8
        assert report.iterations <= report_tight.iterations + 1

    def test_step_records(self, lp4_p3_pair, torsion_coarse):
        (_, report), _ = lp4_p3_pair
        assert len(report.steps) == report.iterations > 0
        for step in report.steps:
            assert set(step) == {"residual", "eta", "cg_info", "cg_iterations", "direction",
                                 "alpha", "backtracks"}
            assert step["direction"] in ("newton", "descent")
            assert step["cg_iterations"] > 0
            assert 0.0 < step["alpha"] <= 1.0 and step["backtracks"] >= 0
        residuals = [step["residual"] for step in report.steps]
        assert report.final_residual < residuals[-1]
        assert torsion_coarse[1].steps == []

    def test_cg_iterations_count_the_products(self, lp4, unit_source, monkeypatch):
        # every CG iteration takes one matrix product and one V-cycle, and
        # nothing else in a solve takes either (the V-cycle smooths with apply)
        products, cycles = [], []
        matmul = solver._Stencil.__matmul__
        monkeypatch.setattr(solver._Stencil, "__matmul__",
                            lambda k, x: products.append(1) or matmul(k, x))
        cycle = solver._VCycle.__call__
        monkeypatch.setattr(solver._VCycle, "__call__",
                            lambda v, r: cycles.append(1) or cycle(v, r))
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.1)
        _, report = solve(mesh, MaterialProfile(p=3.0), lp4, unit_source)
        assert report.converged and report.init_cg_iterations > 0
        assert total_cg_iterations(report) == len(products) == len(cycles)

    def test_final_residual_meets_tolerance(self, lp4_p3_pair):
        (_, report), _ = lp4_p3_pair
        assert report.converged
        tol = SolveOptions().tol_solve
        assert report.final_residual <= tol * (1.0 + abs(report.energy_history[-1]))

    def test_matches_tight_linear_solves(self, lp4_p3_pair):
        (field, report), (field_tight, report_tight) = lp4_p3_pair
        assert np.abs(field.values - field_tight.values).max() <= 1e-8
        assert report.iterations <= report_tight.iterations


@pytest.fixture(scope="module")
def lp4_p3_fine(lp4, unit_source):
    """The lp q=4, p=3 Wulff ball at h=0.025, solved from the nested start
    and from the p = 2 start."""
    mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.025)
    args = (mesh, MaterialProfile(p=3.0), lp4, unit_source)
    nested = solve(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_NESTED_MIN", mesh.n_vertices)
        quadratic = solve(*args)
    return nested, quadratic


@pytest.fixture
def small_nested(monkeypatch):
    """Take the nested start on meshes of any size: on the h = 0.12 disk the
    27 x 27 lattice nests on a 13 x 13 one, which does not nest again."""
    monkeypatch.setattr(solver, "_NESTED_MIN", 1)
    return build_domain(DomainSpec(kind="disk", radius=1.0), 0.12)


class TestNestedStart:
    def test_fewer_fine_steps_and_the_same_field(self, lp4_p3_fine):
        (field, report), (field_q, report_q) = lp4_p3_fine
        assert report.converged and report_q.converged
        assert report.start == "nested" and report_q.start == "quadratic"
        assert report_q.coarse is None
        coarse = report.coarse
        assert coarse["lattice"] == [69, 69] and coarse["start"] == "quadratic"
        assert coarse["converged"] and coarse["coarse"] is None
        assert coarse["iterations"] > 0 and coarse["cg_iterations"] > 0
        assert 0.0 < coarse["seconds"] <= sum(report.seconds.values())
        # no initial linear solve on the fine level
        assert report.init_cg_info == 0 and report.init_cg_iterations == 0
        assert report.iterations <= 5 < report_q.iterations
        assert np.abs(field.values - field_q.values).max() <= 1e-7

    @pytest.mark.parametrize("norm", ["euclid", "ellipsoidal"])
    def test_quadratic_principal_part_keeps_the_p2_start(self, request, unit_source, norm):
        # the h = 0.03 disk nests on a 53 x 53 lattice, above _NESTED_MIN
        h = request.getfixturevalue(norm)
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.03)
        assert solver._nested_mesh(mesh).lattice == Lattice(53, 53)
        _, report = solve(mesh, MaterialProfile(p=2.0), h, unit_source)
        assert report.start == "quadratic" and report.coarse is None
        assert report.iterations == 0 and report.init_cg_iterations > 0

    def test_even_coarse_lattice_is_not_nested(self):
        # the h = 0.025 disk coarsens to a 64 x 64 lattice, without the centre
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.025)
        assert solver.coarsen(mesh).lattice == Lattice(64, 64)
        assert solver._nested_mesh(mesh) is None

    def test_boundary_data_carry_over(self, small_nested, euclid, unit_source):
        mesh = small_nested
        material = MaterialProfile(p=3.0)
        scalar, report = solve(mesh, material, euclid, unit_source, bc=0.1)
        assert report.start == "nested" and report.coarse["lattice"] == [13, 13]
        per_vertex = np.full(len(mesh.boundary_vertices), 0.1)
        field, _ = solve(mesh, material, euclid, unit_source, bc=per_vertex)
        assert np.array_equal(field.values, scalar.values)
        tilted = lambda pts: 0.1 + 0.05 * pts[:, 0]
        field, report = solve(mesh, material, euclid, unit_source, bc=tilted)
        assert report.converged and report.start == "nested"
        bvs = mesh.boundary_vertices
        assert np.array_equal(field.values[bvs], tilted(mesh.vertices[bvs]))

    def test_annulus_nests_around_its_angle(self, lp4, unit_source, monkeypatch):
        # the h = 0.07 annulus: 15 x 124 around the angle, coarsened to 7 x 62
        mesh = build_domain(DomainSpec(kind="annulus_wulff", radius=1.0, norm=lp4), 0.07)
        args = (mesh, MaterialProfile(p=3.0), lp4, unit_source)
        tilted = lambda pts: 0.1 + 0.05 * pts[:, 0]
        quadratic, q_report = solve(*args, bc=tilted)
        monkeypatch.setattr(solver, "_NESTED_MIN", 1)
        nested, report = solve(*args, bc=tilted)
        assert report.start == "nested" and report.coarse["lattice"] == [7, 62]
        assert report.converged and q_report.converged and q_report.start == "quadratic"
        assert np.abs(nested.values - quadratic.values).max() <= 1e-7

    def test_start_reproduces_linear_data(self, lp4):
        # with f = 0 a linear field is the discrete solution for any p and norm,
        # and linear interpolation on the rectangle's affine grid is exact, so
        # the start equals it when the coarse solve gets the fine boundary data
        mesh = build_domain(DomainSpec(kind="rectangle"), 0.12)
        linear = 0.3 + 0.2 * mesh.vertices[:, 0] - 0.1 * mesh.vertices[:, 1]
        values = np.where(mesh.interior_mask, 0.0, linear)
        problem = level(mesh, MaterialProfile(p=3.0), lp4, const_source(0.0))
        start, record = solver._nested_start(problem, solver.coarsen(mesh), values)
        assert record["lattice"] == [5, 5] and record["converged"]
        assert np.abs(start - linear[mesh.interior_mask]).max() <= 1e-12

    def test_refine_axis_is_exact_on_linear_data(self):
        line = 2.0 * np.arange(5.0) + 1.0
        assert np.array_equal(solver._refine_axis(line, False), np.arange(9.0) + 1.0)
        # periodic: the last fine point averages the last and first coarse ones
        wrapped = solver._refine_axis(np.array([[0.0, 2.0, 4.0, 2.0]]), True)
        assert np.array_equal(wrapped, [[0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 2.0, 1.0]])

    def test_coarse_failure_still_reports_on_the_fine_mesh(self, small_nested, euclid,
                                                           unit_source, caplog):
        mesh = small_nested
        with caplog.at_level(logging.WARNING, logger="finslerpde.solver"):
            with pytest.raises(NonconvergenceError) as err:
                solve(mesh, MaterialProfile(p=3.0), euclid, unit_source,
                      options=SolveOptions(max_iter=1))
        report = err.value.report
        assert err.value.last_iterate.mesh is mesh
        assert report.n_vertices == mesh.n_vertices and report.iterations == 1
        assert report.start == "nested"
        assert not report.coarse["converged"] and report.coarse["iterations"] == 1
        assert any("coarse solve failed" in r.getMessage() for r in caplog.records)

    def test_stage_seconds_include_the_coarse_solve(self, small_nested, euclid, unit_source):
        start = time.perf_counter()
        _, report = solve(small_nested, MaterialProfile(p=3.0), euclid, unit_source)
        wall = time.perf_counter() - start
        assert tuple(report.seconds) == solver._STAGES
        assert report.coarse["seconds"] <= sum(report.seconds.values()) <= wall


def _coo_stiffness(mesh, cell_tensors):
    """Reference build: the 4-operand einsum, then COO -> CSR and the interior slice."""
    ke = np.einsum("t,tad,tde,tbe->tab", mesh.areas, mesh.basis_grads,
                   cell_tensors, mesh.basis_grads)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_vertices
    k = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    interior = mesh.interior_mask
    return k[interior][:, interior]


def _spd_tensors(mesh):
    a = np.random.default_rng(5).standard_normal((mesh.n_triangles, 2, 2))
    return a @ np.transpose(a, (0, 2, 1)) + 0.1 * np.eye(2)


def _stencil_index(mesh, rows, cols):
    """Index into the stencil data of the interior entries (rows, cols)."""
    n_cols, periodic = mesh.lattice.cols, mesh.lattice.periodic
    ir, jr = np.divmod(rows, n_cols)
    ic, jc = np.divmod(cols, n_cols)
    dj = jc - jr
    if periodic:
        dj = (dj + 1) % n_cols - 1
    return ic - ir + 1, dj + 1, ir, jr


def _stiffness_pair(problem, cell_tensors):
    """The lattice-stencil stiffness and a CSR matrix with its entries on the
    pattern of the COO build."""
    mesh = problem.mesh
    k = problem.stiffness(solver._area_tensors(mesh, cell_tensors))
    pattern = _coo_stiffness(mesh, cell_tensors)
    pattern.sort_indices()
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    data = k.data[_stencil_index(mesh, rows, pattern.indices)]
    return k, sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _jacobi(k):
    inv_diag = 1.0 / k.diagonal()
    return lambda r: inv_diag * r


def _scipy_cg(csr, rhs, rtol, m=None):
    """(x, info, iterations) of scipy's cg, Jacobi-preconditioned unless a
    preconditioner is given."""
    if m is None:
        m = sp.diags(1.0 / csr.diagonal())
    iterations = []
    x, info = spla.cg(csr, rhs, rtol=rtol, atol=0.0, M=m, callback=iterations.append)
    return x, info, len(iterations)


def _relative_error(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def _interpolation(n, periodic):
    """Dense bilinear interpolation from n // 2 coarse points to n fine ones:
    coarse point I sits on fine point 2 I + 1 and gives half to each fine
    neighbour."""
    m = n // 2
    p = np.zeros((n, m))
    for i in range(m):
        for fine, weight in ((2 * i, 0.5), (2 * i + 1, 1.0), (2 * i + 2, 0.5)):
            if periodic:
                p[fine % n, i] += weight
            elif fine < n:
                p[fine, i] += weight
    return p


def _scipy_primitive(f, hi):
    """Reference table: scipy's cumulative Simpson rule and cubic Hermite spline."""
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import CubicHermiteSpline
    grid = np.linspace(0.0, hi, 8193)
    fv = f(grid)
    return CubicHermiteSpline(grid, cumulative_simpson(fv, x=grid, initial=0.0), fv)


def _whole_array_slots(mesh):
    """Reference stencil slots from (3, 3, T) neighbour differences."""
    lattice = mesh.lattice
    cols = lattice.cols
    n_int = lattice.rows * cols
    local = np.full(mesh.n_vertices, -1, dtype=np.int32)
    local[mesh.interior_mask] = np.arange(n_int, dtype=np.int32)
    tri = local[mesh.triangles].T
    row, col = np.divmod(tri, np.int32(max(cols, 1)))
    di = row[None, :, :] - row[:, None, :]
    dj = col[None, :, :] - col[:, None, :]
    if lattice.periodic:
        dj += 1
        dj %= cols
        dj -= 1
    inside = (tri[:, None, :] >= 0) & (tri[None, :, :] >= 0)
    assert not np.any(inside & ((np.abs(di) > 1) | (np.abs(dj) > 1)))
    di *= 3
    di += dj + 4
    slot = np.where(inside, di.astype(np.intp) * n_int + tri[:, None, :], 9 * n_int)
    return slot.ravel()


KERNEL_MESHES = [
    (DomainSpec(kind="disk", radius=1.0), 0.1),
    (DomainSpec(kind="rectangle", a=1.0, b=2.0), 0.1),
    (DomainSpec(kind="wulff_ball", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
    (DomainSpec(kind="annulus_wulff", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.1),
]
KERNEL_IDS = ["disk", "rectangle", "lp4_ball", "lp4_annulus"]

# name: (f, closed-form F = int_0^s f)
PRIMITIVES = {
    "constant": (lambda s: np.full_like(s, 2.0), lambda s: 2.0 * s),
    "linear": (lambda s: 0.5 * s + 1.0, lambda s: 0.25 * s ** 2 + s),
    "power_0.5": (lambda s: s ** 0.5, lambda s: s ** 1.5 / 1.5),
    "power_1": (lambda s: s ** 1.0, lambda s: s ** 2 / 2.0),
    "power_3": (lambda s: s ** 3.0, lambda s: s ** 4 / 4.0),
    "exp": (np.exp, lambda s: np.expm1(s)),
}


class TestStencilSlots:
    # the kernel meshes (the rectangle's 14 rows and the annulus's 86 columns
    # do not coarsen) and an annulus whose 176 columns coarsen to 88
    @pytest.mark.parametrize("case", KERNEL_MESHES + [
        (DomainSpec(kind="annulus_wulff", radius=1.0, norm=FinslerNorm.lp(4.0, 2)), 0.05)],
        ids=KERNEL_IDS + ["lp4_annulus-0.05"])
    def test_slots_equal_the_whole_array_build(self, case):
        mesh = build_domain(*case)
        coarse = solver.coarsen(mesh)
        for m in [mesh] if coarse is None else [mesh, coarse]:
            slot = solver._stencil_slots(m)
            assert slot.dtype == np.int32
            assert np.array_equal(slot, _whole_array_slots(m))

    def test_renumbered_vertices_are_rejected(self):
        # the same mesh with its vertices shuffled: the interior vertices, in
        # ascending order, no longer fill the lattice row by row
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.2)
        perm = np.random.default_rng(8).permutation(mesh.n_vertices)
        shuffled = Mesh2D(mesh.vertices[np.argsort(perm)], perm[mesh.triangles], mesh.lattice)
        assert np.array_equal(np.sort(shuffled.areas), np.sort(mesh.areas))
        with pytest.raises(ValueError, match="not lattice neighbours"):
            solver._stencil_slots(shuffled)


class TestKernels:
    @pytest.fixture(params=KERNEL_MESHES, ids=KERNEL_IDS)
    def problem(self, request, lp4, unit_source):
        dom, h = request.param
        return level(build_domain(dom, h), MaterialProfile(p=3.0), lp4, unit_source)

    def test_stiffness_matches_coo_build(self, problem):
        mesh = problem.mesh
        mats = _spd_tensors(mesh)
        ref = _coo_stiffness(mesh, mats)
        ref.sort_indices()
        k = problem.stiffness(solver._area_tensors(mesh, mats))
        rows = np.repeat(np.arange(ref.shape[0]), np.diff(ref.indptr))
        index = _stencil_index(mesh, rows, ref.indices)
        assert k.data.shape == (3, 3, mesh.lattice.rows, mesh.lattice.cols)
        assert all(np.all((i >= 0) & (i < n)) for i, n in zip(index, k.data.shape))
        assert np.abs(k.data[index] - ref.data).max() <= 1e-14 * np.abs(ref.data).max()
        outside = k.data.copy()
        outside[index] = 0.0
        assert not outside.any()

    @pytest.mark.parametrize("case, count", zip(KERNEL_MESHES, [9, 9, 9, 9]), ids=KERNEL_IDS)
    def test_diagonal_count(self, case, count):
        # a union-jack grid couples each vertex to its 8 lattice neighbours, so
        # every slot of the 3 x 3 stencil is used; the annulus seam wraps
        mesh = build_domain(*case)
        n_int = mesh.lattice.rows * mesh.lattice.cols
        slot = solver._stencil_slots(mesh)
        used = np.unique(slot[slot < 9 * n_int] // n_int)
        assert len(used) == count
        assert np.array_equal(used, 8 - used[::-1])

    def test_product_equals_csr(self, problem):
        # the stencil sums each row in (a, b) order, a sorted CSR row's order
        # except at the seam of a periodic lattice, where the sums are
        # reordered (measured at most 1.4e-16 relative on the annulus)
        k, csr = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        x = np.random.default_rng(3).standard_normal(csr.shape[0])
        ref = csr @ x
        if problem.mesh.lattice.periodic:
            assert _relative_error(k @ x, ref) <= 5e-16
        else:
            assert np.array_equal(k @ x, ref)
        assert np.array_equal(k.diagonal(), csr.diagonal())

    @pytest.mark.parametrize("rtol", [0.5, 1e-2, 1e-12])
    def test_cg_equals_scipy_cg(self, problem, rtol):
        # scipy's loop with its reductions summed without BLAS, so rounding
        # differs: measured equal iteration counts in 11 of 12 cases (the disk
        # at 1e-12 took 222 against 221), solutions within 1.7e-10 relative
        # (the disk at 1e-2)
        k, csr = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        rhs = np.random.default_rng(4).standard_normal(csr.shape[0])
        x, info, iterations = solver._cg_solve(k, rhs, rtol, _jacobi(k))
        ref_x, ref_info, ref_iterations = _scipy_cg(csr, rhs, rtol)
        assert info == ref_info == 0
        assert abs(iterations - ref_iterations) <= 1 and iterations > 0
        assert _relative_error(x, ref_x) <= 5e-10

    def test_cg_zero_rhs_returns_at_once(self, problem):
        k, csr = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        rhs = np.zeros(csr.shape[0])
        x, info, iterations = solver._cg_solve(k, rhs, 1e-12, _jacobi(k))
        ref_x, ref_info, ref_iterations = _scipy_cg(csr, rhs, 1e-12)
        assert (info, iterations) == (ref_info, ref_iterations) == (0, 0)
        assert np.array_equal(x, ref_x) and not x.any()

    def test_cg_exhausts_iterations_as_scipy_cg(self, problem):
        # symmetric indefinite element tensors: CG runs out of iterations on these
        a = np.random.default_rng(6).standard_normal((problem.mesh.n_triangles, 2, 2))
        k, csr = _stiffness_pair(problem, a + np.transpose(a, (0, 2, 1)))
        rhs = np.random.default_rng(7).standard_normal(csr.shape[0])
        x, info, iterations = solver._cg_solve(k, rhs, 1e-12, _jacobi(k))
        ref_x, ref_info, ref_iterations = _scipy_cg(csr, rhs, 1e-12)
        assert info == iterations == ref_info == ref_iterations == 10 * csr.shape[0]
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(ref_x))

    @pytest.mark.parametrize("rtol", [0.5, 1e-2, 1e-12])
    def test_vcycle_cg_equals_scipy_cg(self, problem, rtol):
        # the same loop as scipy's cg, given the V-cycle as its preconditioner
        # M; measured equal iteration counts and solutions within 1.01e-15
        # relative in all 12 cases
        k, csr = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        vcycle = solver._VCycle(k)
        assert len(vcycle._levels) > 1
        m = spla.LinearOperator(csr.shape, matvec=vcycle, dtype=float)
        rhs = np.random.default_rng(4).standard_normal(csr.shape[0])
        x, info, iterations = solver._cg_solve(k, rhs, rtol, vcycle)
        ref_x, ref_info, ref_iterations = _scipy_cg(csr, rhs, rtol, m)
        assert info == ref_info == 0
        assert iterations == ref_iterations > 0
        assert _relative_error(x, ref_x) <= 3e-15

    def test_galerkin_matches_dense(self, problem):
        # every coarse stencil is P^T A P of the level above, P bilinear along
        # the coarsened axes; the annulus coarsens its periodic columns while
        # their count is even
        k, csr = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        assert np.array_equal(solver._dense(k), csr.toarray())
        vcycle = solver._VCycle(k)
        for fine, coarse, axes in zip(vcycle._levels, vcycle._levels[1:], vcycle._axes):
            (rows, cols), periodic = fine.shape, fine.periodic
            p_rows = _interpolation(rows, False) if axes[0] else np.eye(rows)
            p_cols = _interpolation(cols, periodic) if axes[1] else np.eye(cols)
            p = np.kron(p_rows, p_cols)
            ref = p.T @ solver._dense(fine) @ p
            assert coarse.shape == (p_rows.shape[1], p_cols.shape[1])
            assert np.abs(solver._dense(coarse) - ref).max() <= 1e-14 * np.abs(ref).max()
        assert vcycle._levels[-1].shape[0] * vcycle._levels[-1].shape[1] <= solver._COARSEST

    def test_vcycle_is_symmetric_positive(self, problem):
        k, _ = _stiffness_pair(problem, _spd_tensors(problem.mesh))
        vcycle = solver._VCycle(k)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, y = rng.standard_normal((2, k.data[0, 0].size))
            vx, vy = vcycle(x), vcycle(y)
            assert abs(x @ vy - y @ vx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(vy)
            assert x @ vx > 0.0 and y @ vy > 0.0

    def test_add_at_assembly_equals_bincount(self, problem):
        # one add.at per (a, b) entry adds into each slot in the order of one
        # bincount over the flattened (3, 3, T) element matrices
        m = solver._area_tensors(problem.mesh, _spd_tensors(problem.mesh))
        mats = np.empty((3, 3, problem.mesh.n_triangles))
        for a, b, entry in solver._element_entries(problem.mesh.basis_grads, m):
            mats[a, b] = entry
        rows, cols, _ = problem.mesh.lattice
        size = 9 * rows * cols
        ref = np.bincount(problem._slot.astype(np.intp), weights=mats.ravel(),
                          minlength=size + 1)[:size]
        assert np.array_equal(problem.stiffness(m).data.ravel(), ref)

    def test_column_kernels_match_references(self, problem):
        # summed column by column in the order of the einsum and mean references
        mesh = problem.mesh
        values = np.sin(3.0 * mesh.vertices[:, 0]) * np.cos(2.0 * mesh.vertices[:, 1])
        gradients = np.einsum("tv,tvd->td", values[mesh.triangles], mesh.basis_grads)
        assert np.array_equal(solver.element_gradients(mesh, values), gradients)
        assert np.array_equal(problem.cell_means(values), values[mesh.triangles].mean(axis=1))

    def test_residual_scatter_matches_add_at(self, problem):
        mesh = problem.mesh
        values = np.sin(3.0 * mesh.vertices[:, 0]) * np.cos(2.0 * mesh.vertices[:, 1])
        cell_flux = solver.flux(problem.material, problem.norm,
                                solver.element_gradients(mesh, values))
        fbar = problem.source.f_vals(problem.cell_means(values))
        contrib = mesh.areas[:, None] * np.einsum("td,tvd->tv", cell_flux, mesh.basis_grads)
        contrib -= (mesh.areas * fbar / 3.0)[:, None]
        ref = np.zeros(mesh.n_vertices)
        np.add.at(ref, mesh.triangles.ravel(), contrib.ravel())
        assert np.array_equal(problem.residual(values), ref)

    @pytest.mark.parametrize("name", PRIMITIVES)
    def test_primitive_matches_closed_form(self, name):
        f, exact = PRIMITIVES[name]
        prim = solver._Primitive(f)
        rng = np.random.default_rng(11)
        # the second range regrows the table past its first top, s_hi = 1
        for top, hi in ((1.0, 1.0), (3.7, 7.4)):
            s = np.concatenate([rng.uniform(0.0, top, 4000), [0.0, top]])
            got = prim(s)
            assert prim._hi == hi
            scale = np.maximum(1.0, np.abs(exact(s)))
            err = np.abs(got - exact(s)) / scale
            err_scipy = np.abs(_scipy_primitive(f, hi)(s) - exact(s)) / scale
            if err_scipy.max() <= 1e-12:
                assert err.max() <= 1e-12
            else:
                assert err.max() <= err_scipy.max()
        neg = -rng.uniform(0.0, 0.1, 100)
        assert np.array_equal(prim(neg), neg * f(np.zeros(1))[0])


BLOCK_MESHES = [KERNEL_MESHES[0], KERNEL_MESHES[2], KERNEL_MESHES[3]]
BLOCK_IDS = ["disk", "lp4_ball", "lp4_annulus"]
# f grows with s, so the primitive's table regrows, and its interpolant of
# the quartic F is not exact
GROWING_SOURCE = SourceTerm(f=lambda s: 1.0 + np.asarray(s, dtype=float) ** 3)


def _kernel_outputs(mesh, material, norm, values):
    """Energy, residual, tangent stencil data and the report's critical
    count of one fresh level (its primitive table not yet grown)."""
    problem = level(mesh, material, norm, GROWING_SOURCE, c1_est=0.5)
    return (problem.energy(values), problem.residual(values),
            problem.tangent(values).data, problem.critical_count(values))


class TestBlocks:
    @pytest.mark.parametrize("material", [MaterialProfile(p=3.0),
                                          MaterialProfile(p=1.5, k=0.5, kind="shifted")],
                             ids=["power_p3", "shifted_p1.5"])
    @pytest.mark.parametrize("case", BLOCK_MESHES, ids=BLOCK_IDS)
    def test_small_blocks_equal_one_block(self, case, material, lp4, monkeypatch):
        mesh = build_domain(*case)
        # a ramp along the vertex numbering, which follows a grid: the cell
        # means of the first blocks stay below the table's first top, 1, and
        # later ones pass it in steps; clipped at 3, where the flat triangles
        # are critical
        values = np.minimum(4.0 * np.arange(mesh.n_vertices) / mesh.n_vertices, 3.0)
        monkeypatch.setattr(solver, "_BLOCK", mesh.n_triangles)
        whole = _kernel_outputs(mesh, material, lp4, values)
        assert 0 < whole[3] < mesh.n_triangles
        monkeypatch.setattr(solver, "_BLOCK", 7)
        blocked = _kernel_outputs(mesh, material, lp4, values)
        for one, many in zip(whole, blocked):
            assert np.array_equal(one, many)

    @pytest.mark.parametrize("norm, p", [("lp4", 3.0), ("euclid", 2.0), ("ellipsoidal", 3.0)])
    def test_solve_does_not_depend_on_the_block_size(self, request, monkeypatch, norm, p):
        h = request.getfixturevalue(norm)
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=h), 0.1)
        runs = []
        for block in (solver._BLOCK, 7):
            monkeypatch.setattr(solver, "_BLOCK", block)
            field, report = solve(mesh, MaterialProfile(p=p), h, GROWING_SOURCE)
            record = dataclasses.replace(report, seconds=None)
            runs.append((field.values, record))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class TestWorkingSet:
    # Traced peak of the lp q=4, p = 3 ball solve at h = 0.025 (the
    # solve_lp4_p3 benchmark workload), numpy 2.4: 7.2 MB for the first solve
    # in a process, 6.5 MB after; with whole-mesh per-triangle temporaries,
    # two tangents alive and intp slots, 14.2 and 13.5 MB.
    BOUND_MB = 8.5

    def test_solve_traced_peak_stays_under_its_bound(self, lp4, unit_source):
        mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), 0.025)
        tracemalloc.start()
        try:
            solve(mesh, MaterialProfile(p=3.0), lp4, unit_source)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < self.BOUND_MB


MIRRORS = {"swap": np.array([[0.0, 1.0], [1.0, 0.0]]),   # x <-> y
           "flip": np.array([[-1.0, 0.0], [0.0, 1.0]])}  # x -> -x


def _mirror_permutation(mesh, mirror):
    """perm with mesh.vertices[perm] the mirrored vertices, checked to map
    the mesh's triangles onto its triangles."""
    from scipy.spatial import cKDTree
    dist, perm = cKDTree(mesh.vertices).query(mesh.vertices @ mirror.T)
    assert dist.max() <= 1e-12 and np.array_equal(np.sort(perm), np.arange(mesh.n_vertices))

    def rows(tris):
        tris = np.sort(tris, axis=1)
        return tris[np.lexsort(tris.T[::-1])]

    assert np.array_equal(rows(perm[mesh.triangles]), rows(mesh.triangles))
    return perm


class TestMirrorSymmetry:
    # Largest |u(mirrored x) - u(x)| / max |u| over the grid below, measured
    # at h = 0.05: 1.55e-9 = 0.155 tol_solve (disk, p = 3, flip), 7.2e-10
    # (disk, p = 2, flip: the start stops at the Newton test), otherwise 6e-15
    # or less.  Bound: 0.5 tol_solve.
    BOUND = 0.5 * SolveOptions().tol_solve

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("domain", ["disk", "lp4_ball"])
    def test_solution_is_mirror_invariant(self, lp4, euclid, unit_source, domain, p):
        if domain == "disk":
            spec, norm = DomainSpec(kind="disk", radius=1.0), euclid
        else:
            spec, norm = DomainSpec(kind="wulff_ball", radius=1.0, norm=lp4), lp4
        mesh = build_domain(spec, 0.05)
        field, report = solve(mesh, MaterialProfile(p=p), norm, unit_source)
        assert report.converged
        for mirror in MIRRORS.values():
            perm = _mirror_permutation(mesh, mirror)
            deviation = np.abs(field.values[perm] - field.values).max()
            assert deviation <= self.BOUND * np.abs(field.values).max()


# Domains of the exact relations below: (domain of size lam, norm, h at lam = 1)
RELATION_DOMAINS = {
    "disk": (lambda lam: DomainSpec(kind="disk", radius=lam), FinslerNorm.euclidean(2), 0.05),
    "lp4_ball": (lambda lam: DomainSpec(kind="wulff_ball", radius=lam, norm=LP4), LP4, 0.05),
    "ellipsoidal": (lambda lam: DomainSpec(kind="wulff_ball", radius=lam, norm=ELLIPSOIDAL),
                    ELLIPSOIDAL, 0.1),
    "rectangle": (lambda lam: DomainSpec(kind="rectangle", a=lam, b=lam),
                  FinslerNorm.euclidean(2), 0.05),
    "lp4_annulus": (lambda lam: DomainSpec(kind="annulus_wulff", radius=lam, norm=LP4), LP4,
                    0.05),
}


def _relation_solve(name, p, lam=1.0, f=1.0):
    """(mesh, nodal values) of B(t) = t^p / p with constant f on the
    domain scaled by lam, meshed at lam h."""
    spec, norm, h = RELATION_DOMAINS[name]
    mesh = build_domain(spec(lam), lam * h)
    field, report = solve(mesh, MaterialProfile(p=p), norm, const_source(f))
    assert report.converged
    return mesh, field.values


@pytest.fixture(scope="class")
def relation_solve():
    """_relation_solve, each case solved once while the class runs."""
    return functools.lru_cache(maxsize=None)(_relation_solve)


def relative_deviation(values, ref):
    return np.abs(values - ref).max() / np.abs(ref).max()


class TestExactRelations:
    """Exact invariances of the discrete problem with k = 0, constant f and
    zero boundary data, off the radial grid.  Write a = p / (p - 1).

    - Scaling: lam Omega meshed at lam h is the same template with its
      vertices times lam, and its minimiser is u_lam(lam x) = lam^a u(x).
    - Amplitude: f -> c f gives u -> c^(1 / (p - 1)) u.
    - Mirrors that map the mesh onto itself leave u unchanged.

    The deviations come from Newton's stopping test, not from rounding.
    Largest measured, relative to max |u| (tol_solve = 1e-8): scaling
    4.79e-7 (lp q=4 annulus, p = 3, lam = 0.5; 7.0e-8 on the rectangle),
    amplitude 3.29e-8 (annulus, p = 3, c = 8), mirrors 1.23e-8 (annulus,
    p = 2, swap; 4.4e-15 or less on the rectangle and the ellipsoidal
    ball).  Vertices of the scaled meshes agree to 1.8e-15 lam.
    """

    SCALING_BOUND = 100 * SolveOptions().tol_solve
    AMPLITUDE_BOUND = 10 * SolveOptions().tol_solve
    MIRROR_BOUND = 3 * SolveOptions().tol_solve

    @pytest.mark.parametrize("lam", [0.5, 3.0])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(RELATION_DOMAINS))
    def test_scaled_domain_scales_the_solution(self, relation_solve, name, p, lam):
        mesh, u = relation_solve(name, p)
        scaled, u_lam = relation_solve(name, p, lam)
        assert np.array_equal(scaled.triangles, mesh.triangles)
        assert np.abs(scaled.vertices - lam * mesh.vertices).max() <= 1e-14 * lam
        ref = lam ** (p / (p - 1.0)) * u
        assert relative_deviation(u_lam, ref) <= self.SCALING_BOUND

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(RELATION_DOMAINS))
    def test_amplified_source_scales_the_solution(self, relation_solve, name, p):
        _, u = relation_solve(name, p)
        _, u_8 = relation_solve(name, p, f=8.0)
        assert relative_deviation(u_8, 8.0 ** (1.0 / (p - 1.0)) * u) <= self.AMPLITUDE_BOUND

    # the mirrors that map these meshes onto themselves: the rectangle's
    # x -> -x and the ellipsoidal ball's swap do not
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("name, mirror", [("rectangle", "swap"), ("ellipsoidal", "flip"),
                                              ("lp4_annulus", "swap"), ("lp4_annulus", "flip")])
    def test_solution_is_mirror_invariant(self, relation_solve, name, mirror, p):
        mesh, u = relation_solve(name, p)
        perm = _mirror_permutation(mesh, MIRRORS[mirror])
        assert relative_deviation(u[perm], u) <= self.MIRROR_BOUND
