"""End-to-end acceptance gate.

One test per shipped guarantee.  Each prints a single line

    criterion NN PASS|FAIL: <measured values>

so a captured run reads as a checklist; the asserts carry the same
tolerances as the printed lines.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from finslerpde import (DomainSpec, MaterialProfile, RadialProblem, build_domain,
                        check_flux_monotonicity, check_structural_bounds, lift,
                        sample_vectors, shoot, sobolev_scan, solve,
                        verify_duality_identities)
from finslerpde.cli import main


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def center_value(field):
    i = int(np.argmin(np.linalg.norm(field.mesh.vertices, axis=1)))
    return float(field.values[i])


def test_criterion_01_duality_identities(euclid, ellipsoidal, lp4):
    t0 = time.perf_counter()
    residual = max(verify_duality_identities(h, sample_vectors(2, 100, seed=1))
                   for h in (euclid, ellipsoidal, lp4))
    dt = time.perf_counter() - t0
    report(1, residual <= 1e-6 and dt < 1.0,
           f"max duality residual {residual:.3e} over 3 norms x 100 samples "
           f"in {dt:.2f}s")


def test_criterion_02_structural_bounds(euclid, ellipsoidal, lp4):
    t0 = time.perf_counter()
    c1_min, mono_min = math.inf, math.inf
    for h in (euclid, ellipsoidal, lp4):
        for p in (1.5, 2.0, 3.0, 4.0):
            for k in (0.0, 0.5):
                mat = MaterialProfile(p=p, k=k, kind="shifted" if k else "power")
                c1, _ = check_structural_bounds(mat, h, n_samples=10 ** 4, seed=0)
                mono = check_flux_monotonicity(mat, h, n_pairs=10 ** 4, seed=0)
                c1_min, mono_min = min(c1_min, c1), min(mono_min, mono)
    dt = time.perf_counter() - t0
    report(2, c1_min > 0.0 and mono_min > 0.0 and dt < 5.0,
           f"min C1_est {c1_min:.3e}, min C_monotone {mono_min:.3e} over "
           f"24 (norm, material) pairs in {dt:.2f}s")


def test_criterion_03_torsion_convergence(euclid, unit_source):
    t0 = time.perf_counter()
    errors, center = [], math.nan
    for h in (0.1, 0.05, 0.025):
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0), h)
        field, _ = solve(mesh, MaterialProfile(p=2.0), euclid, unit_source)
        exact = (1.0 - np.linalg.norm(mesh.vertices, axis=1) ** 2) / 4.0
        errors.append(float(np.abs(field.values - exact).max()))
        center = center_value(field)
    dt = time.perf_counter() - t0
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = (all(3.2 <= r <= 4.8 for r in ratios)
          and abs(center - 0.25) <= 2e-3 and dt < 60.0)
    report(3, ok,
           f"max-node errors {errors[0]:.2e}/{errors[1]:.2e}/{errors[2]:.2e}, "
           f"ratios {ratios[0]:.2f} and {ratios[1]:.2f}, u(0) = {center:.5f}, "
           f"{dt:.1f}s")


def test_criterion_04_anisotropic_consistency(ellipsoidal, unit_source):
    h = 0.05
    mesh = build_domain(DomainSpec(kind="wulff_ball", radius=1.0,
                                   norm=ellipsoidal), h)
    field, _ = solve(mesh, MaterialProfile(p=2.0), ellipsoidal, unit_source)
    prob = RadialProblem(material=MaterialProfile(p=2.0), source=unit_source,
                         radius=1.0, mode="ball")
    profile = shoot(prob, target_m=0.0)
    lifted = lift(ellipsoidal, np.zeros(2), profile, mesh)
    dev = float(np.abs(field.values - lifted.values).max())
    report(4, dev <= 5.0 * h ** 2,
           f"solver vs lifted radial profile deviates {dev:.3e} "
           f"(allowed {5.0 * h ** 2:.3e}) at h = {h}")


def test_criterion_05_degenerate_p3_center(euclid, unit_source):
    mesh = build_domain(DomainSpec(kind="disk", radius=1.0), 0.025)
    field, _ = solve(mesh, MaterialProfile(p=3.0), euclid, unit_source)
    center = center_value(field)
    report(5, abs(center - 0.4714) <= 5e-3,
           f"p = 3 central value {center:.5f} vs 0.4714 +- 5e-3")


def test_criterion_06_hopf_lemma(torsion_study, unit_source):
    rep = torsion_study.hopf
    h_fine = torsion_study.rows[-1]["h"]
    prob = RadialProblem(material=MaterialProfile(p=2.0),
                         source=unit_source, radius=1.0, mode="barrier")
    slope = shoot(prob, target_m=1.0).shoot_slope
    ok = (0.45 <= rep.min_normal_derivative <= 0.55
          and rep.comparison_violation >= -5.0 * h_fine ** 2
          and abs(slope - 1.0 / math.log(2.0)) <= 1e-6)
    report(6, ok,
           f"min normal derivative {rep.min_normal_derivative:.4f}, comparison "
           f"violation {rep.comparison_violation:.2e} (allowed "
           f"{-5.0 * h_fine ** 2:.2e}), barrier slope {slope:.9f} vs "
           f"{1.0 / math.log(2.0):.9f}")


def test_criterion_07_regularity_integrals(torsion_study):
    hess = [row["hessian_integral"] for row in torsion_study.rows]
    weight = [row["weight_integral"] for row in torsion_study.rows]
    hess_exact = math.pi / 2.0
    weight_exact = 4.0 * math.sqrt(2.0) * math.pi / 3.0
    drift_h = abs(hess[-1] - hess[-2]) / abs(hess[-1])
    drift_w = abs(weight[-1] - weight[-2]) / abs(weight[-1])
    ok = (abs(hess[-1] - hess_exact) <= 0.03 * hess_exact
          and abs(weight[-1] - weight_exact) <= 0.03 * weight_exact
          and drift_h <= 0.10 and drift_w <= 0.10)
    report(7, ok,
           f"hessian integral {hess[-1]:.4f} (pi/2 = {hess_exact:.4f}), weight "
           f"integral {weight[-1]:.4f} (4*sqrt(2)*pi/3 = {weight_exact:.4f}), "
           f"drifts {drift_h:.2%} and {drift_w:.2%}")


def test_criterion_08_critical_set(torsion_study):
    fracs = [row["critical_fraction"] for row in torsion_study.rows]
    ok = all(b < a for a, b in zip(fracs, fracs[1:])) and fracs[-1] < 0.01
    report(8, ok,
           "critical fractions " + " > ".join(f"{f:.5f}" for f in fracs)
           + f", finest {fracs[-1]:.3%}")


def test_criterion_09_sobolev_scan(p4_study):
    scans = [dict(sobolev_scan(f, (1.4, 1.6))) for f in p4_study.fields]
    drift = abs(scans[-1][1.4] - scans[-2][1.4]) / abs(scans[-1][1.4])
    report(9, drift <= 0.10,
           f"q = 1.4 integral {scans[-1][1.4]:.4f} (drift {drift:.2%}); "
           f"q = 1.6 recorded at {scans[-1][1.6]:.4f} "
           f"(coarser {scans[-2][1.6]:.4f}), not asserted")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "disk", "radius": 1.0},
        "material": {"p": 2.0},
        "source": {"f": {"kind": "constant", "value": 1.0}},
        "h": 0.2,
        "verify": {"levels": 2, "t": 0.5, "hopf": {"radius": 0.5, "m": 0.1}},
    }))
    outs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    for out in outs:
        assert main(["regularity", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(outs[0], "manifest.json")) as fh:
        names = [n for n in json.load(fh)["artifacts"] if n.endswith(".csv")]
    same = all((tmp_path / "run1" / n).read_bytes() == (tmp_path / "run2" / n).read_bytes()
               for n in names)
    report(10, same and len(names) >= 2,
           f"{len(names)} CSV artifacts byte-identical across two runs")
