"""Command-line front end.

Commands share one JSON config schema (see config.DEFAULTS) and write
their artifacts plus a manifest.json into --out.  The manifest holds the
resolved config (after --set and --seed) with the sha256 of its canonical
JSON, the package, Python, numpy and scipy versions, the seed, the
admissibility verdicts, the artifact list and the wall time of each
stage; the hash and the versions are taken when the manifest is written,
after the command (see _provenance).  Exit status: 0 on success, 1 for
rejected input (single-line diagnostic; found before any compute, except
a Hopf ball that does not fit the solved domain, a FitError, which marks
the manifest ``rejected``), 2 for any other failure during compute
(numeric, shooting or meshing) with whatever partial artifacts were
produced retained and the manifest flagged ``numeric-failure``.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import platform
import re
import sys
import time

import numpy as np

from . import __version__
from .config import build_run, load_config, parse_overrides
from .errors import FitError, NonconvergenceError, NumericError
from .finsler import (_Draws, ellipticity_constant, ellipticity_verdict,
                      verify_duality_identities, wulff_boundary)
from .io import (canonical_json, config_sha256, write_field_csv, write_json,
                 write_profile_csv, write_study_csv, write_wulff_csv)
from .material import ADMISSIBILITY_SAMPLES, admissibility_report, check_source_signs
from .mesh import build_domain
from .radial import shoot
from .solver import solve
from .verify import refinement_study


def _cmd_solve(run, out, manifest):
    mesh = build_domain(run.domain, run.h)
    failure = None
    try:
        field, report = solve(mesh, run.material, run.norm, run.source, options=run.options)
    except NonconvergenceError as exc:
        failure, field, report = exc, exc.last_iterate, exc.report
    if field is not None:
        _emit(out, manifest, "field.csv", write_field_csv, field)
    if report is not None:
        manifest["seconds"]["solve"] = dict(report.seconds)
        _emit(out, manifest, "solve_report.json", write_json, report.to_dict())
    if failure is not None:
        raise failure


def _cmd_barrier(run, out, manifest):
    profile = shoot(run.radial, run.target)
    _emit(out, manifest, "profile.csv", write_profile_csv, profile)


def _cmd_wulff(run, out, manifest):
    shape = wulff_boundary(run.norm, **run.wulff)
    _emit(out, manifest, "wulff.csv", write_wulff_csv, shape)


def _cmd_verify(run, out, manifest):
    payload = dict(manifest["admissibility"])
    payload["duality_residual"] = verify_duality_identities(
        run.norm, samples=_Draws(run.options.seed).normal((100, run.norm.dim)))
    _emit(out, manifest, "admissibility.json", write_json, payload)


def _cmd_regularity(run, out, manifest):
    result = refinement_study(run.domain, run.material, run.norm, run.source,
                              h_coarsest=run.h, options=run.options, **run.study)
    _emit(out, manifest, "study.csv", write_study_csv, result.rows)
    _emit(out, manifest, "regularity_report.json", write_json,
          result.regularity.to_dict())
    if result.hopf is not None:
        _emit(out, manifest, "hopf_report.json", write_json, result.hopf.to_dict())
    _emit(out, manifest, "field.csv", write_field_csv, result.fields[-1])


def _scipy_version():
    """The installed scipy's version string, or None without scipy.

    It is read from the package's version.py, which scipy.__version__
    imports, without importing the package: no command loads scipy, whose
    import would cost a run 11-20 ms and 1.4 MB.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    with open(os.path.join(spec.submodule_search_locations[0], "version.py")) as fh:
        match = re.search(r"""^version = ['"]([^'"]+)['"]""", fh.read(), re.MULTILINE)
    return match and match.group(1)


def _provenance(cfg):
    """The manifest's config hash and library versions, taken when the
    manifest is written: hashlib is imported by config_sha256 after the
    command, so the resident memory it costs a process (it loads OpenSSL)
    comes after the run's peak."""
    return {"config_sha256": config_sha256(canonical_json(cfg)),
            "versions": {"finslerpde": __version__, "python": platform.python_version(),
                         "numpy": np.__version__, "scipy": _scipy_version()}}


def _emit(out, manifest, name, writer, payload):
    writer(os.path.join(out, name), payload)
    manifest["artifacts"].append(name)


_COMMANDS = {
    "solve": _cmd_solve,
    "barrier": _cmd_barrier,
    "wulff": _cmd_wulff,
    "verify": _cmd_verify,
    "regularity": _cmd_regularity,
}


def _parser():
    parser = argparse.ArgumentParser(
        prog="finslerpde",
        description="Anisotropic quasilinear solver and estimate checker")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry by dotted path (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the sampling seed (default: config value or 0)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        cfg = load_config(args.config, parse_overrides(args.set), args.seed)
        run = build_run(cfg, args.command)
        check_source_signs(run.source)
        admissibility = admissibility_report(run.material, run.norm, run.source,
                                             n_samples=ADMISSIBILITY_SAMPLES, seed=cfg["seed"])
        admissibility["ellipticity"] = ellipticity_constant(run.norm, seed=cfg["seed"])
        admissibility["ellipticity_verdict"] = ellipticity_verdict(run.norm)
    except (ValueError, OSError) as exc:  # ConfigError and AdmissibilityError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seconds = {"setup": time.perf_counter() - start}

    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": cfg,
        "seed": cfg["seed"],
        "admissibility": admissibility,
        "artifacts": [],
        "status": "ok",
        "seconds": seconds,
    }
    code = 0
    start = time.perf_counter()
    try:
        _COMMANDS[args.command](run, args.out, manifest)
    except (NumericError, ValueError) as exc:
        # a FitError is input only the run can judge (a Hopf ball that does not
        # fit the solved domain); any other failure here, meshing included, is numeric
        rejected = isinstance(exc, FitError)
        manifest["status"] = "rejected" if rejected else "numeric-failure"
        manifest["failure"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        code = 1 if rejected else 2
    seconds["command"] = time.perf_counter() - start
    manifest.update(_provenance(cfg))
    write_json(os.path.join(args.out, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
