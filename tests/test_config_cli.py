import csv
import json
import logging
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy

from finslerpde import (ConfigError, DomainSpec, FinslerNorm, MaterialProfile, RadialProblem,
                        SourceTerm, build_domain, cli, shoot, solve)
from finslerpde.cli import main
from finslerpde.config import (build_material, build_norm, build_run, build_source,
                               load_config, parse_overrides)
from finslerpde import io, material, solver
from finslerpde.io import _write_rows, canonical_json, config_sha256, write_json


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def strict_json(path):
    """The JSON file's payload, parsed as strict JSON: NaN, Infinity and
    -Infinity raise."""
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_no_constant)


def write_config(path, body):
    path.write_text(json.dumps(body))
    return str(path)


BASE = {"domain": {"kind": "disk", "radius": 1.0},
        "material": {"p": 2.0},
        "source": {"f": {"kind": "constant", "value": 1.0}},
        "h": 0.3}


class TestConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", BASE))
        assert cfg["norm"]["kind"] == "euclidean"
        assert cfg["tol_solve"] == 1e-8
        assert cfg["seed"] == 0

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(BASE, solver="newton")
        with pytest.raises(ConfigError, match="solver"):
            load_config(write_config(tmp_path / "c.json", bad))

    def test_unknown_section_key(self, tmp_path):
        bad = dict(BASE, material={"p": 2.0, "pee": 3.0})
        with pytest.raises(ConfigError, match="pee"):
            load_config(write_config(tmp_path / "c.json", bad))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"h": 0.1,,}')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_tokens_are_rejected(self, tmp_path, token):
        path = tmp_path / "c.json"
        path.write_text('{"h": %s}' % token)
        with pytest.raises(ConfigError, match=f"c.json: {token} is not a JSON number"):
            load_config(str(path))
        with pytest.raises(ConfigError, match=f"override 'h={token}'"):
            parse_overrides([f"h={token}"])
        with pytest.raises(ConfigError, match=f"override 'verify.q_grid=\\[1.4, {token}\\]'"):
            parse_overrides([f"verify.q_grid=[1.4, {token}]"])

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_bytes(b'\xff{"h": 0.1}')
        with pytest.raises(ConfigError, match="c.json: 'utf-8' codec can't decode byte 0xff"):
            load_config(str(path))

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_readme_example_config_builds(self, tmp_path, command):
        with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
            readme = fh.read()
        example = readme.split("Example config", 1)[1].split("```json\n", 1)[1]
        path = tmp_path / "c.json"
        path.write_text(example.split("```", 1)[0])
        build_run(load_config(str(path)), command)

    def test_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", BASE),
                          overrides=parse_overrides(["material.p=3.5",
                                                     "domain.kind=disk"]))
        assert cfg["material"]["p"] == 3.5
        assert cfg["domain"]["kind"] == "disk"

    def test_source_spec_of_another_kind_replaces_the_default(self, tmp_path):
        # a power source keeps no "value" of the constant source it replaces,
        # and a kind set by --set drops the file's parameters of the old kind
        body = dict(BASE, source={"f": {"kind": "power"}})
        path = write_config(tmp_path / "c.json", body)
        assert load_config(path)["source"]["f"] == {"kind": "power"}
        cfg = load_config(path, overrides=parse_overrides(["source.f.kind=linear",
                                                           "source.f.scale=2"]))
        assert cfg["source"] == {"f": {"kind": "linear", "scale": 2}, "g": {"kind": "zero"}}

    def test_norm_of_another_kind_replaces_the_file_norm(self, tmp_path):
        # an lp norm's q does not survive a switch to the euclidean kind
        path = write_config(tmp_path / "c.json", dict(BASE, norm={"kind": "lp", "q": 4}))
        cfg = load_config(path, overrides=parse_overrides(["norm.kind=euclidean"]))
        assert cfg["norm"] == {"kind": "euclidean"}
        assert build_norm(cfg).kind == "euclidean"

    def test_norm_parameter_override_keeps_the_kind(self, tmp_path):
        path = write_config(tmp_path / "c.json", dict(BASE, norm={"kind": "lp", "q": 4}))
        cfg = load_config(path, overrides=parse_overrides(["norm.q=3"]))
        assert cfg["norm"] == {"kind": "lp", "q": 3}
        cfg = load_config(path, overrides=parse_overrides(["norm.kind=lp"]))
        assert cfg["norm"] == {"kind": "lp", "q": 4}

    def test_source_parameter_override_keeps_the_kind(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", {**BASE, "source": {}}),
                          overrides=parse_overrides(["source.f.value=2"]))
        assert cfg["source"]["f"] == {"kind": "constant", "value": 2}
        same_kind = dict(BASE, source={"f": {"kind": "constant"}})
        cfg = load_config(write_config(tmp_path / "d.json", same_kind))
        assert cfg["source"]["f"] == {"kind": "constant", "value": 1.0}

    def test_seed_override_wins(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json", BASE), seed=7)
        assert cfg["seed"] == 7

    def test_builders(self, tmp_path):
        body = dict(BASE, norm={"kind": "ellipsoidal", "a": [[4.0, 0.0], [0.0, 1.0]]},
                    material={"p": 3.0, "k": 0.5, "kind": "shifted"},
                    source={"f": {"kind": "power", "scale": 2.0, "exponent": 1.0},
                            "g": {"kind": "zero"}})
        cfg = load_config(write_config(tmp_path / "c.json", body))
        mat = build_material(cfg)
        assert mat.p == 3.0 and mat.k == 0.5
        norm = build_norm(cfg)
        assert norm.eval(np.array([[1.0, 0.0]]))[0] == pytest.approx(2.0)
        src = build_source(cfg)
        assert src.f_vals([3.0])[0] == pytest.approx(6.0)
        assert src.g_vals([3.0])[0] == 0.0

    def test_bad_source_kind(self, tmp_path):
        bad = dict(BASE, source={"f": {"kind": "sinusoid"}})
        with pytest.raises(ConfigError, match="sinusoid"):
            load_config(write_config(tmp_path / "c.json", bad))

    def test_gamma_key_rejected_by_name(self, tmp_path):
        bad = dict(BASE, verify={"gamma": 0.0})
        with pytest.raises(ConfigError, match="'gamma' in verify"):
            load_config(write_config(tmp_path / "c.json", bad))


NORM_3D = json.dumps({"kind": "ellipsoidal", "a": np.eye(3).tolist()})

# (command, --set override, text the one-line diagnostic must contain)
REJECTED_INPUTS = [
    ("solve", "domain.radius=-1", "domain: radius must be positive"),
    ("barrier", "radial.mode=bogus", "radial: mode"),
    ("wulff", "wulff.side=X", "wulff: norm_side"),
    ("regularity", "verify.gamma=0.5", "'gamma' in verify"),
    ("barrier", "radial.m=abc", "radial.m must be a number"),
    ("regularity", "verify.levels=0", "verify: levels must be at least 1"),
    ("regularity", "verify.levels=1.5", "verify.levels must be an integer"),
    ("wulff", "wulff.samples=0", "wulff: n_samples must be at least 1"),
    ("wulff", "wulff.samples=2.5", "wulff.samples must be an integer"),
    ("barrier", "radial.n=1", "radial: dimension n must be at least 2"),
    ("barrier", "radial.n=2.7", "radial.n must be an integer"),
    ("solve", "domain.center=[1]", "domain: center must have 2 coordinates"),
    ("solve", 'domain.center=["a", 1]', "domain.center[0] must be a number"),
    ("solve", 'domain={"kind": "rectangle", "center": [5, 5]}',
     "domain: a rectangle has its corner at the origin"),
    ("barrier", "radial.radius=abc", "radial.radius must be a number"),
    ("barrier", "radial.target=abc", "radial.target must be a number"),
    ("barrier", "radial.m=-1", "radial: barrier mode needs target_m > 0"),
    ("wulff", "wulff.radius=abc", "wulff.radius must be a number"),
    ("regularity", "verify.beta=abc", "verify.beta must be a number"),
    ("regularity", "verify.beta=1.5", "verify: beta must lie in [0, 1)"),
    ("regularity", "verify.t=abc", "verify.t must be a number"),
    ("regularity", "verify.t=5", "verify: t must lie in [0, p-1)"),
    ("regularity", 'verify.q_grid=[1.4, "x"]', "verify.q_grid[1] must be a number"),
    ("regularity", "verify.q_grid=[5]", "verify: q must lie in (1, 4]"),
    ("regularity", "verify.hopf.radius=abc", "verify.hopf.radius must be a number"),
    ("regularity", "verify.hopf.m=0", "verify: barrier mode needs target_m > 0"),
    ("regularity", "verify.hopf=5", "verify.hopf must be an object"),
    ("regularity", "material.p=1.5", "verify: t must lie in [0, p-1)"),
    ("solve", f"norm={NORM_3D}", "domain: a planar domain needs a planar norm"),
    ("wulff", f"norm={NORM_3D}", "wulff: boundary tracing is implemented for dim 2 only"),
    ("solve", "h=NaN", "override 'h=NaN': NaN is not a JSON number"),
    ("solve", "h=Infinity", "override 'h=Infinity': Infinity is not a JSON number"),
    ("solve", "h=-Infinity", "override 'h=-Infinity': -Infinity is not a JSON number"),
    ("solve", "norm.kind=ellipsoidal", "norm.a (SPD matrix) is required for ellipsoidal norms"),
    ("solve", "norm.kind=bogus", "norm.kind must be euclidean, ellipsoidal, or lp; got 'bogus'"),
    ("solve", 'source.g={"kind": "constant", "value": -2}',
     "hypothesis (viii) g is locally Lipschitz"),
    ("barrier", 'radial={"mode": "ball", "target": -1}', "radial: ball mode needs target_m >= 0"),
    ("solve", 'source.f={"kind": "power", "exponent": "x"}',
     "source.f.exponent must be a number, got 'x'"),
    ("solve", 'source.g={"kind": "constant", "value": "x"}',
     "source.g.value must be a number, got 'x'"),
    ("solve", 'source.f={"kind": "constant", "value": 2, "exponent": 3}',
     "unknown key(s) 'exponent' in source.f of kind constant; allowed: kind, value"),
    ("solve", 'source.g={"kind": "zero", "scale": 1}',
     "unknown key(s) 'scale' in source.g of kind zero; allowed: kind"),
    ("solve", "source.f=5", "source.f must be an object, got 5"),
    ("solve", 'norm={"kind": "euclidean", "q": 3, "a": [[1, 0], [0, 1]]}',
     "unknown key(s) 'a', 'q' in norm of kind euclidean; allowed: kind"),
    ("solve", 'norm={"kind": "lp", "q": 3, "a": [[1, 0], [0, 1]]}',
     "unknown key(s) 'a' in norm of kind lp; allowed: kind, q"),
    ("solve", 'norm={"kind": "ellipsoidal", "a": [[1, 0], [0, 1]], "q": 3}',
     "unknown key(s) 'q' in norm of kind ellipsoidal; allowed: a, kind"),
    ("solve", 'norm={"kind": "lp", "q": 1}', "norm: lp norm requires exponent q > 1"),
    ("solve", 'norm={"kind": "ellipsoidal", "a": [[1, 0, 0], [0, 1, 0]]}',
     "norm: matrix must be (2, 2)"),
    ("solve", 'norm={"kind": "ellipsoidal", "a": [[1, 0.5], [0, 1]]}',
     "norm: matrix must be symmetric"),
    ("solve", 'norm={"kind": "ellipsoidal", "a": [[1, 0], [0, -1]]}',
     "norm: matrix must be positive definite"),
    ("solve", "material.kind=bogus", "material: unknown profile kind 'bogus'"),
    ("solve", "domain.kind=bogus", "domain: domain kind must be one of ("),
    ("wulff", "wulff.radius=0", "wulff: radius must be positive"),
]


class TestCli:
    def run(self, tmp_path, command, body, extra=()):
        cfg = write_config(tmp_path / "config.json", body)
        out = str(tmp_path / "out")
        rc = main([command, "--config", cfg, "--out", out, *extra])
        return rc, out

    def read_manifest(self, out):
        with open(os.path.join(out, "manifest.json")) as fh:
            return json.load(fh)

    def test_solve_writes_artifacts(self, tmp_path):
        rc, out = self.run(tmp_path, "solve", BASE)
        assert rc == 0
        manifest = self.read_manifest(out)
        assert manifest["status"] == "ok"
        assert "field.csv" in manifest["artifacts"]
        assert "solve_report.json" in manifest["artifacts"]
        for name in manifest["artifacts"]:
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "field.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["x", "y", "u", "ux", "uy"]

    def test_manifest_records_stage_seconds(self, tmp_path):
        rc, out = self.run(tmp_path, "solve", BASE)
        assert rc == 0
        seconds = self.read_manifest(out)["seconds"]
        assert set(seconds) == {"setup", "command", "solve"}
        with open(os.path.join(out, "solve_report.json")) as fh:
            assert seconds["solve"] == json.load(fh)["seconds"]
        assert set(seconds["solve"]) == set(solver._STAGES)
        assert seconds["setup"] > 0.0 and seconds["command"] > 0.0
        assert sum(seconds["solve"].values()) <= seconds["command"]
        rc, out = self.run(tmp_path, "verify", BASE)
        assert rc == 0
        assert set(self.read_manifest(out)["seconds"]) == {"setup", "command"}

    def test_field_does_not_depend_on_blas_threads(self, tmp_path):
        # 17,161 vertices: the vectors are longer than the 10,000 entries from
        # which OpenBLAS splits a reduction among its threads
        cfg = write_config(tmp_path / "config.json", dict(BASE, h=0.025))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        fields = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"threads{threads}")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
            proc = subprocess.run([sys.executable, "-m", "finslerpde", "solve", "--config", cfg,
                                   "--out", out], env=env, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            with open(os.path.join(out, "field.csv"), "rb") as fh:
                fields.append(fh.read())
        assert fields[0] == fields[1]

    def test_manifest_hash_tracks_resolved_config(self, tmp_path):
        def manifest(name, body, *extra):
            cfg = write_config(tmp_path / f"{name}.json", body)
            out = str(tmp_path / name)
            assert main(["verify", "--config", cfg, "--out", out, *extra]) == 0
            return self.read_manifest(out)

        first = manifest("first", BASE)
        resolved = load_config(str(tmp_path / "first.json"))
        assert first["config"] == resolved
        assert first["config_sha256"] == config_sha256(canonical_json(resolved))
        assert set(first["versions"]) == {"finslerpde", "python", "numpy", "scipy"}
        assert first["versions"]["numpy"] == np.__version__
        assert manifest("repeat", BASE)["config_sha256"] == first["config_sha256"]
        # the same resolved config, from other file bytes, gets the same hash
        again = manifest("again", {**BASE, "h": 0.3, "seed": 0})
        assert again["config_sha256"] == first["config_sha256"]
        variants = [manifest("h", BASE, "--set", "h=0.25"),
                    manifest("p", BASE, "--set", "material.p=3"),
                    manifest("seed", BASE, "--seed", "4")]
        hashes = {first["config_sha256"]} | {m["config_sha256"] for m in variants}
        assert len(hashes) == 4
        assert variants[0]["config"]["h"] == 0.25

    def test_runs_import_numpy_only(self, tmp_path):
        # A fresh interpreter per run, since this one has imported all of
        # scipy already, and a run's manifest loads what the next run checks.
        # No command imports numpy.random: its import loads OpenSSL through
        # secrets, 6.2 MB resident.  No run loads scipy: the manifest reads
        # its version from the installed version.py.  hashlib (OpenSSL, for
        # the config hash) loads only once the command has returned, when
        # main writes the manifest, after the run's memory peak.
        # The annulus solve runs the periodic lattice of the multigrid
        # preconditioner, whose coarsest factor comes from numpy.linalg.
        # numpy.ma, which np.unique imports, costs a child 9-17 ms and 1.6 MB.
        script = textwrap.dedent("""
            import json, sys
            from finslerpde import cli
            lazy = ("numpy.ma", "numpy.random", "scipy")
            late = ("_hashlib",)

            def loaded(names):
                return sorted({m for m in names for name in sys.modules
                               if name == m or name.startswith(m + ".")})

            command, cfg, out = sys.argv[1:]
            handler, seen = cli._COMMANDS[command], {}

            def traced(*args):
                try:
                    return handler(*args)
                finally:
                    seen["handler"] = loaded(lazy + late)
            cli._COMMANDS[command] = traced
            code = cli.main([command, "--config", cfg, "--out", out])
            print(json.dumps([code, seen["handler"], loaded(lazy), loaded(late)]))
        """)
        cfg = write_config(tmp_path / "config.json", dict(BASE, h=0.2))
        annulus = write_config(tmp_path / "annulus.json", dict(
            BASE, h=0.1, domain={"kind": "annulus_wulff", "radius": 1.0},
            norm={"kind": "lp", "q": 4.0}, material={"p": 3.0}))
        study = write_config(tmp_path / "study.json", dict(
            BASE, h=0.2, verify={"levels": 2, "t": 0.5, "hopf": {"radius": 0.5, "m": 0.1}}))
        runs = [("solve", cfg, "solve"), ("solve", annulus, "annulus"), ("barrier", cfg, "barrier"),
                ("wulff", cfg, "wulff"), ("verify", cfg, "verify"),
                ("regularity", study, "regularity")]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        for command, config, out in runs:
            proc = subprocess.run([sys.executable, "-c", script, command, config,
                                   str(tmp_path / out)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            # exit code; loaded when the handler returned; lazy and late after main
            assert result == [0, [], [], ["_hashlib"]], out
            manifest = self.read_manifest(str(tmp_path / out))
            assert manifest["config_sha256"]
            assert manifest["versions"]["scipy"] == scipy.__version__
        with open(tmp_path / "annulus" / "solve_report.json") as fh:
            assert json.load(fh)["converged"]
        assert os.path.exists(tmp_path / "barrier" / "profile.csv")
        assert os.path.exists(tmp_path / "wulff" / "wulff.csv")
        assert os.path.exists(tmp_path / "regularity" / "hopf_report.json")

    def test_scipy_version_is_null_without_scipy(self, monkeypatch):
        assert cli._scipy_version() == scipy.__version__
        monkeypatch.setattr(cli.importlib.util, "find_spec", lambda name: None)
        assert cli._scipy_version() is None

    def test_runtime_depends_on_numpy_only(self):
        # no run imports scipy (above), so only the tests' extra lists it
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(path, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == ["numpy>=1.24"]
        assert "scipy>=1.12" in project["optional-dependencies"]["test"]

    def test_overflowing_source_prints_only_its_error(self, tmp_path, capsys):
        # warnings are errors here, so a numpy overflow warning fails the run
        extra = ("--set", "material.p=3", "--set", "source.f.value=1e140")
        rc, out = self.run(tmp_path, "solve", BASE, extra=extra)
        assert rc == 2
        assert self.read_manifest(out)["status"] == "numeric-failure"
        err = capsys.readouterr().err
        assert err == "error: the initial energy is not finite (residual inf)\n"

    def test_bad_config_exits_one(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "solve", dict(BASE, mystery=1))
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_inadmissible_source_exits_one(self, tmp_path, capsys):
        body = dict(BASE, source={"f": {"kind": "constant", "value": -1.0}})
        rc, _ = self.run(tmp_path, "solve", body)
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command, override, message", REJECTED_INPUTS)
    def test_rejected_input_exits_one_before_compute(self, tmp_path, capsys, monkeypatch,
                                                     command, override, message):
        def never(*args):
            raise AssertionError("the command handler started")
        monkeypatch.setattr(cli, "_COMMANDS", dict.fromkeys(cli._COMMANDS, never))
        rc, out = self.run(tmp_path, command, BASE, extra=("--set", override))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert not os.path.exists(os.path.join(out, "manifest.json"))

    @pytest.mark.parametrize("command", ["solve", "barrier", "wulff", "verify"])
    def test_sections_a_command_does_not_read_are_not_checked(self, tmp_path, command):
        # p = 1.5 is a valid material, though the default verify.t = 0.5 is not below p - 1
        rc, out = self.run(tmp_path, command, BASE, extra=("--set", "material.p=1.5"))
        assert rc == 0
        assert self.read_manifest(out)["status"] == "ok"

    def test_values_of_unread_sections_are_not_typed(self, tmp_path):
        extra = ("--set", 'radial.m="abc"', "--set", "wulff.samples=2.5",
                 "--set", 'verify.levels="x"')
        rc, out = self.run(tmp_path, "solve", BASE, extra=extra)
        assert rc == 0
        assert self.read_manifest(out)["status"] == "ok"

    def test_other_mid_run_value_error_is_a_numeric_failure(self, tmp_path, capsys,
                                                            monkeypatch):
        def degenerate(*args):
            raise ValueError("degenerate triangle")
        monkeypatch.setitem(cli._COMMANDS, "solve", degenerate)
        rc, out = self.run(tmp_path, "solve", BASE)
        assert rc == 2
        assert self.read_manifest(out)["status"] == "numeric-failure"
        assert "degenerate triangle" in capsys.readouterr().err

    def test_hopf_ball_too_large_is_rejected_mid_run(self, tmp_path, capsys):
        body = dict(BASE, verify={"levels": 1, "hopf": {"radius": 50.0, "m": 0.1}})
        rc, out = self.run(tmp_path, "regularity", body)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "smaller radius" in err
        manifest = self.read_manifest(out)
        assert manifest["status"] == "rejected"
        assert "smaller radius" in manifest["failure"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_file_exits_one(self, tmp_path, capsys, token):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASE)[:-1] + ', "tol_solve": %s}' % token)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: {token} is not a JSON number\n"
        assert not out.exists()

    # p = 1e6 overflows the tangent, whose zero diagonal makes the descent
    # direction infinite; q = 1e6 makes the first residual NaN.  Both make
    # the sampled constants non-finite, which is rejected input (the next
    # test); with that check off, Newton's own guards stop the run.
    @pytest.mark.parametrize("override, why", [
        (["material.p=1e6"], "the descent direction is not finite"),
        (["norm.kind=lp", "norm.q=1e6"], "the residual is not finite"),
    ], ids=["p", "q"])
    def test_non_finite_iterate_is_a_numeric_failure(self, tmp_path, capsys, monkeypatch,
                                                      override, why):
        monkeypatch.setattr(material, "_finite", lambda name, value, tag: value)
        extra = [arg for pair in override for arg in ("--set", pair)]
        with np.errstate(all="ignore"):
            rc, out = self.run(tmp_path, "solve", BASE, extra=extra)
        assert rc == 2
        manifest = self.read_manifest(out)
        assert manifest["status"] == "numeric-failure"
        assert manifest["failure"].startswith(f"{why} after 0 accepted steps")
        assert why in capsys.readouterr().err
        # the last finite iterate: here the quadratic start
        assert manifest["artifacts"] == ["field.csv", "solve_report.json"]
        u = np.loadtxt(os.path.join(out, "field.csv"), delimiter=",", skiprows=1)[:, 2]
        assert np.all(np.isfinite(u)) and u.max() > 0.0
        # every JSON file is strict: the NaN constants and residual are null
        assert manifest["admissibility"]["C1_est"] is None
        for name in ("manifest.json", "solve_report.json"):
            strict_json(os.path.join(out, name))
        if override[0].startswith("norm"):
            assert strict_json(os.path.join(out, "solve_report.json"))["final_residual"] is None

    # Newton's other guards: with the sampled-constant check off, p = 1e6
    # and f = 4 make B overflow at the start, whose slopes reach 2; a tangent
    # turned negative fails the V-cycle at its nonpositive diagonal, and the
    # descent direction -r / diag then climbs, so no direction is tried
    @pytest.mark.parametrize("override, negate, why", [
        (["material.p=1e6", "source.f.value=4"], False, "the initial energy is not finite"),
        (["material.p=3", "h=0.2"], True, "line search failed after 0 accepted steps"),
    ], ids=["energy", "climbing"])
    def test_newton_guards_are_numeric_failures(self, tmp_path, capsys, monkeypatch,
                                                override, negate, why):
        monkeypatch.setattr(material, "_finite", lambda name, value, tag: value)
        if negate:
            tensor = solver.linearized_tensor
            monkeypatch.setattr(solver, "linearized_tensor", lambda *args: -tensor(*args))
        extra = [arg for pair in override for arg in ("--set", pair)]
        with np.errstate(all="ignore"):
            rc, out = self.run(tmp_path, "solve", BASE, extra=extra)
        assert rc == 2
        manifest = self.read_manifest(out)
        assert manifest["status"] == "numeric-failure"
        assert manifest["failure"].startswith(why)
        assert why in capsys.readouterr().err
        assert manifest["artifacts"] == ["field.csv", "solve_report.json"]
        report = strict_json(os.path.join(out, "solve_report.json"))
        assert report["steps"] == [] and not report["converged"]

    @pytest.mark.parametrize("override", [["material.p=1e6"], ["norm.kind=lp", "norm.q=1e6"]],
                             ids=["p", "q"])
    def test_non_finite_sampled_constants_exit_one(self, tmp_path, override):
        # a fresh interpreter, so that stderr holds all the process writes,
        # numpy's floating-point warnings included
        cfg = write_config(tmp_path / "config.json", BASE)
        out = tmp_path / "out"
        extra = [arg for pair in override for arg in ("--set", pair)]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-m", "finslerpde", "solve", "--config", cfg,
                               "--out", str(out), *extra], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "sampled C1_est is nan" in proc.stderr
        assert not out.exists()

    def test_linear_source_equals_library_solve(self, tmp_path):
        body = dict(BASE, source={"f": {"kind": "linear", "scale": 0.5, "offset": 1}})
        rc, out = self.run(tmp_path, "solve", body)
        assert rc == 0
        mesh = build_domain(DomainSpec(kind="disk", radius=1.0, norm=FinslerNorm.euclidean(2)),
                            BASE["h"])
        field, _ = solve(mesh, MaterialProfile(p=2.0), FinslerNorm.euclidean(2),
                         SourceTerm(f=lambda s: 0.5 * s + 1))
        library = tmp_path / "library.csv"
        io.write_field_csv(str(library), field)
        with open(os.path.join(out, "field.csv"), "rb") as fh:
            assert fh.read() == library.read_bytes()

    def test_barrier_with_linear_g_equals_library_shot(self, tmp_path):
        body = dict(BASE, source={"f": {"kind": "constant", "value": 1.0},
                                  "g": {"kind": "linear", "scale": 0.2}},
                    radial={"mode": "barrier", "radius": 1.0, "m": 0.1})
        rc, out = self.run(tmp_path, "barrier", body)
        assert rc == 0
        source = SourceTerm(f=lambda s: np.ones_like(np.asarray(s, dtype=float)),
                            g=lambda s: 0.2 * s)
        profile = shoot(RadialProblem(MaterialProfile(p=2.0), source, radius=1.0), 0.1)
        io.write_profile_csv(str(tmp_path / "library.csv"), profile)
        with open(os.path.join(out, "profile.csv"), "rb") as fh:
            assert fh.read() == (tmp_path / "library.csv").read_bytes()

    def test_numeric_failure_exits_two_with_partial_artifacts(self, tmp_path):
        body = dict(BASE, material={"p": 4.0}, max_iter=1, h=0.2)
        rc, out = self.run(tmp_path, "solve", body)
        assert rc == 2
        manifest = self.read_manifest(out)
        assert manifest["status"] == "numeric-failure"
        assert "failure" in manifest
        assert "field.csv" in manifest["artifacts"]
        assert set(manifest["seconds"]) == {"setup", "command", "solve"}

    def test_barrier_command(self, tmp_path):
        body = dict(BASE, radial={"mode": "barrier", "radius": 1.0, "m": 0.1})
        rc, out = self.run(tmp_path, "barrier", body)
        assert rc == 0
        manifest = self.read_manifest(out)
        assert "profile.csv" in manifest["artifacts"]
        with open(os.path.join(out, "profile.csv")) as fh:
            rows = list(csv.DictReader(fh))
        w = np.array([float(r["w"]) for r in rows])
        assert w[0] == 0.0 and abs(w[-1] - 0.1) < 1e-9

    def test_wulff_command(self, tmp_path):
        body = dict(BASE, norm={"kind": "lp", "q": 4.0},
                    wulff={"radius": 2.0, "samples": 64})
        rc, out = self.run(tmp_path, "wulff", body)
        assert rc == 0
        with open(os.path.join(out, "wulff.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64

    def test_verify_command_reports_sampled_constants(self, tmp_path):
        rc, out = self.run(tmp_path, "verify", BASE, extra=("--seed", "3"))
        assert rc == 0
        manifest = self.read_manifest(out)
        assert manifest["seed"] == 3
        with open(os.path.join(out, "admissibility.json")) as fh:
            report = json.load(fh)
        assert report["duality_residual"] <= 1e-6
        assert report["ellipticity"] > 0.0
        assert report["ellipticity_verdict"] == "uniform"
        assert manifest["admissibility"]["ellipticity_verdict"] == "uniform"

    def test_regularity_command(self, tmp_path):
        body = dict(BASE, h=0.2,
                    verify={"levels": 2, "t": 0.5,
                            "hopf": {"radius": 0.5, "m": 0.1}})
        rc, out = self.run(tmp_path, "regularity", body)
        assert rc == 0
        manifest = self.read_manifest(out)
        for name in ("study.csv", "regularity_report.json", "hopf_report.json"):
            assert name in manifest["artifacts"]
        with open(os.path.join(out, "study.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["h"]) == pytest.approx(0.1)
        with open(os.path.join(out, "hopf_report.json")) as fh:
            hopf = json.load(fh)
        assert 3 <= hopf["marches"] <= 12
        lo, hi = hopf["bracket"]
        assert lo < hi

    def test_rectangle_study_logs_infinite_weights(self, tmp_path, caplog):
        # two corner triangles per level have all three vertices on the
        # boundary: their gradient is 0, so (k + |grad u|)^-t is infinite there
        body = dict(BASE, domain={"kind": "rectangle"}, material={"p": 3.0}, h=0.1,
                    verify={"levels": 2, "hopf": None})
        with caplog.at_level(logging.WARNING, logger="finslerpde.verify"):
            rc, out = self.run(tmp_path, "regularity", body)
        assert rc == 0
        logged = [r.args[:2] for r in caplog.records if r.name == "finslerpde.verify"]
        assert logged == [("weight integral", 2)] * 2
        with open(os.path.join(out, "study.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["weight_integral"]) for row in rows] == [np.inf] * 2

    def test_regularity_without_hopf_check(self, tmp_path):
        body = dict(BASE, h=0.2, verify={"levels": 2, "hopf": None})
        rc, out = self.run(tmp_path, "regularity", body)
        assert rc == 0
        assert sorted(os.listdir(out)) == ["field.csv", "manifest.json",
                                           "regularity_report.json", "study.csv"]
        assert self.read_manifest(out)["artifacts"] == ["study.csv", "regularity_report.json",
                                                        "field.csv"]


class TestIo:
    def test_write_json_is_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(str(a), {"z": 1, "a": [1.0, 2.0]})
        write_json(str(b), {"a": [1.0, 2.0], "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

    def test_write_json_writes_non_finite_floats_as_null(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(str(path), {"a": float("nan"), "b": [np.inf, (1.5, -np.inf)],
                               "c": {"d": np.float64("nan"), "e": 2.0}, "f": "NaN"})
        assert strict_json(path) == {"a": None, "b": [None, [1.5, None]],
                                     "c": {"d": None, "e": 2.0}, "f": "NaN"}

    def test_sha_is_of_raw_bytes(self):
        assert config_sha256(b"{}") == config_sha256(b"{}")
        assert config_sha256(b"{} ") != config_sha256(b"{}")

    def test_csv_rows_match_csv_writer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 2)  # five rows span three blocks
        header = ["a", "b", "c"]
        rows = np.array([[np.nan, np.inf, -np.inf],
                         [-0.0, 0.0, 1e300],
                         [5e-324, -5e-324, 0.1],
                         [1.0, -7.0, 2.0 ** 60],
                         [1.0 / 3.0, -2.5e-17, 123456789.0]])
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["%.17g" % float(v) for v in row])
        out = tmp_path / "out.csv"
        _write_rows(str(out), header, rows)
        assert out.read_bytes() == ref.read_bytes()
        # integer rows given as lists format like their float values
        _write_rows(str(out), header, [[1, -7, 2 ** 60]])
        assert out.read_bytes().splitlines()[1] == b"1,-7,1.152921504606847e+18"

    def test_block_format_equals_row_format(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io, "_BLOCK_ROWS", 7)  # 50 rows: seven full blocks and one row
        rng = np.random.default_rng(11)
        specials = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
                             2.2e-310, 1.0, 0.1])
        rows = np.where(rng.random((50, 5)) < 0.4, rng.choice(specials, (50, 5)),
                        rng.standard_normal((50, 5)) * 10.0 ** rng.integers(-20, 20, (50, 5)))
        line = ",".join(["%.17g"] * 5) + "\r\n"
        ref = "x,y,u,ux,uy\r\n" + "".join(line % tuple(row) for row in rows.tolist())
        out = tmp_path / "out.csv"
        _write_rows(str(out), ["x", "y", "u", "ux", "uy"], rows)
        assert out.read_bytes() == ref.encode()
