import csv
import json
import os

import numpy as np
import pytest

from finslerpde import ConfigError
from finslerpde.cli import main
from finslerpde.config import (build_material, build_norm, build_source,
                               load_config, parse_overrides)
from finslerpde import io
from finslerpde.io import _write_rows, config_sha256, write_json


def write_config(path, body):
    path.write_text(json.dumps(body))
    return str(path)


BASE = {"domain": {"kind": "disk", "radius": 1.0},
        "material": {"p": 2.0},
        "source": {"f": {"kind": "constant", "value": 1.0}},
        "h": 0.3}


class TestConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg, raw = load_config(write_config(tmp_path / "c.json", BASE))
        assert cfg["norm"]["kind"] == "euclidean"
        assert cfg["tol_solve"] == 1e-8
        assert cfg["seed"] == 0
        assert isinstance(raw, bytes)

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

    def test_overrides(self, tmp_path):
        cfg, _ = load_config(write_config(tmp_path / "c.json", BASE),
                             overrides=parse_overrides(["material.p=3.5",
                                                        "domain.kind=disk"]))
        assert cfg["material"]["p"] == 3.5
        assert cfg["domain"]["kind"] == "disk"

    def test_seed_override_wins(self, tmp_path):
        cfg, _ = load_config(write_config(tmp_path / "c.json", BASE), seed=7)
        assert cfg["seed"] == 7

    def test_builders(self, tmp_path):
        body = dict(BASE, norm={"kind": "ellipsoidal", "a": [[4.0, 0.0], [0.0, 1.0]]},
                    material={"p": 3.0, "k": 0.5, "kind": "shifted"},
                    source={"f": {"kind": "power", "scale": 2.0, "exponent": 1.0},
                            "g": {"kind": "zero"}})
        cfg, _ = load_config(write_config(tmp_path / "c.json", body))
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

    def test_manifest_hash_tracks_config_bytes(self, tmp_path):
        rc, out = self.run(tmp_path, "solve", BASE)
        raw = (tmp_path / "config.json").read_bytes()
        assert self.read_manifest(out)["config_sha256"] == config_sha256(raw)

    def test_bad_config_exits_one(self, tmp_path, capsys):
        rc, _ = self.run(tmp_path, "solve", dict(BASE, mystery=1))
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_inadmissible_source_exits_one(self, tmp_path, capsys):
        body = dict(BASE, source={"f": {"kind": "constant", "value": -1.0}})
        rc, _ = self.run(tmp_path, "solve", body)
        assert rc == 1
        assert "positive" in capsys.readouterr().err

    def test_numeric_failure_exits_two_with_partial_artifacts(self, tmp_path):
        body = dict(BASE, material={"p": 4.0}, max_iter=1, h=0.2)
        rc, out = self.run(tmp_path, "solve", body)
        assert rc == 2
        manifest = self.read_manifest(out)
        assert manifest["status"] == "numeric-failure"
        assert "failure" in manifest
        assert "field.csv" in manifest["artifacts"]

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


class TestIo:
    def test_write_json_is_stable(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_json(str(a), {"z": 1, "a": [1.0, 2.0]})
        write_json(str(b), {"a": [1.0, 2.0], "z": 1})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("\n")

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
