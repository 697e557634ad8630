"""Fast self-test of the benchmark harness on a tiny regularity config.

    python3 -m pytest bench -q

The full benchmark is not run here; the repository's own test suite
(``tests/``) does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = run.Workload("tiny", "regularity", {
    "domain": {"kind": "disk", "radius": 1.0},
    "material": {"p": 2.0, "kind": "power"},
    "source": run.UNIT_SOURCE,
    "h": 0.2,
    "verify": {"levels": 2, "t": 0.5, "hopf": {"radius": 0.5, "m": 0.1}},
}, run.check_study)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return str(tmp_path_factory.mktemp("digests"))


@pytest.fixture(scope="module")
def measured(tmp_path_factory, store):
    work = str(tmp_path_factory.mktemp("bench"))
    return run.measure(TINY, seed=0, seconds=0.0, trace=True, work=work, store=store)


def spec_units(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def test_every_metric_is_emitted_with_its_unit(measured):
    end_to_end, layers, children, _ = measured
    assert run.tally(children) == (len(children), 0)
    assert {k: v["unit"] for k, v in end_to_end.items()} == spec_units("end_to_end")
    assert {k: v["unit"] for k, v in layers.items()} == spec_units("per_layer")
    assert all(v["value"] > 0 for v in end_to_end.values())


def test_layer_counts_and_wall_accounting(measured):
    _, layers, children, _ = measured
    value = {k: v["value"] for k, v in layers.items()}
    assert value["fields.hessian_calls"] == 3  # one per level, again for sobolev_scan
    assert value["radial.shoot_calls"] == 1
    assert value["solver.linsolve_calls"] == 2
    assert value["mesh.vertices"] > 0 and value["solver.cg_iterations"] > 0
    traced = children[-1]
    accounted = sum(value[name] for name in run.SELF_TIMES)
    accounted += value["cli.import_s"] + value["cli.other_s"]
    assert accounted == pytest.approx(traced.wall_s)
    assert 0.0 < value["cli.other_s"] < 0.5 * traced.wall_s


def test_corrupted_artifact_counts_as_failure(measured):
    _, _, children, _ = measured
    first, traced = [c for c in children if c.mode != "setup"]
    reference = run.csv_digests(first.out)
    assert run.check_child(TINY, traced, reference) == []
    path = os.path.join(traced.out, "study.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    last_digit = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[last_digit] = ord("1") if data[last_digit] != ord("1") else ord("2")
    with open(path, "wb") as fh:
        fh.write(data)
    traced.problems = run.check_child(TINY, traced, reference)
    assert traced.problems == ["CSV artifacts differ from the first run of the set"]
    assert run.tally(children) == (len(children), 1)


def test_later_runs_compare_with_the_first_run_of_the_set(measured, store, tmp_path):
    _, _, children, _ = measured
    path = run.reference_path(TINY, store)
    assert run.load_reference(path) == run.csv_digests(
        next(c for c in children if c.mode == "run").out)
    run.save_reference(path, {"study.csv": "0" * 64})
    _, _, later, _ = run.measure(TINY, seed=1, seconds=0.0, trace=False,
                              work=str(tmp_path), store=store)
    assert [c.problems for c in later if c.mode == "run"] == [
        ["CSV artifacts differ from the first run of the set"]]
    assert run.tally(later) == (len(later), 1)


def test_commit_is_read_from_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n" + "ab" * 20 + " refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run._commit() == "ab" * 20


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(run.CHILD), tmp_path / "bench")
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study_disk_p2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
