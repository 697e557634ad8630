"""The benchmark (bench/) drives the package from outside the test suite.

Its tracer (bench/child.py) wraps package attributes by name.  It looks
each one up with getattr when a traced run starts, so an attribute renamed
or deleted in the package breaks the traced benchmark run without failing
any other test.  Its hooks also call package functions with arguments of
their own, such as recover_hessian's with_stats.  Its runner (bench/run.py)
checks every child's output with a closed-form oracle, so a change that
breaks an oracle is caught here too, on one in-process run per workload.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

from finslerpde import Mesh2D, ScalarField, cli, fields

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench("run").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_oracle(name, tmp_path):
    workload = WORKLOADS[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload.config))
    out = str(tmp_path / "out")
    assert cli.main([workload.command, "--config", str(config), "--out", out,
                     "--seed", "1"]) == 0
    assert workload.check(out) == []


def test_every_wrap_point_exists():
    points = load_bench("child").wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if not hasattr(owner, attr)]
    assert missing == []


def test_hessian_hook_reads_no_fallbacks():
    mesh = Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                  np.array([[0, 1, 2], [1, 3, 2]]))
    field = ScalarField(mesh, np.array([0.0, 1.0, 0.0, 2.0]))
    hook = load_bench("child")._hessian_fallbacks
    span = {}
    hess, fallbacks = hook(fields.recover_hessian, (field,), {"with_stats": True}, span)
    assert fallbacks == span["fallbacks"] == 0
    assert span["field"] == id(field)
    assert np.array_equal(hess, fields.recover_hessian(field))
    assert np.array_equal(hook(fields.recover_hessian, (field,), {}, {}), hess)
