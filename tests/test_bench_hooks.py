"""The benchmark's tracer (bench/child.py) wraps package attributes by name.

It looks each one up with getattr when a traced run starts, so an attribute
renamed or deleted in the package breaks the traced benchmark run without
failing any other test.  Its hooks also call package functions with
arguments of their own, such as recover_hessian's with_stats.
"""

import importlib.util
import os

import numpy as np

from finslerpde import Mesh2D, ScalarField, fields

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "child.py")


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_every_wrap_point_exists():
    points = load_child().wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if not hasattr(owner, attr)]
    assert missing == []


def test_hessian_hook_reads_no_fallbacks():
    mesh = Mesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                  np.array([[0, 1, 2], [1, 3, 2]]))
    field = ScalarField(mesh, np.array([0.0, 1.0, 0.0, 2.0]))
    hook = load_child()._hessian_fallbacks
    span = {}
    hess, fallbacks = hook(fields.recover_hessian, (field,), {"with_stats": True}, span)
    assert fallbacks == span["fallbacks"] == 0
    assert span["field"] == id(field)
    assert np.array_equal(hess, fields.recover_hessian(field))
    assert np.array_equal(hook(fields.recover_hessian, (field,), {}, {}), hess)
