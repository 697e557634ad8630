"""The benchmark's tracer (bench/child.py) wraps package attributes by name.

It looks each one up with getattr when a traced run starts, so an attribute
renamed or deleted in the package breaks the traced benchmark run without
failing any other test.
"""

import importlib.util
import os

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "child.py")


def test_every_wrap_point_exists():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    points = child.wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in points
               if not hasattr(owner, attr)]
    assert missing == []
