"""The CLI's failure contract, checked on configs drawn from edge values.

Every run must end in one of the README's exit codes: 0 with a manifest
``ok`` whose artifacts exist; 1 with one ``error:`` line on stderr and no
manifest, or, for a Hopf ball that does not fit (FitError), a manifest
``rejected``; 2 with a manifest ``numeric-failure``.  No exception may
escape ``cli.main`` (nor a warning, which tier-1 turns into an error), and
every JSON file written is strict JSON.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerpde.cli import main

BASE = json.dumps({"domain": {"kind": "disk", "radius": 1.0}, "h": 0.3,
                   "verify": {"levels": 2, "hopf": {"radius": 0.5, "m": 0.1}}})
COMMANDS = ["solve", "barrier", "wulff", "verify", "regularity"]
BAD = ["NaN", "Infinity", "-Infinity", '"x"', "true", "null", "[]"]

# --set values per key, as JSON text: valid ones, then 0, negative, tiny,
# huge, the non-finite tokens and wrong types.  Values that would build a
# fine mesh or a long study (a tiny h, a huge radius or level count) are
# left out: every mesh keeps h >= 0.2 relative to its size.
VALUES = {
    "h": ["0.2", "1e300", "0", "-1", *BAD],
    "tol_solve": ["1e-6", "1e300", "0", "-1e-8", *BAD],
    "max_iter": ["1", "0", "-1", "2.5", "1e300", *BAD],
    "seed": ["7", "-1", "2.5", *BAD],
    "domain": ['{"kind": "rectangle", "a": 1, "b": 0.6}', '{"kind": "annulus_wulff"}',
               '{"kind": "wulff_ball"}', '{"kind": "cube"}', "5", *BAD],
    "domain.radius": ["1e-300", "0", "-1", *BAD],
    "domain.center": ["[0.5, 0]", "[1]", '["a", 1]', "5", *BAD],
    "material.p": ["3", "1.5", "1", "0", "-1", "1e-300", "1e6", "1e300", *BAD],
    "material.k": ["0.5", "-1", "1e-300", "1e300", *BAD],
    "material.kind": ['"shifted"', '"cube"', *BAD],
    "norm": ['{"kind": "lp", "q": 4}', '{"kind": "lp", "q": 1e6}', '{"kind": "lp", "q": 0}',
             '{"kind": "ellipsoidal", "a": [[4, 0], [0, 1]]}',
             '{"kind": "ellipsoidal", "a": [[1, 2], [2, 1]]}', '{"kind": "ellipsoidal"}',
             '{"kind": "ellipsoidal", "a": "x"}', '{"kind": "ellipsoidal", "a": {}}',
             '{"kind": "cube"}', *BAD],
    "norm.q": ["1.5", "1", "0", "-1", "1e300", *BAD],
    "source.f": ['{"kind": "linear", "scale": 0.5, "offset": 1}', '{"kind": "power"}',
                 '{"kind": "power", "exponent": -1}', '{"kind": "constant", "value": 0}',
                 '{"kind": "constant", "value": 1e300}', '{"kind": "cube"}', *BAD],
    "source.f.value": ["-1", "1e-300", "1e300", *BAD],
    "source.g": ['{"kind": "linear", "scale": 0.2}', '{"kind": "power", "exponent": 2}',
                 '{"kind": "constant", "value": -1}', '{"kind": "linear", "scale": 1e300}', *BAD],
    "radial.mode": ['"ball"', '"cube"', *BAD],
    "radial.radius": ["1e-300", "1e300", "0", "-1", *BAD],
    "radial.m": ["1e-300", "1e300", "0", "-1", *BAD],
    "radial.n": ["3", "1", "0", "2.5", "1e300", *BAD],
    "radial.target": ["1", "-1", "1e300", *BAD],
    "verify.beta": ["0.5", "1", "-1", *BAD],
    "verify.t": ["0", "-1", "5", *BAD],
    "verify.q_grid": ["[1.4]", "[5]", "1.4", '["x"]', *BAD],
    "verify.levels": ["1", "0", "-1", "1.5", *BAD],
    "verify.hopf": ['{"radius": 50, "m": 0.1}', '{"radius": 0.5, "m": 0}', "5", *BAD],
    "wulff.radius": ["1e-300", "0", "-1", "1e300", *BAD],
    "wulff.samples": ["1", "0", "-1", "2.5", *BAD],
    "wulff.side": ['"H"', '"X"', *BAD],
    "mystery": ["1"],
}

# overrides that are malformed as such, and config files that are not objects
MALFORMED = [["h"], ["=0.3"], ["h=0.3", "h.x=1"]]
FILES = [BASE, "[]", "5", '"x"', "{}"]

override = st.one_of(
    st.sampled_from(sorted(VALUES)).flatmap(
        lambda key: st.sampled_from(VALUES[key]).map(lambda value: [f"{key}={value}"])),
    st.sampled_from(MALFORMED))


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def strict_json(path):
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_no_constant)


def run(command, document, overrides):
    """(exit code, stderr, output directory listing, manifest or None, the
    other JSON files) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(document)
        argv = [command, "--config", cfg, "--out", out]
        for pair in overrides:
            argv += ["--set", pair]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        files = sorted(os.listdir(out)) if os.path.isdir(out) else []
        payloads = {name: strict_json(os.path.join(out, name))
                    for name in files if name.endswith(".json")}
    return code, err.getvalue(), files, payloads.pop("manifest.json", None), payloads


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(COMMANDS), st.sampled_from(FILES), st.lists(override, max_size=3))
# one run for each rejection that no other test reaches
@example("solve", BASE, [["domain.center=5"]])                # a list of numbers
@example("solve", BASE, [["h"]])                              # an override without =
@example("solve", BASE, [["h=0.3", "h.x=1"]])                 # descends into a number
@example("solve", "[]", [])                                   # a file that is no object
@example("solve", BASE, [["h=0"]])                            # h must be positive
@example("solve", BASE, [["max_iter=0"]])                     # max_iter must be positive
@example("solve", BASE, [["seed=-1"]])                        # seed must not be negative
@example("regularity", BASE, [['verify.hopf={"radius": 50, "m": 0.1}']])  # FitError
# inputs that once raised TypeError out of cli.main
@example("barrier", BASE, [["radial.mode=[]"]])
@example("solve", BASE, [['norm={"kind": "ellipsoidal", "a": {}}']])
# an absorption whose primitive passes L(2^199) once raised NumericError
@example("verify", BASE, [['material.kind="shifted"'], ["material.k=0.5"],
                          ['source.g={"kind": "linear", "scale": 1e300}']])
# a w-dependent absorption that overflows once warned from the radial march
@example("barrier", BASE, [['source.g={"kind": "linear", "scale": 1e300}']])
# f = 1/s is infinite at 0, and the sign check once warned
@example("solve", BASE, [['source.f={"kind": "power", "exponent": -1}']])
# a huge Wulff radius once overflowed the boundary residual
@example("wulff", BASE, [["wulff.radius=1e300"]])
def test_exit_contract(command, document, overrides):
    code, err, files, manifest, payloads = run(command, document,
                                               [pair for group in overrides for pair in group])
    assert code in (0, 1, 2)
    if manifest is None:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert err.count("error: ") == (code != 0)
    status = {0: "ok", 1: "rejected", 2: "numeric-failure"}[code]
    assert manifest["status"] == status
    assert ("failure" in manifest) == (code != 0)
    assert set(manifest["artifacts"]) <= set(files)
    assert set(payloads) <= set(manifest["artifacts"])
