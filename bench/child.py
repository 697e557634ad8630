"""Run the finslerpde CLI once, as a benchmark child process.

usage: python3 child.py MODE STAMP -- <finslerpde command line>

MODE is one of

* ``run``: run the command.
* ``setup``: stop where the command handler would begin. This measures
  set-up alone: interpreter start, imports, config load and the
  admissibility sampling the CLI does before any command.
* ``trace``: run the command with spans recorded around calls into each
  layer of the package (see ``wrap_points``).

STAMP is a JSON file written before exit. It holds ``time.monotonic()``
readings, which on Linux come from the same clock as the parent's, so the
parent can subtract its own spawn time from them.

The tracer works from outside the package: it replaces a public function
at the name its caller looks up (``finslerpde.verify.solve`` is the
``solve`` that ``refinement_study`` calls) and leaves the package source
untouched.
"""

import functools
import json
import os
import sys
import time


class Tracer:
    """Spans kept in memory: metric, name, start, end, parent index, counters."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, owner, attr, metric, hook=None):
        fn = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"metric": metric, "name": name, "start": time.monotonic(),
                    "end": None, "parent": open_spans[-1] if open_spans else -1}
            open_spans.append(len(spans))
            spans.append(span)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(fn, args, kwargs, span)
            finally:
                span["end"] = time.monotonic()
                open_spans.pop()

        setattr(owner, attr, traced)


def _vertices(fn, args, kwargs, span):
    mesh = fn(*args, **kwargs)
    span["vertices"] = mesh.n_vertices
    return mesh


def _newton_steps(fn, args, kwargs, span):
    field, report = fn(*args, **kwargs)
    span["newton_steps"] = report.iterations
    return field, report


def _cg_iterations(fn, args, kwargs, span):
    if kwargs.get("callback") is None:
        span["iterations"] = 0

        def count(_xk):
            span["iterations"] += 1
        kwargs = dict(kwargs, callback=count)
    x, info = fn(*args, **kwargs)
    span["info"] = int(info)
    return x, info


def _hessian_fallbacks(fn, args, kwargs, span):
    # with_stats only returns the fallback count the recovery computes anyway.
    hess, fallbacks = fn(*args, **dict(kwargs, with_stats=True))
    span["field"] = id(args[0])
    span["fallbacks"] = fallbacks
    return (hess, fallbacks) if kwargs.get("with_stats") else hess


def wrap_points():
    """(owner, attribute, self-time metric, hook) for every traced call."""
    import scipy.sparse.linalg as spla

    from finslerpde import cli, fields, finsler, mesh, solver, verify

    admissibility = "material.admissibility_s"
    return [
        (cli, "load_config", "config.load_s", None),
        (cli, "admissibility_report", admissibility, None),
        (cli, "ellipticity_constant", admissibility, None),
        (cli, "check_source_signs", admissibility, None),
        (solver, "check_structural_bounds", admissibility, None),
        (solver, "check_source_signs", admissibility, None),
        (solver, "linearized_tensor", "material.tensor_s", None),
        (finsler.FinslerNorm, "eval", "finsler.eval_s", None),
        (finsler.FinslerNorm, "grad", "finsler.grad_s", None),
        (finsler.FinslerNorm, "hess", "finsler.hess_s", None),
        (cli, "build_domain", "mesh.build_s", _vertices),
        (verify, "build_domain", "mesh.build_s", _vertices),
        (mesh.Mesh2D, "vertex_patches", "mesh.patches_s", None),
        (cli, "solve", "solver.self_s", _newton_steps),
        (verify, "solve", "solver.self_s", _newton_steps),
        (spla, "cg", "solver.linsolve_s", _cg_iterations),
        (spla, "splu", "solver.linsolve_s", None),
        (spla, "spsolve", "solver.linsolve_s", None),
        (spla, "factorized", "solver.linsolve_s", None),
        (fields, "recover_hessian", "fields.hessian_s", _hessian_fallbacks),
        (verify, "boundary_normal_derivative", "fields.normal_derivative_s", None),
        (verify, "weighted_hessian_integral", "verify.reductions_s", None),
        (verify, "weight_integral", "verify.reductions_s", None),
        (verify, "critical_set_fraction", "verify.reductions_s", None),
        (verify, "sobolev_scan", "verify.reductions_s", None),
        (verify, "hopf_check", "verify.hopf_s", None),
        (cli, "shoot", "radial.shoot_s", None),
        (verify, "shoot", "radial.shoot_s", None),
        (cli, "write_field_csv", "io.write_s", None),
        (cli, "write_profile_csv", "io.write_s", None),
        (cli, "write_study_csv", "io.write_s", None),
        (cli, "write_wulff_csv", "io.write_s", None),
        (cli, "write_json", "io.write_s", None),
    ]


def main(argv):
    mode, stamp_path, sep, *cli_args = argv
    if mode not in ("run", "setup", "trace") or sep != "--":
        raise SystemExit(__doc__)
    stamp = {"import_start": time.monotonic()}
    from finslerpde import cli
    stamp["import_end"] = time.monotonic()

    def write_stamp():
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)

    tracer = Tracer()
    if mode == "trace":
        for owner, attr, metric, hook in wrap_points():
            tracer.wrap(owner, attr, metric, hook)

    def mark(handler):
        def begin(*args):
            stamp["handler_start"] = time.monotonic()
            if mode == "setup":
                write_stamp()
                os._exit(0)
            return handler(*args)
        return begin

    for command, handler in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = mark(handler)
    code = cli.main(cli_args)
    stamp["spans"] = tracer.spans
    write_stamp()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
