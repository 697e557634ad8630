"""Benchmark of the finslerpde CLI on fixed workloads.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every operation is one fresh child
process (``bench/child.py``) running one CLI command; children run one at a
time with the libraries' default threading. A run

1. runs rounds of three processes: the fixed reference task
   ``bench/probe.py``, a set-up-only child (interpreter start, imports,
   config load and admissibility sampling) and a full child, until the next
   round would end after ``--seconds``, always at least one round; set-up
   samples are thus spread over the whole run, like the full children;
2. reports ``wall_rel``, the median wall time of the full children over
   the median time of the probes, which cancels most of the shared host's
   slow and fast phases (see ``bench/README.md``);
3. with ``--trace 1``, runs one more child with spans recorded around the
   calls into each layer, and reports per-layer metrics from it.

Each child is checked: exit code 0, a closed-form oracle on its output, and
CSV artifacts byte-identical to the first full child of the set of runs.
That child's CSV digests are kept in ``.bench-digests/`` at the root, keyed
by workload, config and package source, so every later run of the same code
is compared with them. The seed reaches the program only as ``--seed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, library versions, source commit and seed, and the raw
medians of the full children's wall times and of the probes' times.
"""

import argparse
import collections
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
DIGESTS = os.path.join(ROOT, ".bench-digests")

# A run must end within 180 s. Children still running 170 s after the start
# of the run are killed and count as failed, which leaves 10 s for the
# facts, the result line and clean-up.
RUN_LIMIT_S = 180.0 - 10.0

# Self-time metrics, one per layer; with cli.import_s and cli.other_s they
# partition the traced child's wall time.
SELF_TIMES = (
    "config.load_s", "material.admissibility_s", "material.tensor_s",
    "finsler.eval_s", "finsler.grad_s", "finsler.hess_s", "mesh.build_s",
    "mesh.patches_s", "solver.self_s", "solver.linsolve_s", "fields.hessian_s",
    "fields.normal_derivative_s", "verify.reductions_s", "verify.hopf_s",
    "radial.shoot_s", "io.write_s",
)
COUNTS = (
    "solver.newton_steps", "solver.linsolve_calls", "solver.cg_iterations",
    "solver.linsolve_failures", "material.tensor_calls", "finsler.eval_calls",
    "mesh.vertices", "fields.hessian_calls", "fields.hessian_fallbacks",
    "radial.shoot_calls",
)
PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in COUNTS},
    "solver.solve_s": "s", "io.bytes_written": "bytes", "cli.import_s": "s",
    "cli.cpu_s": "s", "cli.other_s": "s", "trace.overhead_s": "s",
}

# Largest nodal deviation of the lp q=4, p=3 solve at h=0.025 from the
# lifted closed form, fixed from a measured run of the seed code (1.31e-4)
# with 2x headroom.
LIFT_TOL = 2.6e-4


# -- oracles -----------------------------------------------------------------

def _table(out, name):
    import numpy as np
    return np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1, ndmin=2)


def check_solve(out):
    """Centre value 2/(3 sqrt 2) and the lifted radial closed form
    w(rho) = (p-1)/p 2^(-1/(p-1)) (1 - rho^(p/(p-1))), rho the l^(4/3) norm."""
    import numpy as np
    x, y, u = _table(out, "field.csv")[:, :3].T
    p = 3.0
    top = (p - 1.0) / p * 2.0 ** (-1.0 / (p - 1.0))
    rho = (np.abs(x) ** (4.0 / 3.0) + np.abs(y) ** (4.0 / 3.0)) ** 0.75
    exact = top * (1.0 - rho ** (p / (p - 1.0)))
    centre = float(u[np.argmin(x * x + y * y)])
    deviation = float(np.abs(u - exact).max())
    problems = []
    if not abs(centre - top) <= 5e-3:
        problems.append(f"centre value {centre:.6f} vs {top:.6f} +- 5e-3")
    if not deviation <= LIFT_TOL:
        problems.append(f"deviation from the lifted closed form {deviation:.3e} "
                        f"> {LIFT_TOL:.1e}")
    return problems


def check_study(out):
    """The tolerances of acceptance criteria 6 (Hopf slope, comparison) and
    7 (Hessian and weight integrals against pi/2 and 4 sqrt(2) pi / 3)."""
    rows = _table(out, "study.csv")
    h, hess, weight = rows[:, 0], rows[:, 1], rows[:, 2]
    with open(os.path.join(out, "hopf_report.json")) as fh:
        hopf = json.load(fh)
    problems = []
    slope = hopf["min_normal_derivative"]
    if not 0.45 <= slope <= 0.55:
        problems.append(f"Hopf slope {slope:.4f} outside [0.45, 0.55]")
    allowed = -5.0 * h[-1] ** 2
    if not hopf["comparison_violation"] >= allowed:
        problems.append(f"comparison violation {hopf['comparison_violation']:.3e} "
                        f"< {allowed:.3e}")
    for label, values, exact in (("hessian", hess, math.pi / 2.0),
                                 ("weight", weight, 4.0 * math.sqrt(2.0) * math.pi / 3.0)):
        if not abs(values[-1] - exact) <= 0.03 * exact:
            problems.append(f"{label} integral {values[-1]:.4f} vs {exact:.4f} +- 3%")
        drift = abs(values[-1] - values[-2]) / abs(values[-1])
        if not drift <= 0.10:
            problems.append(f"{label} integral drift {drift:.2%} > 10%")
    return problems


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    check: Callable


UNIT_SOURCE = {"f": {"kind": "constant", "value": 1.0}}

# Why each workload: see bench/README.md.
WORKLOADS = {
    "solve_lp4_p3": Workload("solve_lp4_p3", "solve", {
        "domain": {"kind": "wulff_ball", "radius": 1.0},
        "material": {"p": 3.0, "kind": "power"},
        "norm": {"kind": "lp", "q": 4.0},
        "source": UNIT_SOURCE,
        "h": 0.025,
    }, check_solve),
    "study_disk_p2": Workload("study_disk_p2", "regularity", {
        "domain": {"kind": "disk", "radius": 1.0},
        "material": {"p": 2.0, "kind": "power"},
        "source": UNIT_SOURCE,
        "h": 0.1,
        "verify": {"levels": 3, "t": 0.5, "hopf": {"radius": 0.5, "m": 0.1}},
    }, check_study),
}


# -- children ----------------------------------------------------------------

@dataclasses.dataclass
class Child:
    mode: str
    out: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stamp: dict
    setup_s: float = math.nan
    problems: list = dataclasses.field(default_factory=list)


def execute(argv, log_path, deadline, env=None):
    """Run a process to completion; kill it if it outlives ``deadline``.

    Returns (wait status, start, end, resource usage).
    """
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env or os.environ, file_actions=[
            (os.POSIX_SPAWN_DUP2, log, 1), (os.POSIX_SPAWN_DUP2, log, 2)])
    finally:
        os.close(log)
    lock = threading.Lock()
    reaped = []

    def kill():
        with lock:
            if not reaped:
                os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - start), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        with lock:
            reaped.append(pid)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    return status, start, end, usage


def spawn(mode, workload, seed, config_path, work, index, deadline):
    """Run one benchmark child to completion."""
    out = os.path.join(work, f"child-{index}")
    stamp_path = out + ".json"
    argv = [sys.executable, CHILD, mode, stamp_path, "--", workload.command,
            "--config", config_path, "--out", out, "--seed", str(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    status, start, end, usage = execute(argv, out + ".log", deadline, env)
    try:
        with open(stamp_path) as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        stamp = {}
    child = Child(mode=mode, out=out, code=os.waitstatus_to_exitcode(status),
                  wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, stamp=stamp)
    if "handler_start" in stamp:
        child.setup_s = stamp["handler_start"] - start
    return child


def probe(work, index, deadline):
    """Seconds the fixed reference task ``probe.py`` reports for itself."""
    log_path = os.path.join(work, f"probe-{index}.log")
    status, _, _, _ = execute([sys.executable, PROBE], log_path, deadline)
    with open(log_path) as fh:
        output = fh.read()
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"reference probe failed: {output[-2000:]}")
    return json.loads(output.splitlines()[-1])["probe_s"]


def csv_digests(out):
    digests = {}
    for path in sorted(glob.glob(os.path.join(out, "*.csv"))):
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def reference_path(workload, store):
    """File for the CSV digests of a workload's first passing child, keyed by
    the workload, its config and the package source."""
    key = hashlib.sha256(json.dumps(
        [workload.config, _source_digest()], sort_keys=True).encode()).hexdigest()
    return os.path.join(store, f"{workload.name}-{key[:16]}.json")


def load_reference(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def save_reference(path, digests):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    partial = f"{path}.{os.getpid()}"
    with open(partial, "w") as fh:
        json.dump(digests, fh)
    os.replace(partial, path)


def check_child(workload, child, reference):
    """Problems with one child's outcome; ``reference`` holds the CSV digests
    of the first passing full child of the set, or is None before it."""
    if child.code != 0:
        return [f"exit code {child.code}"]
    if "handler_start" not in child.stamp:
        return ["no handler start recorded"]
    if child.mode == "setup":
        return []
    try:
        problems = workload.check(child.out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc}"]
    if reference is not None and csv_digests(child.out) != reference:
        problems.append("CSV artifacts differ from the first run of the set")
    return problems


# -- metrics -----------------------------------------------------------------

def layer_metrics(traced, untraced_wall_s):
    """Per-layer metrics of a traced child; a span's self time is its length
    minus the lengths of its direct children."""
    spans = traced.stamp["spans"]
    metrics = dict.fromkeys(SELF_TIMES, 0.0)
    calls = collections.Counter(span["metric"] for span in spans)
    covered = 0.0
    fallbacks = {}  # per field: the finest field is recovered twice
    for span in spans:
        length = span["end"] - span["start"]
        metrics[span["metric"]] += length
        if span["parent"] >= 0:
            metrics[spans[span["parent"]]["metric"]] -= length
        else:
            covered += length
        if "fallbacks" in span:
            fallbacks[span["field"]] = span["fallbacks"]

    def total(key):
        return sum(span.get(key, 0) for span in spans)

    import_s = traced.stamp["import_end"] - traced.stamp["import_start"]
    metrics.update({
        "solver.solve_s": sum(s["end"] - s["start"] for s in spans
                              if s["metric"] == "solver.self_s"),
        "solver.newton_steps": total("newton_steps"),
        "solver.linsolve_calls": calls["solver.linsolve_s"],
        "solver.cg_iterations": total("iterations"),
        "solver.linsolve_failures": sum(1 for s in spans if s.get("info", 0) != 0),
        "material.tensor_calls": calls["material.tensor_s"],
        "finsler.eval_calls": calls["finsler.eval_s"],
        "mesh.vertices": total("vertices"),
        "fields.hessian_calls": calls["fields.hessian_s"],
        "fields.hessian_fallbacks": sum(fallbacks.values()),
        "radial.shoot_calls": calls["radial.shoot_s"],
        "io.bytes_written": sum(os.path.getsize(p) for p in
                                glob.glob(os.path.join(traced.out, "*"))),
        "cli.import_s": import_s,
        "cli.cpu_s": traced.cpu_s,
        "cli.other_s": traced.wall_s - import_s - covered,
        "trace.overhead_s": traced.wall_s - untraced_wall_s,
    })
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def tally(children):
    """(attempted, failed) over every child of a run."""
    return len(children), sum(1 for c in children if c.problems)


def measure(workload, seed, seconds, trace, work, store=DIGESTS):
    """Run the children of one benchmark run; ``store`` keeps the reference
    CSV digests across the runs of a set.

    Returns (end-to-end metrics, per-layer metrics or None, children, raw
    medians in s of the full children's wall times and the probes' times).
    """
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(workload.config, fh)
    deadline = time.monotonic() + RUN_LIMIT_S
    children = []
    digests_path = reference_path(workload, store)
    reference = load_reference(digests_path)

    def run(mode):
        nonlocal reference
        child = spawn(mode, workload, seed, config_path, work, len(children), deadline)
        child.problems = check_child(workload, child, reference)
        if reference is None and mode != "setup" and not child.problems:
            reference = csv_digests(child.out)
            save_reference(digests_path, reference)
        children.append(child)
        if child.problems:
            print(f"{workload.name} {mode} child {len(children) - 1} failed: "
                  + "; ".join(child.problems), file=sys.stderr)
        return child

    started = time.monotonic()
    full, probes = [], []
    while True:
        begun = time.monotonic()
        probes.append(probe(work, len(probes), deadline))
        run("setup")
        full.append(run("run"))
        now = time.monotonic()
        if full[-1].code != 0 or now >= deadline:
            break
        if (now - started) + (now - begun) > seconds:  # the next round would overrun
            break
    wall = statistics.median(c.wall_s for c in full)
    probe_s = statistics.median(probes)
    setups = [c.setup_s for c in children if not math.isnan(c.setup_s)]
    end_to_end = {
        "wall_rel": {"value": wall / probe_s, "unit": "probe"},
        "setup_s": {"value": statistics.median(setups) if setups else math.nan,
                    "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(c.rss_mb for c in full),
                        "unit": "MB"},
    }
    layers = None
    if trace:
        traced = run("trace")
        if not traced.problems and "spans" in traced.stamp:
            layers = layer_metrics(traced, wall)
    raw = {"wall_s": wall, "probe_s": probe_s}
    return end_to_end, layers, children, raw


# -- recorded facts ----------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas(package):
    """Runtime version string and thread count of a package's bundled OpenBLAS."""
    import ctypes
    libs = glob.glob(os.path.join(os.path.dirname(package.__file__), os.pardir,
                                  package.__name__ + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            try:
                get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
                get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            except AttributeError:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return {"config": get_config().decode(), "threads": get_threads()}
    return None


def _commit():
    """HEAD of the checkout's git repository, from a loose or packed ref;
    None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    sha, _, name = line.strip().partition(" ")
                    if name == ref:
                        return sha
    except OSError:
        pass
    return None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "finslerpde", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def facts(seed):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "thread_env": {key: os.environ.get(key) for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def sources_present():
    if os.path.isfile(os.path.join(SRC, "finslerpde", "cli.py")):
        return True
    print(f"error: no finslerpde sources under {SRC}; run from a source checkout",
          file=sys.stderr)
    return False


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not sources_present():
        return 2
    work = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        end_to_end, layers, children, raw = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = tally(children)
    metrics = (layers or {}) if args.trace else end_to_end
    print(json.dumps({"facts": facts(args.seed), "raw": raw}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
