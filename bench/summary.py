"""Print every benchmark metric of every workload, by name and with its unit.

usage: python3 bench/summary.py [--seed N]

For every workload this makes one traced benchmark run (``run.measure`` with
tracing, measuring for ``run_seconds`` of ``BENCHMARK.json``), so it prints
the end-to-end metrics of the untraced children, ``failed_frac`` (failed
operations over attempted ones), the raw medians ``wall_s`` and ``probe_s``
of the full children's wall times and of the reference probes' times, the
tracing overhead (traced wall minus the untraced median) and every
per-layer metric of the traced child. The recorded facts come first.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not run.sources_present():
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    print("facts", json.dumps(run.facts(args.seed)))
    for name, workload in run.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=".bench-", dir=run.ROOT)
        try:
            end_to_end, layers, children, raw = run.measure(
                workload, args.seed, seconds, True, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted, failed = run.tally(children)
        rows = dict(end_to_end)
        rows["failed_frac"] = {"value": failed / attempted, "unit": "fraction"}
        rows.update({name: {"value": value, "unit": "s"} for name, value in raw.items()})
        rows.update(layers or {})
        for metric, entry in rows.items():
            print(f"{name:20s} {metric:28s} {entry['value']:>16.6g} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
