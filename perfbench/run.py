"""Benchmark of qrdyn: build the maps, run one workload, check every output.

    python3 perfbench/run.py --workload portrait --seed 1 --seconds 8 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BUILD_PARAMS = dict(resolution=128, chart_resolution=48, lprime_samples=20000,
                    seed=0, validate=True)
BUILDS = 2          # setup_s is the median over this many builds


def cap_blas_threads():
    """numpy's BLAS pool no larger than the CPUs this process may use; set
    before numpy is first imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= n:
            os.environ[var] = str(n)


def import_package():
    if not (SRC / "qrdyn" / "__init__.py").is_file():
        sys.exit(f"run.py: no qrdyn package under {SRC}; run from a checkout "
                 "of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import qrdyn
    if Path(qrdyn.__file__).resolve().parent != SRC / "qrdyn":
        sys.exit(f"run.py: imported qrdyn from {qrdyn.__file__}, not {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if args.trace:
        import traced
        result = traced.run(WORKLOADS, args.workload, args.seed, args.seconds)
    else:
        result = run_untraced(WORKLOADS[args.workload], args.seed, args.seconds)
    print(json.dumps(result))


def timed_build():
    from qrdyn import global_map
    t0 = time.perf_counter()
    build = global_map.build_maps(**BUILD_PARAMS)
    return build, time.perf_counter() - t0


def run_rounds(workload, rng, tally, seconds):
    """At least one whole round, then more until ``seconds`` have passed."""
    start = time.perf_counter()
    while True:
        workload.round(rng, tally)
        if time.perf_counter() - start >= seconds:
            return


def report(tally, metrics):
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for kind, (calls, secs) in sorted(tally.kinds.items()):
        print(f"{kind}: {calls} calls, {calls / secs:.6g}/s", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def lower_decile(rates):
    """The throughput that nine rounds in ten reach.  A shared machine may
    switch between a slow and a fast state every few seconds; the slow state
    shows in every run, so its rate is steadier than the median, which
    follows the share of time spent in each (see README.md)."""
    return statistics.quantiles(rates, n=10)[0]


def run_untraced(cls, seed, seconds):
    """Builds alternate with equal shares of the measured time, so that both
    metrics sample the machine over the whole run rather than one stretch."""
    import numpy as np
    from workloads import Context, Tally, check_build
    rng = np.random.default_rng(seed)
    tally = Tally()
    times = []
    workload = None
    for _ in range(BUILDS):
        build, dt = timed_build()
        times.append(dt)
        if workload is None:
            ctx = Context(build)
            check_build(ctx, tally)
            workload = cls(ctx, seed)
        run_rounds(workload, rng, tally, seconds / BUILDS)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report(tally, {
        "setup_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        "ops_per_s": {"value": lower_decile(tally.rates), "unit": "ops/s"},
    })


if __name__ == "__main__":
    main()
