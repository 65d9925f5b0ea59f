"""One fresh interpreter of the benchmark; started by run.py, not by hand.

``child.py --probe --src DIR`` times the set-up a command-line user pays on
every call (importing hkrigidity and loading the default registry) and
prints it.  Without ``--probe`` it sets up the same way, builds the
workload's inputs from the seed, and runs passes of the workload until the
next pass would end after ``--seconds``.  With ``--trace 1`` untraced and
traced passes alternate.  It prints one JSON object describing the run.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MAX_FAILURE_DETAILS = 10


def setup(src):
    """Import hkrigidity from ``src`` and load the default registry;
    returns the seconds this took."""
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import hkrigidity.cli  # noqa: F401  (the whole package, as the CLI loads it)
    from hkrigidity import registry
    registry.default_registry()
    elapsed = time.perf_counter() - start
    loaded = Path(hkrigidity.__file__).resolve()
    if Path(src).resolve() not in loaded.parents:
        raise SystemExit(f"hkrigidity was imported from {loaded}, not from {src}")
    return elapsed


class Ops:
    """Times each operation and records the ones that raise as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # the first few tracebacks
        self.latency = {}

    def run(self, label, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # any exception is a failed operation, not a crash
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_DETAILS:
                self.failures.append(f"{label}: {traceback.format_exc(limit=-2)}")
            result = None
        self.latency.setdefault(label, []).append(time.perf_counter() - start)
        return result


def measure(workload, seconds, trace):
    """Run passes until the next one would end after ``seconds``."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    ops, traced_ops = Ops(), Ops()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.root():
                    chars = workload.run_pass(traced_ops)
                traced.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            chars = workload.run_pass(ops)
            untraced.append(time.perf_counter() - t0)
        next_traced = trace and len(traced) < len(untraced)
        estimate = (traced or untraced)[-1] if next_traced else untraced[-1]
        complete = not trace or traced
        if complete and time.perf_counter() - start + estimate > seconds:
            break
    return tracer, ops, traced_ops, untraced, traced, chars


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    setup_s = setup(args.src)
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import tracing
    import workloads
    from hkrigidity import characters

    workload = workloads.build(args.workload, args.seed, args.smoke)
    tracer, ops, traced_ops, untraced, traced, chars = measure(
        workload, args.seconds, args.trace)

    chunk = tracing.orbit_chunk_default(characters.orbit_representatives)
    result = {
        "setup_s": setup_s,
        "untraced_s": untraced,
        "traced_s": traced,
        "chars_per_pass": chars,
        "counts": workload.counts,
        "attempted": ops.attempted + traced_ops.attempted,
        "failed": ops.failed + traced_ops.failed,
        "failures": (ops.failures + traced_ops.failures)[:MAX_FAILURE_DETAILS],
        "latency_s": ops.latency,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "orbit_array_bytes": {n: tracing.orbit_array_bytes(n, chunk)
                              for n in workload.orbit_ns},
    }
    if tracer is not None:
        layers = tracer.analyse(len(traced))
        layers["trace.overhead_s"] = (statistics.fmean(traced)
                                      - statistics.fmean(untraced))
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
