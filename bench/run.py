"""Benchmark of hkrigidity: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the checkout it sits in, importing the
package from that checkout's ``src/`` (Python needs no build step).  The
workloads and metrics are listed in ``BENCHMARK.json`` at the checkout root.

Every run starts fresh child processes (``child.py``): a few that only time
set-up, for ``setup_s``, and one that runs the workload.  With ``--trace 0``
the workload runs untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported.  Each output is checked against the oracle in
``workloads.py``.  A summary goes to stdout, followed by one JSON line with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment, is written to ``bench/out/``, and a traced
run also writes its spans there.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PROBES = 5
SMOKE_PROBES = 2
RUN_LIMIT_S = 170  # every child must have ended by then


class ChildFailed(RuntimeError):
    pass


def run_child(extra, deadline):
    """Run child.py in a fresh interpreter; returns its JSON result."""
    command = [sys.executable, str(BENCH / "child.py"), "--src", str(ROOT / "src"), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a child process")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout:.0f} s") from exc
    if done.returncode != 0:
        raise ChildFailed(f"child exited with {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values):
    """(q, value) for the highest usual percentile q that has at least ten
    samples beyond it, or None when there are too few samples."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(values) - math.ceil(len(values) * q / 100) >= 10:
            return q, percentile(values, q)
    return None


def describe(values, scale=1.0, unit="s"):
    text = f"median {statistics.median(values) * scale:.4g} {unit}"
    found = tail(values)
    if found is None:
        return f"{text}; {len(values)} samples, too few for a tail percentile"
    q, value = found
    return f"{text}, p{q:g} {value * scale:.4g} {unit} ({len(values)} samples)"


def _lscpu():
    try:
        done = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"})
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in done.stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(child):
    cpu = _lscpu()
    return {
        "python": child["python"],
        "numpy": child["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "commit": _commit(),
        "orbit_array_bytes": child["orbit_array_bytes"],
    }


def summary(args, probes, child, env, metrics):
    untraced = child["untraced_s"]
    lines = [f"hkrigidity benchmark: workload={args.workload} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds:g}"]
    if args.trace == 0:
        rates = [child["chars_per_pass"] / t for t in untraced]
        lines += [
            f"  setup_s      {metrics['setup_s']:.4f} s    {describe(probes)}, "
            "each in a fresh process",
            f"  wall_s       {metrics['wall_s']:.4f} s    per pass: {describe(untraced)}",
            f"  chars_per_s  {metrics['chars_per_s']:.1f} 1/s  per pass: "
            f"{describe(rates, unit='1/s')}; one unit is {child['counts']}",
            f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB  maximum RSS of the workload process",
        ]
    else:
        layers = child["layers"]
        self_times = sorted(((v, k[:-len(".self_s")]) for k, v in layers.items()
                             if k.endswith(".self_s")), reverse=True)
        attributed = sum(v for v, _ in self_times)
        lines.append(f"  traced pass {layers['trace.wall_s']:.4f} s = layer self times "
                     f"{attributed:.4f} s + unattributed {layers['trace.unattributed_s']:.4f} s; "
                     f"untraced pass {statistics.fmean(untraced):.4f} s; "
                     f"overhead {layers['trace.overhead_s']:.4f} s")
        for value, name in self_times:
            if value > 0:
                lines.append(f"    {name:<45} self {value:9.4f} s  "
                             f"calls {layers[name + '.calls']:.0f}")
    failed, attempted = child["failed"], child["attempted"]
    lines.append(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:g}")
    for failure in child["failures"]:
        lines.append("    " + failure.strip().replace("\n", "\n    "))
    lines.append("  operation latency, untraced passes:")
    for label, values in child["latency_s"].items():
        lines.append(f"    {label:<16} {describe(values, 1000, 'ms')}")
    sizes = ", ".join(f"n={n}: {b / 2 ** 20:.2f} MiB" for n, b in
                      sorted(env["orbit_array_bytes"].items(), key=lambda item: int(item[0])))
    lines.append(f"  environment: python {env['python']}, numpy {env['numpy']}, "
                 f"nproc {env['nproc']}, {env['cpu_model']}, commit {env['commit']}")
    lines.append(f"  orbit_representatives arrays (computed): {sizes}; "
                 f"L2 {env['l2_cache']}, L3 {env['l3_cache']}")
    return "\n".join(lines)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    parser = argparse.ArgumentParser(description="Run one hkrigidity benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hkrigidity" / "__init__.py").is_file():
        print(f"bench: no src/hkrigidity in {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        probes = [run_child(["--probe"], deadline)["setup_s"]
                  for _ in range(SMOKE_PROBES if args.smoke else PROBES)]
        extra = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            extra.append("--smoke")
        if args.trace:
            extra += ["--spans", str(OUT / f"spans-{tag}.json.gz")]
        child = run_child(extra, deadline)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(probes),
            "wall_s": statistics.median(child["untraced_s"]),
            "chars_per_s": statistics.median(
                child["chars_per_pass"] / t for t in child["untraced_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    else:
        values = child["layers"]
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(child)

    print(summary(args, probes, child, env, values))
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    record = {"args": vars(args), "environment": env, "setup_probes_s": probes,
              "result": result, "child": child}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
