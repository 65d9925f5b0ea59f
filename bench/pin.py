"""Regenerate ``oracle.json``, the pinned outputs the benchmark checks.

    PYTHONPATH=src python3 bench/pin.py

Run it only at a commit whose outputs are known to be right (the
acceptance suite passes there).  Afterwards the pins catch any change in
the bytes of a report.  Rigidity reports are pinned per exponent without
their ``mode`` field, and the script refuses to write the pins unless orbit
mode and full mode give the same digest at every exponent of the full
sweep.  It also pins the characters obstructed at n = 3, found by proving
all 243 of them.
"""

import json
import sys
from itertools import product

import workloads
from hkrigidity.characters import Character
from hkrigidity.registry import default_registry
from hkrigidity.vanishing import ProofEngine, problem_of

EMPTY = {"rigidity": {}, "audit": {}, "obstructed_n3": []}


def _rigidity_digest(n, full):
    argv = ["rigidity", "--n", str(n), "--json"] + (["--full"] if full else [])
    _code, out = workloads.run_cli(argv)
    return workloads.report_digest(json.loads(out))


def main():
    orbit_ns, full_ns, audit_argvs = set(), set(), []
    for smoke in (False, True):
        orbit_ns.update(workloads.build("orbit-sweep", 0, smoke, EMPTY).ns)
        full_ns.update(workloads.build("full-sweep", 0, smoke, EMPTY).ns)
        audit_argvs += workloads.build("audit", 0, smoke, EMPTY).argvs

    rigidity = {str(n): _rigidity_digest(n, full=False) for n in sorted(orbit_ns | full_ns)}
    for n in sorted(full_ns):
        if _rigidity_digest(n, full=True) != rigidity[str(n)]:
            sys.exit(f"orbit and full mode disagree at n={n}; not pinning")

    audit = {" ".join(argv): workloads.text_digest(workloads.run_cli(argv)[1])
             for argv in audit_argvs}

    engine = ProofEngine(default_registry())
    obstructed = [list(a) for a in product(range(3), repeat=5)
                  if engine.prove(problem_of(Character(3, a))).kind == "nonvanishing"]

    oracle = {"rigidity": rigidity, "audit": dict(sorted(audit.items())),
              "obstructed_n3": obstructed}
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
