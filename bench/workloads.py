"""The four benchmark workloads and the oracle that checks their outputs.

Each workload is one client in one process calling hkrigidity in a closed
loop with jobs=1.  ``build(name, seed, smoke)`` makes a workload's inputs
from the seed; ``Workload.run_pass`` runs every operation of one pass
through an ``Ops`` recorder, which times it and counts it as failed when it
raises.  An operation fails on a wrong verdict or exit code, a report
digest that differs from the pinned one in ``oracle.json``, a rejected
replay, a registry regeneration that is not byte-identical, or an
exception.

All calls go through module attributes (``cli.main``, ``vanishing.problem_of``
and so on) so that the tracer's wrappers see them.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from hkrigidity import cli, registry, replay, vanishing
from hkrigidity.characters import Character

ORACLE_PATH = Path(__file__).parent / "oracle.json"
VANISHING_KINDS = {"gvt", "drop", "superset", "registry"}


class Mismatch(Exception):
    """An output of the program differs from what the oracle expects."""


def report_digest(payload):
    """Digest of a rigidity report without its ``mode`` field, so orbit and
    full mode must agree byte for byte."""
    body = {k: v for k, v in payload.items() if k != "mode"}
    text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def text_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv):
    """Run the command line in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Sweeps: `hkrigidity rigidity --n N --json`, in orbit or full mode


def _rigidity(n, full, pins):
    argv = ["rigidity", "--n", str(n), "--json"]
    if full:
        argv += ["--full", "--jobs", "1"]
    code, out = run_cli(argv)
    payload = json.loads(out)
    tally = payload["verdict_tally"]
    _expect(code == (1 if n == 3 else 0), f"n={n}: exit code {code}")
    _expect(payload["mode"] == ("full" if full else "orbits"),
            f"n={n}: mode {payload['mode']}")
    _expect(tally["unresolved"] == 0, f"n={n}: {tally['unresolved']} unresolved")
    _expect((tally["nonvanishing"] > 0) == (n == 3),
            f"n={n}: {tally['nonvanishing']} nonvanishing")
    _expect(sum(tally.values()) == n ** 5, f"n={n}: tally covers {sum(tally.values())}")
    _expect(report_digest(payload) == pins[str(n)],
            f"n={n}: report digest differs from the pinned one")


class Sweep:
    counts = "one character of (Z/n)^5 decided; a pass decides n^5 summed over its exponents"

    def __init__(self, ns, full, pins):
        self.ns = ns
        self.full = full
        self.pins = pins
        self.chars = sum(n ** 5 for n in ns)
        self.orbit_ns = ns

    def run_pass(self, ops):
        for n in self.ns:
            ops.run(f"rigidity n={n}", _rigidity, n, self.full, self.pins)
        return self.chars


# ---------------------------------------------------------------------------
# Certificates: prove sampled characters, replay each distinct certificate,
# regenerate the registry


def _decide(engine, psi, obstructed):
    prob = vanishing.problem_of(psi)
    cert = engine.prove(prob)
    if psi.n == 3 and psi.a in obstructed:
        _expect(cert.kind == "nonvanishing", f"{psi}: {cert.kind}, expected nonvanishing")
    else:
        _expect(cert.kind in VANISHING_KINDS, f"{psi}: {cert.kind}, expected vanishing")
    return prob, cert


def _replay(prob, cert, reg):
    result = replay.replay(prob, cert, registry=reg)
    _expect(result.ok, f"replay rejected {cert!r}: {result.reason}")


def _derive():
    _expect(registry.dumps(registry.derive(5)) == registry.default_registry_text(),
            "derive(5) does not regenerate the shipped registry byte for byte")


class ProveReplay:
    counts = "one sampled character proved, its certificate replayed"

    def __init__(self, characters, obstructed):
        self.characters = characters
        self.obstructed = obstructed
        self.chars = len(characters)
        self.orbit_ns = [5]

    def run_pass(self, ops):
        reg = registry.default_registry()
        engine = vanishing.ProofEngine(reg)
        distinct = {}
        for psi in self.characters:
            decided = ops.run("prove", _decide, engine, psi, self.obstructed)
            if decided is not None:
                prob, cert = decided
                key = (tuple(sorted(prob.logset)), prob.twist.as_tuple(),
                       prob.h2_zero, prob.blowups)
                distinct.setdefault(key, decided)
        for prob, cert in distinct.values():
            ops.run("replay", _replay, prob, cert, reg)
        ops.run("derive(5)", _derive)
        return self.chars


# ---------------------------------------------------------------------------
# Audit: the consistency battery, the configuration census, the invariants


def _audit(argv, pins):
    code, out = run_cli(argv)
    key = " ".join(argv)
    _expect(code == 0, f"{key}: exit code {code}")
    if argv[0] == "checks":
        _expect(json.loads(out)["ok"] is True, f"{key}: a check failed")
    _expect(text_digest(out) == pins[key],
            f"{key}: output digest differs from the pinned one")


class Audit:
    counts = "one character swept by the rank-exception or invariant sweep of checks"

    def __init__(self, argvs, check_ns, pins):
        self.argvs = argvs
        self.pins = pins
        self.chars = 2 * sum(n ** 5 for n in check_ns)
        self.orbit_ns = check_ns

    def run_pass(self, ops):
        for argv in self.argvs:
            ops.run(argv[0], _audit, argv, self.pins)
        return self.chars


# ---------------------------------------------------------------------------


def build(name, seed, smoke=False, oracle=None):
    """The workload called ``name``, with inputs made from ``seed``."""
    if oracle is None:
        oracle = json.loads(ORACLE_PATH.read_text("utf-8"))
    rng = random.Random(f"{name}:{seed}")
    if name in ("orbit-sweep", "full-sweep"):
        # n = 3 (the obstruction) first, then the rest in seeded order, so a
        # change that carries state from one exponent to the next shows.
        if name == "orbit-sweep":
            rest = list(range(4, 6 if smoke else 11))
        else:
            rest = [4] if smoke else [4, 5]
        rng.shuffle(rest)
        return Sweep([3] + rest, name == "full-sweep", oracle["rigidity"])
    if name == "prove-replay":
        characters = []
        for _ in range(300 if smoke else 8000):
            n = rng.randint(3, 40)
            characters.append(Character(n, tuple(rng.randrange(n) for _ in range(5))))
        return ProveReplay(characters, {tuple(a) for a in oracle["obstructed_n3"]})
    if name == "audit":
        check_range, cb_n, inv_range = (4, 4), 8, "2..10"
        if not smoke:
            check_range, cb_n, inv_range = (4, 5), 24, "2..40"
        argvs = [
            ["checks", "--n-range", "{}..{}".format(*check_range), "--json"],
            ["cb", "--n", str(cb_n), "--json"],
            ["invariants", "--n-range", inv_range, "--json"],
        ]
        rng.shuffle(argvs)
        return Audit(argvs, list(range(check_range[0], check_range[1] + 1)),
                     oracle["audit"])
    raise ValueError(f"unknown workload {name!r}")

