"""Span tracer that times the layers of hkrigidity from outside the package.

A layer is a public function or method of a module in ``src/hkrigidity``.
While installed, the tracer replaces each one, at every module attribute
that refers to it (so ``invariants.orbit_representatives`` and
``characters.orbit_representatives`` both), by a wrapper.  A "span" layer
records one span (layer, start, end, parent) per call; a "count" layer only
counts calls, because it is called too often for a span to be cheap.
Spans stay in memory until the run ends and are then written out.

A layer's self time is its span time minus the time of its child spans.
Work outside every layer is the self time of the root span that the
harness opens around each pass, reported as ``trace.unattributed_s``.
"""

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from contextlib import contextmanager

PACKAGE = "hkrigidity"
ROOT = "workload"

# (module, attribute path, how it is recorded)
LAYERS = (
    ("cli", "main", "span"),
    ("invariants", "rigidity_report", "span"),
    ("invariants", "character_invariant_suite", "span"),
    ("invariants", "chi_crosscheck", "span"),
    ("characters", "orbit_representatives", "span"),
    ("characters", "geometry_of", "span"),
    ("characters", "rank_exception_classify", "span"),
    ("vanishing", "problem_of", "span"),
    ("vanishing", "canonical_problem", "span"),
    ("vanishing", "ProofEngine.prove", "span"),
    ("vanishing", "gvt_search", "span"),
    ("vanishing", "chi_log", "span"),
    ("vanishing", "drop_reduce", "count"),
    ("picard", "s5_transform", "count"),
    ("picard", "verify_dependencies", "span"),
    ("registry", "default_registry", "span"),
    ("registry", "derive", "span"),
    ("registry", "Registry.lookup", "count"),
    ("replay", "replay", "span"),
    ("replay", "build_table", "count"),
    ("replay", "validate_table", "count"),
    ("cb_arrangements", "census", "span"),
    ("cb_arrangements", "verify_propositions", "span"),
    ("reports", "rigidity_payload", "span"),
    ("reports", "to_json", "count"),
)


def orbit_chunk_default(orbit_representatives):
    return inspect.signature(orbit_representatives).parameters["chunk"].default


def orbit_array_bytes(n, chunk):
    """Computed size of the arrays ``orbit_representatives(n, chunk)`` holds
    at once: min_codes (one int64 per character) plus the per-chunk int64
    arrays codes, digits (5 wide), best, image (5 wide) and image @ powers."""
    return 8 * n ** 5 + 8 * (1 + 5 + 1 + 5 + 1) * min(chunk, n ** 5)


def _orbit_observer(original):
    """Counts S5 images and the largest computed working set."""
    chunk_default = orbit_chunk_default(original)

    def observe(counters, args, kwargs, result):
        n = args[0] if args else kwargs["n"]
        chunk = kwargs.get("chunk", args[1] if len(args) > 1 else chunk_default)
        counters["images"] += 120 * n ** 5
        counters["bytes_computed"] = max(counters["bytes_computed"],
                                         orbit_array_bytes(n, chunk))
    return observe


def _found_observer(key):
    def observe(counters, args, kwargs, result):
        counters[key] += result is not None
    return observe


def _replay_observer(counters, args, kwargs, result):
    counters["ok"] += bool(result.ok)


def _census_observer(counters, args, kwargs, result):
    counters["points"] += len(result.points)


def _json_observer(counters, args, kwargs, result):
    counters["bytes"] += len(result.encode("utf-8"))


# layer -> the counters its observer keeps
COUNTERS = {
    "characters.orbit_representatives": ("images", "bytes_computed"),
    "vanishing.gvt_search": ("found",),
    "characters.rank_exception_classify": ("deficient",),
    "registry.Registry.lookup": ("hits",),
    "replay.replay": ("ok",),
    "cb_arrangements.census": ("points",),
    "reports.to_json": ("bytes",),
}

# layer -> counter update run on each call's arguments and result
OBSERVERS = {
    "vanishing.gvt_search": _found_observer("found"),
    "characters.rank_exception_classify": _found_observer("deficient"),
    "registry.Registry.lookup": _found_observer("hits"),
    "replay.replay": _replay_observer,
    "cb_arrangements.census": _census_observer,
    "reports.to_json": _json_observer,
}


class Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Records spans and call counts for the layers in LAYERS."""

    def __init__(self):
        self.layer_names = [ROOT] + [f"{m}.{a}" for m, a, _ in LAYERS]
        self._how = {f"{m}.{a}": how for m, a, how in LAYERS}
        self._ids = {name: k for k, name in enumerate(self.layer_names)}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.calls = Counters()
        self.counters = {name: Counters.fromkeys(COUNTERS.get(name, ()), 0)
                         for name in self.layer_names}
        self._undo = []

    # -- recording -------------------------------------------------------

    def _open(self, layer_id):
        idx = len(self.start)
        self.name.append(layer_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """Root span around one pass of a workload."""
        idx = self._open(self._ids[ROOT])
        try:
            yield
        finally:
            self._close(idx)

    def _span_wrapper(self, name, fn, observe):
        layer_id = self._ids[name]
        counters = self.counters[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn, observe):
        calls = self.calls
        counters = self.counters[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every layer at each module attribute that resolves to it."""
        modules = [importlib.import_module(f"{PACKAGE}.{m}")
                   for m in sorted({m for m, _, _ in LAYERS})]
        for module_name, path, how in LAYERS:
            name = f"{module_name}.{path}"
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if name == "characters.orbit_representatives":
                observe = _orbit_observer(original)
            else:
                observe = OBSERVERS.get(name)
            make = self._span_wrapper if how == "span" else self._count_wrapper
            wrapped = make(name, original, observe)
            if outer:
                targets = [(owner, attr)]
            else:
                targets = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            for target, key in targets:
                setattr(target, key, wrapped)
                self._undo.append((target, key, original))

    def uninstall(self):
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------

    def analyse(self, passes):
        """Per-pass layer metrics, keyed by "<layer>.<metric>".

        Times and counts are totals over the traced passes divided by
        ``passes``, so they describe one pass of the workload.
        """
        count = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        child_time = [0.0] * count
        child_names = [0] * count  # bitmask over layer ids
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += duration[i]
                child_names[p] |= 1 << self.name[i]

        names = self.layer_names
        self_s = [0.0] * len(names)
        calls = [0] * len(names)
        durations = [[] for _ in names]
        for i in range(count):
            k = self.name[i]
            self_s[k] += duration[i] - child_time[i]
            calls[k] += 1
            durations[k].append(duration[i])

        ids = self._ids
        prove = ids["vanishing.ProofEngine.prove"]
        canon_bit = 1 << ids["vanishing.canonical_problem"]
        chi_bit = 1 << ids["vanishing.chi_log"]
        memo_hits = canon_hits = 0
        for i in range(count):
            if self.name[i] == prove:
                if not child_names[i] & canon_bit:
                    memo_hits += 1
                elif not child_names[i] & chi_bit:
                    canon_hits += 1

        out = {}
        for k, name in enumerate(names):
            if name == ROOT:
                continue
            if self._how[name] == "count":
                out[f"{name}.calls"] = self.calls[name] / passes
            else:
                out[f"{name}.calls"] = calls[k] / passes
                out[f"{name}.self_s"] = self_s[k] / passes
                out[f"{name}.p99_ms"] = 1000 * percentile(durations[k], 99)
            for key, value in self.counters[name].items():
                # a working-set size is a maximum, not a per-pass total
                out[f"{name}.{key}"] = value if key == "bytes_computed" else value / passes

        def ratio(num, den):
            return num / den if den else 0.0

        def layer(name, key):
            return self.counters[name][key]

        n_prove = calls[prove]
        out["vanishing.ProofEngine.prove.memo_hit_ratio"] = ratio(memo_hits, n_prove)
        out["vanishing.ProofEngine.prove.canon_hit_ratio"] = ratio(
            canon_hits, n_prove - memo_hits)
        out["vanishing.gvt_search.found_ratio"] = ratio(
            layer("vanishing.gvt_search", "found"),
            calls[ids["vanishing.gvt_search"]])
        out["replay.replay.ok_ratio"] = ratio(
            layer("replay.replay", "ok"), calls[ids["replay.replay"]])
        out["characters.rank_exception_classify.deficient_ratio"] = ratio(
            layer("characters.rank_exception_classify", "deficient"),
            calls[ids["characters.rank_exception_classify"]])
        out["registry.Registry.lookup.hit_ratio"] = ratio(
            layer("registry.Registry.lookup", "hits"),
            self.calls["registry.Registry.lookup"])
        orbit = "characters.orbit_representatives"
        out[f"{orbit}.images_per_s"] = ratio(
            layer(orbit, "images"), self_s[ids[orbit]])
        out["trace.unattributed_s"] = self_s[ids[ROOT]] / passes
        out["trace.wall_s"] = sum(duration[i] for i in range(count)
                                  if self.parent[i] < 0) / passes
        return out

    def write(self, path):
        """Write every recorded span as gzip-compressed JSON columns."""
        payload = {
            "layers": self.layer_names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
