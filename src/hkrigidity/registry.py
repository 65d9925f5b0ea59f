"""Axiom registry: the residue of vanishing problems the certificate
search cannot close, together with the classical rigidity facts that do.

Every entry is a problem (pole line set, twist class) stored in canonical
form under the index symmetry, an identifier, and a one-line
justification.  The shipped file is derived mechanically from the
exponent-5 covering, where every character block vanishes because the
covering surface is a smooth complex-ball quotient and therefore
infinitesimally rigid; pole dropping transports those facts to the
reduced problems recorded here.  The serialization is canonical
(tab-separated fields, entries sorted), so regeneration is byte-stable
and the file digest is meaningful.
"""

import hashlib
import json
from dataclasses import dataclass
from importlib import resources

from .picard import DivisorClass, make_pair
from .vanishing import canonical_problem

DATA_PACKAGE = "hkrigidity"
DATA_PATH = "data/registry.txt"

# Largest registry file load_path reads.  The shipped file is 596 bytes with
# two entries.  1 MiB still lets a 100,000-deep JSON nesting reach the parser,
# and 1 MiB of comment lines parses in about 0.1 s.  Without a bound, reading
# /dev/zero grew until memory ran out (a MemoryError under a 1.5 GB limit).
MAX_REGISTRY_BYTES = 1 << 20

# Most entries loads accepts.  Registry() checks each entry's canonical form
# over the 120 symmetries, about 1 ms an entry on a 2-vCPU machine, so 256
# entries take about 0.3 s; 5000 took 4 s.
MAX_REGISTRY_ENTRIES = 256

_HEADER = (
    "# Vanishing axiom registry.\n"
    "# Each line: id, canonical pole set, twist class, justification.\n"
    "# Derived from the exponent-5 covering; do not edit by hand.\n"
)

_JUSTIFICATION_INVARIANT = (
    "invariant block; the degree-5 del Pezzo surface has no infinitesimal "
    "deformations, and Serre duality converts that into this vanishing"
)
_JUSTIFICATION_BALL = (
    "block of the exponent-5 covering, a smooth complex-ball quotient, "
    "hence infinitesimally rigid (Calabi-Vesentini); pole dropping carries "
    "the vanishing to this reduced problem"
)


class RegistryFormatError(ValueError):
    """The registry text violates the canonical serialization."""


@dataclass(frozen=True)
class RegistryEntry:
    id: str
    logset: tuple
    twist: DivisorClass
    justification: str

    @property
    def key(self):
        return (self.logset, self.twist.as_tuple())


class Registry:
    """Entries indexed by canonical key, with the text they were read from
    (their canonical serialization when built from entries directly), so
    that a digest of `text` always describes this registry."""

    def __init__(self, entries, text=None):
        self.entries = tuple(entries)
        self._by_key = {}
        ids = set()
        for entry in self.entries:
            ckey, _ = canonical_problem(frozenset(entry.logset), entry.twist)
            if ckey != entry.key:
                raise RegistryFormatError(
                    f"entry {entry.id} is not in canonical form")
            if entry.key in self._by_key:
                raise RegistryFormatError(
                    f"duplicate canonical problem for entry {entry.id}")
            if entry.id in ids:
                raise RegistryFormatError(f"duplicate id {entry.id}")
            ids.add(entry.id)
            self._by_key[entry.key] = entry
        self.text = dumps(self) if text is None else text

    def __len__(self):
        return len(self.entries)

    def lookup(self, key):
        """Entry for a canonical (logset, twist) key, or None."""
        return self._by_key.get(key)


def _is_ints(value, length):
    """A JSON list of `length` integers (booleans excluded)."""
    return (isinstance(value, list) and len(value) == length
            and all(type(x) is int for x in value))


def loads(text):
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise RegistryFormatError(f"line {lineno}: expected 4 fields")
        values = {}
        for field in fields:
            name, sep, value = field.partition("=")
            if not sep or name not in ("id", "logset", "twist", "justification"):
                raise RegistryFormatError(f"line {lineno}: bad field {name!r}")
            values[name] = value
        if len(values) != 4:
            raise RegistryFormatError(f"line {lineno}: missing fields")
        if len(entries) == MAX_REGISTRY_ENTRIES:
            raise RegistryFormatError(
                f"line {lineno}: more than {MAX_REGISTRY_ENTRIES} entries")
        try:
            poles = json.loads(values["logset"])
            twist = json.loads(values["twist"])
            if not (_is_ints(twist, 5) and isinstance(poles, list)
                    and all(_is_ints(p, 2) for p in poles)):
                raise ValueError("expected a twist of 5 integers and poles "
                                 "that are pairs of integers")
            logset = tuple(make_pair(i, j) for i, j in poles)
        except (ValueError, RecursionError) as exc:
            raise RegistryFormatError(f"line {lineno}: {exc}") from exc
        if list(logset) != sorted(set(logset)):
            raise RegistryFormatError(f"line {lineno}: pole set not sorted")
        entries.append(RegistryEntry(values["id"], logset,
                                     DivisorClass.from_tuple(twist),
                                     values["justification"]))
    if [e.key for e in entries] != sorted(e.key for e in entries):
        raise RegistryFormatError("entries not sorted by (logset, twist)")
    return Registry(entries, text)


def dumps(registry):
    lines = [_HEADER.rstrip("\n")]
    for entry in registry.entries:
        logset = json.dumps([list(p) for p in entry.logset],
                            separators=(",", ":"))
        twist = json.dumps(list(entry.twist.as_tuple()), separators=(",", ":"))
        lines.append("\t".join((
            f"id={entry.id}",
            f"logset={logset}",
            f"twist={twist}",
            f"justification={entry.justification}",
        )))
    return "\n".join(lines) + "\n"


def load_path(path):
    with open(path, "rb") as handle:
        data = handle.read(MAX_REGISTRY_BYTES + 1)
    if len(data) > MAX_REGISTRY_BYTES:
        raise RegistryFormatError(f"longer than {MAX_REGISTRY_BYTES} bytes")
    # newlines translated as a text-mode read would, so the digest is unchanged
    return loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))


def default_registry_text():
    return resources.files(DATA_PACKAGE).joinpath(DATA_PATH).read_text("utf-8")


def default_registry():
    return loads(default_registry_text())


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derive(n=5):
    """Regenerate the registry from scratch at the given exponent.

    Runs the rigidity report with an empty registry and makes one entry
    per unresolved canonical problem, in the report's order; at exponent 5
    each of these is covered by ball-quotient rigidity.  A non-vanishing
    verdict at the derivation exponent would contradict that theorem, so
    it raises."""
    # invariants imports this module, so the import waits for the call.
    from .invariants import rigidity_report

    report = rigidity_report(n, Registry(()))
    if report.nonvanishing:
        raise RuntimeError(
            f"non-vanishing at exponent {n} contradicts ball-quotient "
            f"rigidity: {report.nonvanishing[0]}")
    entries = []
    for num, (logset, twist) in enumerate(report.unresolved_keys, start=1):
        justification = (_JUSTIFICATION_INVARIANT if not logset
                         else _JUSTIFICATION_BALL)
        entries.append(RegistryEntry(f"axiom-{num:02d}", logset,
                                     DivisorClass.from_tuple(twist),
                                     justification))
    return Registry(entries)
