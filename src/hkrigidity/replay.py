"""Independent certificate replay.

This module re-validates every certificate the proof engine emits while
sharing none of its arithmetic: line classes, intersection numbers, Euler
characteristics and lattice ranks are recomputed from first principles
here.  Line-by-line intersection numbers come from one table:
`build_table` computes it from the class vectors, and `validate_table`
compares every entry with the pair-overlap rule, a second route that
shares no code with the first.  Replay builds and validates the table
once, on first use, and holds it read-only from then on.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .vanishing import (
    DropLines,
    ExternalAxiom,
    GvtWitness,
    NonVanishing,
    VanishingProblem,
    canonical_problem,
)


class ReplayError(ValueError):
    """The certificate is not a checkable vanishing/non-vanishing claim."""


ALL_PAIRS = tuple((i, j) for i in range(1, 6) for j in range(i + 1, 6))


def line_vector(pair):
    """Class vector (deg, -multiplicities) of an arrangement line, rebuilt
    from the blow-up description: the line through points i and 5 is the
    exceptional curve over point i, the line through i, j < 5 is the strict
    transform of the plane line missing points i and j."""
    i, j = pair
    if i > j:
        i, j = j, i
    if not (1 <= i < j <= 5):
        raise ReplayError(f"not a line label: {pair}")
    if j == 5:
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        return (0, e[0], e[1], e[2], e[3])
    h, k = sorted(set((1, 2, 3, 4)) - {i, j})
    e = [0, 0, 0, 0]
    e[h - 1] = -1
    e[k - 1] = -1
    return (1, e[0], e[1], e[2], e[3])


def form_product(u, v):
    """Intersection form of signature (1,4) on class vectors."""
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def build_table():
    """Full ordered table of line pair intersection numbers."""
    return {(p, q): form_product(line_vector(p), line_vector(q))
            for p in ALL_PAIRS for q in ALL_PAIRS}


def validate_table(table):
    """True when all 100 ordered entries are present and each equals the
    pair-overlap rule: -1 for the same pair, 0 for pairs sharing one index
    (disjoint lines), 1 for disjoint pairs (lines meeting in a point)."""
    if set(table) != {(p, q) for p in ALL_PAIRS for q in ALL_PAIRS}:
        return False
    return all(table[(p, q)] == (1, 0, -1)[len(set(p) & set(q))] for p, q in table)


def matrix_rank(vectors):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(5):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _vec_sum(pairs):
    total = (0, 0, 0, 0, 0)
    for p in pairs:
        total = tuple(a + b for a, b in zip(total, line_vector(p)))
    return total


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    reason: str = ""


def _fail(reason):
    return ReplayResult(False, reason)


def chi_of(problem):
    twist = problem.twist.as_tuple()
    total = form_product(twist, twist) - (problem.blowups + 1)
    for p in problem.logset:
        total += 1 + form_product(line_vector(p), twist)
    return total


def replay(problem, cert, registry):
    """Re-validate a certificate against its problem from scratch; axiom
    certificates must name the registry.Registry entry of their problem."""
    return _replay(problem, cert, registry)


@cache
def _honest_table():
    """The intersection table, built and validated on first use and
    read-only from then on."""
    table = build_table()
    if not validate_table(table):
        raise ReplayError("the built intersection table fails validation")
    return MappingProxyType(table)


def _replay(problem, cert, registry):
    if isinstance(cert, NonVanishing):
        chi = chi_of(problem)
        if chi != cert.chi or chi >= 0:
            return _fail(f"chi mismatch: recomputed {chi}, certificate {cert.chi}")
        if cert.h1_lower_bound != -chi:
            return _fail("h1 bound does not equal -chi")
        return ReplayResult(True)

    if isinstance(cert, GvtWitness):
        return _replay_gvt(problem, cert)

    if isinstance(cert, DropLines):
        twist = problem.twist.as_tuple()
        removed = set(cert.removed)
        if len(removed) != len(cert.removed):
            return _fail("repeated removed lines")
        if not removed <= problem.logset:
            return _fail("removed lines not all in the pole set")
        for p in removed:
            if form_product(line_vector(p), twist) != -1:
                return _fail(f"removed line {p} does not meet the twist in -1")
        reduced = VanishingProblem(problem.logset - removed, problem.twist)
        return _replay(reduced, cert.inner, registry)

    if isinstance(cert, ExternalAxiom):
        key, _ = canonical_problem(problem.logset, problem.twist)
        entry = registry.lookup(key)
        if entry is None:
            return _fail("canonical problem not in the registry")
        if entry.id != cert.registry_id:
            return _fail(f"registry id mismatch: {entry.id} != {cert.registry_id}")
        return ReplayResult(True)

    raise ReplayError(f"not a replayable certificate: {cert!r}")


def _replay_gvt(problem, cert):
    table = _honest_table()
    a_lines = tuple(cert.a_lines)
    b_lines = tuple(cert.b_lines)
    aset, bset = set(a_lines), set(b_lines)
    if len(aset) != len(a_lines) or len(bset) != len(b_lines):
        return _fail("repeated witness lines")
    if aset & bset:
        return _fail("A and B overlap")
    if not bset <= problem.logset:
        return _fail("B not contained in the pole set")
    twist = problem.twist.as_tuple()
    diff = tuple(a - b for a, b in zip(_vec_sum(aset), _vec_sum(bset)))
    if diff != twist:
        return _fail("class identity A - B = twist fails")
    for p in aset & problem.logset:
        if form_product(line_vector(p), twist) < -1:
            return _fail(f"criterion condition 2 fails at {p}")
    support = problem.logset | aset
    for p in aset:
        meet = sum(table[(p, q)] for q in support if q not in bset)
        if meet < 1:
            return _fail(f"criterion condition 3 fails at {p}")
    orthogonal = [line_vector(p) for p in support
                  if all(table[(p, q)] == 0 for q in bset)]
    correction = 0
    for p in support - bset:
        hits = sum(table[(p, q)] for q in bset)
        if hits > 0:
            correction += hits - 1
    bound = problem.blowups + 1 - len(bset) + correction
    if matrix_rank(orthogonal) < bound:
        return _fail(f"criterion condition 4 fails: rank {matrix_rank(orthogonal)}"
                     f" below {bound}")
    return ReplayResult(True)
