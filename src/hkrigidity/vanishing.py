"""Certified vanishing of first cohomology for twisted logarithmic 1-form
sheaves on the blown-up plane.

The unit of work is a problem (T, twist): T is a set of arrangement lines
carrying logarithmic poles, the twist is any divisor class.  The engine
certifies h^1 = 0 through three rules

  * a direct witness for the general vanishing criterion (a decomposition
    twist = A - B into sums of distinct lines satisfying four integer
    conditions),
  * dropping poles along lines meeting the twist in -1 (cohomology is
    unchanged in both directions),
  * an external axiom registry for the residue of problems the witness
    search cannot close (classical rigidity facts, recorded with their
    justification),

or reports forced non-vanishing when the Euler characteristic is negative
and h^2 vanishes.  Certificates are plain data and replay through an
independent checker; the search is never trusted.
"""

from dataclasses import dataclass
from functools import cache

from .picard import (
    PAIRS,
    PERMS,
    ZERO,
    DivisorClass,
    class_of,
    make_pair,
    map_pair,
    pairing,
    rank_of,
    s5_transform,
)
from .characters import decode_key, geometry_of


class MalformedWitnessError(ValueError):
    """A proposed witness violates the structural preconditions."""


@dataclass(frozen=True)
class VanishingProblem:
    """Log-pole line set plus twist class; h2_zero records the axiom that
    the sheaf has no second cohomology (true for all problems derived
    from covering characters with exponent at least 3).  The class
    constant blowups is the number of blown-up points of the surface."""

    logset: frozenset
    twist: DivisorClass
    h2_zero: bool = True

    blowups = 4

    def sorted_lines(self):
        return tuple(sorted(self.logset))


def problem_of(psi):
    """The vanishing problem controlling the psi-isotypical part of the
    covering surface's infinitesimal deformations."""
    g = geometry_of(psi)
    return VanishingProblem(logset=g.logset, twist=g.twist, h2_zero=psi.n >= 3)


def problem_of_key(key, n):
    """The problem of a characters.problem_keys key at exponent n."""
    logset, twist = decode_key(key)
    return VanishingProblem(logset=logset, twist=twist, h2_zero=n >= 3)


def chi_log(logset, twist):
    """Euler characteristic of the twisted log 1-form sheaf."""
    total = pairing(twist, twist) - (VanishingProblem.blowups + 1)
    for p in logset:
        total += 1 + pairing(class_of(p), twist)
    return total


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class GvtWitness:
    a_lines: tuple
    b_lines: tuple

    kind = "gvt"


@dataclass(frozen=True)
class DropLines:
    removed: tuple
    inner: object

    kind = "drop"


@dataclass(frozen=True)
class ExternalAxiom:
    registry_id: str

    kind = "registry"


@dataclass(frozen=True)
class NonVanishing:
    chi: int
    h1_lower_bound: int

    kind = "nonvanishing"


@dataclass(frozen=True)
class Unresolved:
    canonical_logset: tuple
    canonical_twist: tuple

    kind = "unresolved"


def certificate_chain(cert):
    """A certificate followed by each nested `.inner` certificate."""
    while cert is not None:
        yield cert
        cert = getattr(cert, "inner", None)


def rules_used(cert):
    """Set of rule kinds appearing anywhere in a certificate tree."""
    return {node.kind for node in certificate_chain(cert)}


# ---------------------------------------------------------------------------
# The vanishing-criterion check and its witness search


@dataclass(frozen=True)
class GvtReport:
    """Outcome of the four conditions of the vanishing criterion.

    h2_ok: the h^2 axiom flag is set.
    pole_twist_ok: every witness line carrying a log pole meets the twist
        in at least -1.
    positivity_ok: every witness line meets the residual pole-plus-witness
        divisor positively.
    rank_ok: the lines orthogonal to all of B span enough of the lattice,
        after the correction term for lines meeting B more than once.
    """

    h2_ok: bool
    pole_twist_ok: bool
    positivity_ok: bool
    rank_ok: bool
    rank_value: int
    rank_bound: int
    correction: int

    @property
    def passed(self):
        return self.h2_ok and self.pole_twist_ok and self.positivity_ok and self.rank_ok


def gvt_check(prob, a_lines, b_lines):
    """Evaluate the vanishing-criterion conditions for a decomposition
    twist = (sum of A) - (sum of B).  Structural violations raise; the
    four conditions are reported individually."""
    aset = frozenset(make_pair(*p) for p in a_lines)
    bset = frozenset(make_pair(*p) for p in b_lines)
    if len(aset) != len(tuple(a_lines)) or len(bset) != len(tuple(b_lines)):
        raise MalformedWitnessError("repeated lines in witness")
    if aset & bset:
        raise MalformedWitnessError("A and B overlap")
    if not bset <= prob.logset:
        raise MalformedWitnessError("B not contained in the log-pole set")
    a_class = _class_sum(aset)
    b_class = _class_sum(bset)
    if a_class - b_class != prob.twist:
        raise MalformedWitnessError("class identity A - B = twist fails")

    twist = prob.twist
    cond2 = all(pairing(class_of(p), twist) >= -1 for p in aset & prob.logset)

    support = prob.logset | aset
    residual = _class_sum(support) - b_class
    cond3 = all(pairing(class_of(p), residual) >= 1 for p in aset)

    correction = 0
    orthogonal = []
    for p in support:
        cp = class_of(p)
        if all(pairing(cp, class_of(q)) == 0 for q in bset):
            orthogonal.append(cp)
        if p not in bset:
            hits = pairing(cp, b_class)
            if hits > 0:
                correction += hits - 1
    rank_value = rank_of(orthogonal)
    rank_bound = prob.blowups + 1 - len(bset) + correction
    return GvtReport(h2_ok=prob.h2_zero, pole_twist_ok=cond2,
                     positivity_ok=cond3, rank_ok=rank_value >= rank_bound,
                     rank_value=rank_value, rank_bound=rank_bound,
                     correction=correction)


def _class_sum(pairs):
    return sum(map(class_of, pairs), ZERO)


@cache
def _subset_sums():
    """Line bitmasks by the class sum of their lines, built on first use."""
    sums = {}
    for mask in range(1 << len(PAIRS)):
        total = _class_sum(PAIRS[k] for k in range(len(PAIRS)) if mask >> k & 1)
        sums.setdefault(total.as_tuple(), []).append(mask)
    return {key: tuple(masks) for key, masks in sums.items()}


_PAIR_BIT = {p: k for k, p in enumerate(PAIRS)}


def _mask_pairs(mask):
    return tuple(PAIRS[k] for k in range(len(PAIRS)) if mask >> k & 1)


def gvt_search(prob):
    """First witness (A, B) passing all criterion conditions, or None.

    Deterministic order: B runs over subsets of the sorted log-pole set
    by ascending bitmask; for each B, candidate A sets with the required
    class sum come from a precomputed table, by ascending line bitmask.
    """
    lines = prob.sorted_lines()
    for bmask in range(1 << len(lines)):
        b = tuple(lines[k] for k in range(len(lines)) if bmask >> k & 1)
        target = (prob.twist + _class_sum(b)).as_tuple()
        b_bits = 0
        for p in b:
            b_bits |= 1 << _PAIR_BIT[p]
        for amask in _subset_sums().get(target, ()):
            if amask & b_bits:
                continue
            a = _mask_pairs(amask)
            if gvt_check(prob, a, b).passed:
                return a, b
    return None


# ---------------------------------------------------------------------------
# Reductions


def drop_reduce(prob):
    """Remove every pole line meeting the twist in exactly -1.

    The quotient along each such line has no cohomology, so h^0 and h^1
    agree between the two problems in both directions.  Returns the
    reduced problem and the tuple of removed lines."""
    removed = tuple(sorted(p for p in prob.logset
                           if pairing(class_of(p), prob.twist) == -1))
    if not removed:
        return prob, ()
    reduced = VanishingProblem(prob.logset - set(removed), prob.twist,
                               prob.h2_zero)
    return reduced, removed


# ---------------------------------------------------------------------------
# Canonical forms under the index symmetry


def canonical_problem(logset, twist):
    """Lexicographically least image of (logset, twist) over all 120 index
    permutations; returns (key, permutation achieving it)."""
    best = None
    best_t = None
    for t in PERMS:
        ls = tuple(sorted(map_pair(t, p) for p in logset))
        tw = s5_transform(t, twist).as_tuple()
        key = (ls, tw)
        if best is None or key < best:
            best, best_t = key, t
    return best, best_t


# ---------------------------------------------------------------------------
# The proof pipeline


class ProofEngine:
    """Deterministic certificate pipeline over problems.

    Each problem passes once through a fixed sequence of stages: forced
    non-vanishing when the Euler characteristic is negative (with the h^2
    axiom), then pole dropping, then the direct witness search, then the
    axiom registry keyed on the canonical form.  The canonical form is
    computed only when the witness search fails; it keys the registry and
    the unresolved record.

    Results are memoized per exact problem.
    """

    def __init__(self, registry=None):
        self.registry = registry
        self._memo = {}

    def prove(self, prob):
        cert = self._memo.get(prob)
        if cert is None:
            cert = self._memo[prob] = self._solve(prob)
        return cert

    def prove_character(self, psi):
        return self.prove(problem_of(psi))

    def _solve(self, prob):
        chi = chi_log(prob.logset, prob.twist)
        if chi < 0 and prob.h2_zero:
            return NonVanishing(chi, -chi)

        reduced, removed = drop_reduce(prob)
        found = gvt_search(reduced)
        if found:
            a, b = found
            cert = GvtWitness(tuple(sorted(a)), tuple(sorted(b)))
        else:
            ckey, _ = canonical_problem(reduced.logset, reduced.twist)
            entry = None if self.registry is None else self.registry.lookup(ckey)
            if entry is None:
                return Unresolved(*ckey)
            cert = ExternalAxiom(entry.id)
        return DropLines(removed, cert) if removed else cert
