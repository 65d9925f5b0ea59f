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

or reports forced non-vanishing when the Euler characteristic is negative.
Certificates are plain data and replay through an independent checker; the
search is never trusted.

Non-vanishing reads chi < 0 as h^1 >= -chi, which needs h^2 = 0.  The h^2
of a character block is dual to a character part of H^0 of the covering
surface's tangent sheaf, and that vanishes at every exponent n >= 2.  For
n >= 3 the canonical class of the cover is the pullback of the ample class
((n - 2)/n)(-K_Y) (Bauer-Catanese, arXiv 1609.08128), so the cover is of
general type and has no vector fields.  At n = 2 the canonical class is 0,
chi(O) = 2 and e = 24, so the cover is a K3 surface (Barth-Hulek-Peters-
Van de Ven, Compact Complex Surfaces, ch. VIII), which has none either.
"""

from dataclasses import dataclass
from functools import cache
from operator import add, sub
from typing import NamedTuple

from .picard import (
    LINE_CLASSES,
    PAIRS,
    PERMS,
    DivisorClass,
    _matrix_from_line_images,
    _matrix_times,
    make_pair,
    pairing,
    rank_of,
)
from .characters import decode_key, geometry_of


class MalformedWitnessError(ValueError):
    """A proposed witness violates the structural preconditions."""


@dataclass(frozen=True)
class VanishingProblem:
    """Log-pole line set plus twist class.  The class constant blowups is
    the number of blown-up points of the surface."""

    logset: frozenset
    twist: DivisorClass

    blowups = 4
    # h^2 = 0 for every problem (module docstring); read by the benchmark
    h2_zero = True


def problem_of(psi):
    """The vanishing problem controlling the psi-isotypical part of the
    covering surface's infinitesimal deformations."""
    g = geometry_of(psi)
    return VanishingProblem(logset=g.logset, twist=g.twist)


def problem_of_key(key):
    """The problem of a characters.problem_keys key."""
    return VanishingProblem(*decode_key(key))


# ---------------------------------------------------------------------------
# Integer tables
#
# The engine works on class vectors as plain 5-tuples and on line sets as
# bitmasks (bit k for the line PAIRS[k]).  The tables below are read off
# picard.LINE_CLASSES on first use; picard's pairing, class_of and
# s5_transform stay the definitions they are built from.


def _form(u, v):
    """Intersection number of two class vectors, as picard.pairing."""
    return u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3] - u[4] * v[4]


class _Lines(NamedTuple):
    vector: dict     # line pair -> class vector
    plus: tuple      # per line bit: mask of the lines it meets in +1
    minus: tuple     # per line bit: mask of the lines it meets in -1
    indices: tuple   # per line mask: the bit positions it contains


@cache
def _line_table():
    """The ten lines' class vectors and 10 x 10 meeting numbers, built on
    first use.  Meeting numbers are stored as two bitmasks per line, which
    needs every entry to lie in -1..1 (true on the Petersen arrangement,
    checked here)."""
    plus, minus = [], []
    for p in PAIRS:
        meets = [pairing(LINE_CLASSES[p], LINE_CLASSES[q]) for q in PAIRS]
        if not all(-1 <= m <= 1 for m in meets):
            raise RuntimeError(f"line meeting numbers outside -1..1: {meets}")
        plus.append(sum(1 << k for k, m in enumerate(meets) if m == 1))
        minus.append(sum(1 << k for k, m in enumerate(meets) if m == -1))
    indices = tuple(tuple(k for k in range(len(PAIRS)) if mask >> k & 1)
                    for mask in range(1 << len(PAIRS)))
    vectors = {p: LINE_CLASSES[p].as_tuple() for p in PAIRS}
    return _Lines(vectors, tuple(plus), tuple(minus), indices)


_PAIR_BIT = {p: k for k, p in enumerate(PAIRS)}


def _mask_of(pairs):
    mask = 0
    for p in pairs:
        mask |= 1 << _PAIR_BIT[p]
    return mask


def _mask_pairs(mask):
    return tuple(PAIRS[k] for k in _line_table().indices[mask])


def _mask_class(mask):
    """Class vector of the sum of the lines in mask."""
    vector = _line_table().vector
    total = (0, 0, 0, 0, 0)
    for p in _mask_pairs(mask):
        total = tuple(map(add, total, vector[p]))
    return total


def _meet(lines, k, mask):
    """Intersection number of line PAIRS[k] with the sum of the lines in mask."""
    return (lines.plus[k] & mask).bit_count() - (lines.minus[k] & mask).bit_count()


@cache
def _line_rank(mask):
    """Rank of the classes of the lines in mask (at most 1024 entries)."""
    return rank_of([LINE_CLASSES[p] for p in _mask_pairs(mask)])


@cache
def _subset_sums():
    """Line bitmasks by the class sum of their lines, built on first use."""
    sums = {}
    for mask in range(1 << len(PAIRS)):
        sums.setdefault(_mask_class(mask), []).append(mask)
    return {key: tuple(masks) for key, masks in sums.items()}


def chi_log(logset, twist):
    """Euler characteristic of the twisted log 1-form sheaf."""
    tw = twist.as_tuple()
    vector = _line_table().vector
    total = _form(tw, tw) - (VanishingProblem.blowups + 1)
    for p in logset:
        total += 1 + _form(vector[p], tw)
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
    """Outcome of the vanishing criterion's conditions.  Its h^2 = 0
    condition holds for every problem (module docstring) and is not
    reported.

    pole_twist_ok: every witness line carrying a log pole meets the twist
        in at least -1.
    positivity_ok: every witness line meets the residual pole-plus-witness
        divisor positively.
    rank_ok: the lines orthogonal to all of B span enough of the lattice,
        after the correction term for lines meeting B more than once.
    """

    pole_twist_ok: bool
    positivity_ok: bool
    rank_ok: bool
    rank_value: int
    rank_bound: int
    correction: int

    @property
    def passed(self):
        return self.pole_twist_ok and self.positivity_ok and self.rank_ok


def gvt_check(prob, a_lines, b_lines):
    """Evaluate the vanishing-criterion conditions for a decomposition
    twist = (sum of A) - (sum of B).  Structural violations raise; the
    conditions are reported individually."""
    a_lines, b_lines = tuple(a_lines), tuple(b_lines)
    aset = frozenset(make_pair(*p) for p in a_lines)
    bset = frozenset(make_pair(*p) for p in b_lines)
    if len(aset) != len(a_lines) or len(bset) != len(b_lines):
        raise MalformedWitnessError("repeated lines in witness")
    if aset & bset:
        raise MalformedWitnessError("A and B overlap")
    if not bset <= prob.logset:
        raise MalformedWitnessError("B not contained in the log-pole set")
    amask, bmask = _mask_of(aset), _mask_of(bset)
    twist = prob.twist.as_tuple()
    if tuple(map(sub, _mask_class(amask), _mask_class(bmask))) != twist:
        raise MalformedWitnessError("class identity A - B = twist fails")
    return _criterion(_mask_of(prob.logset), _steep_poles(prob.logset, twist),
                      amask, bmask)


def _steep_poles(logset, twist):
    """Mask of the pole lines meeting the twist vector below -1."""
    vector = _line_table().vector
    return _mask_of(p for p in logset if _form(vector[p], twist) < -1)


def _criterion(logmask, steep, amask, bmask):
    """The criterion conditions for witness masks A and B, given the
    pole mask and the mask of pole lines meeting the twist below -1."""
    lines = _line_table()
    cond2 = not amask & steep

    # residual = (sum of support) - (sum of B)
    support = logmask | amask
    cond3 = all(_meet(lines, k, support) - _meet(lines, k, bmask) >= 1
                for k in lines.indices[amask])

    correction = 0
    orthogonal = 0
    for k in lines.indices[support]:
        if not (lines.plus[k] | lines.minus[k]) & bmask:
            orthogonal |= 1 << k
        if not bmask >> k & 1:
            hits = _meet(lines, k, bmask)
            if hits > 0:
                correction += hits - 1
    rank_value = _line_rank(orthogonal)
    rank_bound = VanishingProblem.blowups + 1 - bmask.bit_count() + correction
    return GvtReport(pole_twist_ok=cond2, positivity_ok=cond3,
                     rank_ok=rank_value >= rank_bound,
                     rank_value=rank_value, rank_bound=rank_bound,
                     correction=correction)


def gvt_search(prob):
    """First witness (A, B) passing all criterion conditions, or None.

    Deterministic order: B runs over the subsets of the log-pole set by
    ascending line bitmask (PAIRS is sorted, so this is ascending bitmask
    over the sorted poles); for each B, candidate A sets with the required
    class sum come from a precomputed table, by ascending line bitmask.
    B lies in the pole set, A is disjoint from B by the skip below, and
    A - B = twist because the table is keyed by class sum, so only the
    criterion conditions are evaluated.
    """
    vector = _line_table().vector
    logmask = _mask_of(prob.logset)
    twist = prob.twist.as_tuple()
    steep = _steep_poles(prob.logset, twist)
    sums = _subset_sums()
    # twist + (sum of B) per visited B; B minus its lowest line comes first
    targets = {0: twist}
    bmask = 0
    while True:
        if bmask:
            low = bmask & -bmask
            targets[bmask] = tuple(map(add, targets[bmask ^ low],
                                       vector[PAIRS[low.bit_length() - 1]]))
        for amask in sums.get(targets[bmask], ()):
            if (not amask & bmask
                    and _criterion(logmask, steep, amask, bmask).passed):
                return _mask_pairs(amask), _mask_pairs(bmask)
        # next subset of the pole mask in ascending order
        bmask = (bmask - logmask) & logmask
        if not bmask:
            return None


# ---------------------------------------------------------------------------
# Reductions


def drop_reduce(prob):
    """Remove every pole line meeting the twist in exactly -1.

    The quotient along each such line has no cohomology, so h^0 and h^1
    agree between the two problems in both directions.  Returns the
    reduced problem and the tuple of removed lines."""
    twist = prob.twist.as_tuple()
    vector = _line_table().vector
    removed = tuple(sorted(p for p in prob.logset
                           if _form(vector[p], twist) == -1))
    if not removed:
        return prob, ()
    return VanishingProblem(prob.logset - set(removed), prob.twist), removed


# ---------------------------------------------------------------------------
# Canonical forms under the index symmetry


def canonical_problem(logset, twist):
    """Lexicographically least image of (logset, twist) over all 120 index
    permutations; returns (key, permutation achieving it first).

    Pole images are mapped as picard.map_pair does, on 0-based positions;
    the twist image is the lattice matrix of picard.s5_transform, computed
    only for permutations whose pole images do not already lose."""
    poles = [(i - 1, j - 1) for i, j in logset]
    v = twist.as_tuple()
    best = None
    best_t = None
    for t in PERMS:
        ls = tuple(sorted([(t[i], t[j]) if t[i] < t[j] else (t[j], t[i])
                           for i, j in poles]))
        if best is not None and ls > best[0]:
            continue
        key = (ls, _matrix_times(_matrix_from_line_images(t), v))
        if best is None or key < best:
            best, best_t = key, t
    return best, best_t


# ---------------------------------------------------------------------------
# The proof pipeline


class ProofEngine:
    """Deterministic certificate pipeline over problems.

    Each problem passes once through a fixed sequence of stages: forced
    non-vanishing when the Euler characteristic is negative, then pole
    dropping, then the direct witness search, then the axiom registry
    (a registry.Registry; Registry(()) is the empty one) keyed on the
    canonical form.  The canonical form is computed only when the witness
    search fails; it keys the registry and the unresolved record.

    Results are memoized per exact problem.
    """

    def __init__(self, registry):
        self.registry = registry
        self._memo = {}

    def prove(self, prob):
        cert = self._memo.get(prob)
        if cert is None:
            cert = self._memo[prob] = self._solve(prob)
        return cert

    def _solve(self, prob):
        chi = chi_log(prob.logset, prob.twist)
        if chi < 0:
            return NonVanishing(chi, -chi)

        reduced, removed = drop_reduce(prob)
        found = gvt_search(reduced)
        if found:
            a, b = found
            cert = GvtWitness(tuple(sorted(a)), tuple(sorted(b)))
        else:
            ckey, _ = canonical_problem(reduced.logset, reduced.twist)
            entry = self.registry.lookup(ckey)
            if entry is None:
                return Unresolved(*ckey)
            cert = ExternalAxiom(entry.id)
        return DropLines(removed, cert) if removed else cert
