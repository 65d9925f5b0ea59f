"""Characters of (Z/n)^5 attached to the exponent-n abelian covering
branched on the ten lines.

A character assigns a residue to the local monodromy loop of each line.
Five loops are a basis; the other five values are forced by the loop
relations of the complement.  From the ten values we derive the class of
the character's eigensheaf, the twist used by the vanishing engine, the
set of lines carrying logarithmic poles, and a 17-case classification of
the twist vector.

Everything is exact integer arithmetic.  numpy sweeps whole blocks of
characters into symmetry orbits and packed problem keys, with every check of
geometry_of; geometry_of and the other per-character functions are the oracle
that tests and the benchmark hold the sweeps against, and no subcommand calls them.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import numpy as np

from .picard import (
    CANONICAL,
    LINE_CLASSES,
    LINE_IMAGES,
    PAIR_INDEX,
    PAIRS,
    PERMS,
    ZERO,
    DivisorClass,
    class_of,
    make_pair,
    map_pair,
    overlap_intersection,
    pairing,
    pencil_class,
    rank_of,
)


class InternalInconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class ClassificationError(RuntimeError):
    """A rank-deficient log-pole set matches none of the known shapes."""


# The five basis loops, in the order matching the residue tuple (a1..a5).
BASIS_PAIRS = ((1, 4), (2, 4), (3, 4), (2, 3), (1, 3))

# Integer linear form (in a1..a5) giving each line's loop value; the five
# non-basis forms follow from the loop relations of the line complement.
LOOP_FORMS = {
    (1, 4): (1, 0, 0, 0, 0),
    (2, 4): (0, 1, 0, 0, 0),
    (3, 4): (0, 0, 1, 0, 0),
    (2, 3): (0, 0, 0, 1, 0),
    (1, 3): (0, 0, 0, 0, 1),
    (1, 2): (-1, -1, -1, -1, -1),
    (4, 5): (-1, -1, -1, 0, 0),
    (1, 5): (0, 1, 1, 1, 0),
    (2, 5): (1, 0, 1, 0, 1),
    (3, 5): (0, 0, -1, -1, -1),
}

# Row i is the loop form of the line PAIRS[i]; _CLASS_COLUMNS[k] holds
# coordinate k of the lines' classes, in the same order.
LOOP_MATRIX = np.array([LOOP_FORMS[p] for p in PAIRS], dtype=np.int64)
_CLASS_COLUMNS = tuple(zip(*(LINE_CLASSES[p].as_tuple() for p in PAIRS)))

QUADRANGLE_PAIRS = tuple(p for p in PAIRS if 5 not in p)
EXCEPTIONAL_PAIRS = tuple(p for p in PAIRS if 5 in p)


@dataclass(frozen=True)
class Character:
    """Residue vector (a1..a5) modulo n; constructor reduces into [0,n)."""

    n: int
    a: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("modulus must be at least 2")
        if len(self.a) != 5:
            raise ValueError("need exactly five residue values")
        object.__setattr__(self, "a", tuple(x % self.n for x in self.a))

    @property
    def a6(self):
        return (-sum(self.a)) % self.n

    @property
    def is_zero(self):
        return all(x == 0 for x in self.a)

    def loop(self, p):
        """Loop value on the line indexed by p, as a residue in [0,n)."""
        form = LOOP_FORMS[make_pair(*p)]
        return sum(c * x for c, x in zip(form, self.a)) % self.n


# case id -> (sorted multiset of point excesses / n, exceptional total / n);
# used to cross-check the classification read off the twist vector.
_CASE_PATTERNS = {
    1: ((0, 0, 0, 1), 1),
    2: ((0, 0, 0, 0), 2),
    3: ((0, 0, 0, 2), 2),
    4: ((1, 1, 1, 1), 0),
    5: ((0, 1, 1, 1), 1),
    6: ((0, 0, 1, 1), 2),
    7: ((0, 0, 0, 1), 3),
    8: ((1, 1, 1, 2), 1),
    9: ((0, 1, 1, 2), 2),
    10: ((1, 1, 1, 1), 2),
    11: ((0, 0, 1, 2), 3),
    12: ((0, 1, 1, 1), 3),
    13: ((2, 2, 2, 2), 0),
    14: ((1, 2, 2, 2), 1),
    15: ((1, 1, 2, 2), 2),
    16: ((1, 1, 1, 2), 3),
    17: ((2, 2, 2, 2), 2),
}

# twist vector shape (ell coefficient, sorted exceptional coefficients) -> case
_CASE_BY_TWIST = {
    (-2, (0, 1, 1, 1)): 1,
    (-2, (1, 1, 1, 1)): 2,
    (-1, (-1, 1, 1, 1)): 3,
    (-1, (0, 0, 0, 0)): 4,
    (-1, (0, 0, 0, 1)): 5,
    (-1, (0, 0, 1, 1)): 6,
    (-1, (0, 1, 1, 1)): 7,
    (0, (-1, 0, 0, 0)): 8,
    (0, (-1, 0, 0, 1)): 9,
    (0, (0, 0, 0, 0)): 10,
    (0, (-1, 0, 1, 1)): 11,
    (0, (0, 0, 0, 1)): 12,
    (1, (-1, -1, -1, -1)): 13,
    (1, (-1, -1, -1, 0)): 14,
    (1, (-1, -1, 0, 0)): 15,
    (1, (-1, 0, 0, 0)): 16,
    (2, (-1, -1, -1, -1)): 17,
}

CASE_TRIVIAL = 0


@dataclass(frozen=True)
class CharacterGeometry:
    """Derived data of one character.

    quad_total: sum of the six loop values on the quadrangle lines (the
        L coefficient of n times the eigensheaf class).
    point_excess: per blown-up point, the carry (a multiple of n) in the
        sum of the three loop values of the lines through that point.
    exc_total: sum of the four loop values on the exceptional curves.
    eigenclass: class of the character's eigensheaf.
    twist: canonical class plus eigenclass; the twist of the log sheaf.
    logset: lines whose loop value is not n-1 (logarithmic poles).
    case_id: 0 for the zero character, else 1..17 by twist-vector shape.
    """

    quad_total: int
    point_excess: tuple
    exc_total: int
    eigenclass: DivisorClass
    twist: DivisorClass
    logset: frozenset
    case_id: int


def geometry_of(psi):
    n = psi.n
    loops = {p: sum(c * x for c, x in zip(LOOP_FORMS[p], psi.a)) % n for p in PAIRS}

    # Route one: the eigensheaf class reconstructed line by line.
    total = [sum(l * c for l, c in zip(loops.values(), col)) for col in _CLASS_COLUMNS]
    if any(x % n for x in total):
        raise InternalInconsistencyError(
            f"loop-weighted class sum not divisible by n for {psi}")
    eigenclass = DivisorClass.from_tuple(tuple(x // n for x in total))

    # Route two: the closed carry formulas, point by point.
    a1, a2, a3, a4, a5 = psi.a
    a6 = psi.a6
    quad_total = a1 + a2 + a3 + a4 + a5 + a6
    sigmas = (a2 + a3 + a4, a1 + a3 + a5, a1 + a2 + a6, a4 + a5 + a6)
    point_excess = tuple(s - s % n for s in sigmas)
    exc_total = sum(loops[p] for p in EXCEPTIONAL_PAIRS)

    if quad_total % n or quad_total != sum(loops[p] for p in QUADRANGLE_PAIRS):
        raise InternalInconsistencyError(f"quadrangle total inconsistent for {psi}")
    if any(l % n or not 0 <= l <= 2 * n for l in point_excess):
        raise InternalInconsistencyError(f"point excess out of pattern for {psi}")
    if sum(point_excess) != 2 * quad_total - exc_total:
        raise InternalInconsistencyError(f"excess sum identity fails for {psi}")
    expected = DivisorClass(quad_total // n, tuple(-l // n for l in point_excess))
    if eigenclass != expected:
        raise InternalInconsistencyError(
            f"eigenclass routes disagree for {psi}: {eigenclass} vs {expected}")

    twist = CANONICAL + eigenclass
    logset = frozenset(p for p in PAIRS if loops[p] != n - 1)

    if psi.is_zero:
        case_id = CASE_TRIVIAL
    else:
        key = (twist.ell, tuple(sorted(twist.e)))
        case_id = _CASE_BY_TWIST.get(key)
        if case_id is None:
            raise InternalInconsistencyError(f"unclassified twist {key} for {psi}")
        pattern = (tuple(sorted(l // n for l in point_excess)), exc_total // n)
        if _CASE_PATTERNS[case_id] != pattern:
            raise InternalInconsistencyError(
                f"case {case_id} pattern mismatch for {psi}: {pattern}")

    return CharacterGeometry(quad_total=quad_total, point_excess=point_excess,
                             exc_total=exc_total, eigenclass=eigenclass,
                             twist=twist, logset=logset, case_id=case_id)


# ---------------------------------------------------------------------------
# Symmetry action and orbit enumeration


@lru_cache(maxsize=None)
def char_matrix(t):
    """Matrix of the pullback action on residue vectors: row k is the loop
    form of the permuted k-th basis pair."""
    return tuple(LOOP_FORMS[map_pair(t, bp)] for bp in BASIS_PAIRS)


def s5_act(t, psi):
    """Pullback of a character along a permutation of the five indices.

    The result's loop value on a pair is the old value on the permuted
    pair, so log-pole sets transport by the inverse permutation.  This is
    a right action: acting by s then t equals acting by t o s.
    """
    m = char_matrix(tuple(t))
    a = tuple(sum(c * x for c, x in zip(row, psi.a)) % psi.n for row in m)
    return Character(psi.n, a)


# Rows of residue codes swept at once: all codes in code_blocks, and the
# candidate codes of survivor_blocks, whole kept prefixes of n^2 <= 1600 each.
CHUNK = 1 << 13

# picard.LINE_IMAGES as an array, and the PAIRS indices of the basis lines.
_LINE_IMAGES = np.array(LINE_IMAGES, dtype=np.int64)
_BASIS_INDICES = np.array([PAIR_INDEX[p] for p in BASIS_PAIRS])

# The survivor filter applies these permutations first: greedily chosen at
# n = 12 over all codes, each discards the most of the codes the earlier
# ones kept.  The first chosen, (2, 3, 5, 4, 1), fixes index 4 and is left
# out, as no such permutation lowers a kept prefix.  Three that remain fix
# index 4, the transpositions (1 2), (2 3) and (3 5): each swaps two adjacent
# entries of a kept prefix's sorted loops through index 4, so it discards
# only codes whose prefix has a tie.  The rest follow in PERMS order.  Any
# order leaves the same survivors.
FILTER_PREFIX = ((4, 5, 2, 1, 3), (1, 2, 5, 4, 3), (1, 3, 2, 4, 5),
                 (4, 3, 5, 1, 2), (4, 2, 3, 1, 5), (3, 2, 1, 5, 4),
                 (2, 1, 3, 4, 5))


def _powers(n):
    """The place values n^4 .. n^0 of the five digits of a code."""
    return n ** np.arange(4, -1, -1, dtype=np.int64)


def _digits(codes, n):
    """Residue vectors of codes, the vectors read as base-n numbers."""
    digits = codes[:, None] // _powers(n)
    digits %= n
    return digits


def _loops(digits, n):
    """Loop values of residue rows, one column per line of PAIRS."""
    loops = digits @ LOOP_MATRIX.T
    loops %= n
    return loops


def code_blocks(n):
    """Every character of (Z/n)^5 once, as (codes, digits, weights) arrays
    of at most CHUNK rows each, in ascending order of the code.  Every
    weight is 1."""
    total = n ** 5
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        yield codes, _digits(codes, n), np.ones(len(codes), dtype=np.int64)


def _image_weights(n, columns):
    """Column j weights the ten loop values into the code of the image
    under PERMS[columns[j]], whose k-th digit is the loop value on the image
    of BASIS_PAIRS[k]."""
    images = _LINE_IMAGES[np.asarray(columns)][:, _BASIS_INDICES]
    weights = np.zeros((len(PAIRS), len(columns)), dtype=np.int64)
    weights[images, np.arange(len(columns))[:, None]] = _powers(n)
    return weights


def kept_prefixes(n):
    """The 3-digit code prefixes (a1, a2, a3), ascending, with
    a1 <= a2 <= a3 <= -(a1+a2+a3) mod n; no code of another prefix is its
    orbit's least.

    The permutations fixing index 4 permute the lines (1,4), (2,4), (3,4),
    (4,5) through it in every order, and these carry the loop values a1,
    a2, a3 and -(a1+a2+a3) mod n.  So the first three digits of the images
    of a code under them are every ordered choice of three of these four
    loops, which depend on the prefix alone, and the least is the three
    smallest, ascending.  A prefix that is not that least is lowered by one
    of these permutations, and so is each of its n^2 codes.
    """
    a1, a2, a3 = _digits(np.arange(n ** 3, dtype=np.int64), n)[:, 2:].T
    return np.flatnonzero((a1 <= a2) & (a2 <= a3) & (a3 <= -(a1 + a2 + a3) % n))


def survivor_blocks(n, chunk=CHUNK):
    """One lexicographically least representative per symmetry orbit, as
    (codes, digits, orbit sizes) arrays, ascending, in blocks of the codes
    of chunk // n^2 kept prefixes (of one where chunk < n^2).

    The candidates are the codes of kept_prefixes(n), which hold every
    orbit's least code.  Loops are linear in the digits, so the loops of
    p + s, for p a kept prefix times n^2 and s < n^2, are those of p plus
    those of s, mod n.  The image of a character under a permutation has
    five of its ten loop values as its digits, so each image code is the
    loop values weighted by powers of n.  Each block of candidates meets the
    permutations in turn, and after each one only the codes whose image is
    not smaller survive; the FILTER_PREFIX ones run one at a time and the
    other 113 at once on their survivors.  What remains is each orbit's
    least element, whose digits are its basis loops, and its orbit size is
    120 over the number of permutations fixing it.  Orbit sizes sum to n^5.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    order = ([PERMS.index(t) for t in FILTER_PREFIX]
             + [j for j, t in enumerate(PERMS) if t not in FILTER_PREFIX])
    weights = _image_weights(n, order)
    head = len(FILTER_PREFIX)
    prefixes = kept_prefixes(n) * n ** 2
    suffixes = np.arange(n ** 2, dtype=np.int64)
    prefix_loops = _loops(_digits(prefixes, n), n)
    suffix_loops = _loops(_digits(suffixes, n), n)
    step = max(1, chunk // n ** 2)
    for start in range(0, len(prefixes), step):
        codes = (prefixes[start:start + step, None] + suffixes).ravel()
        loops = (prefix_loops[start:start + step, None]
                 + suffix_loops).reshape(-1, len(PAIRS))
        loops %= n
        fixed = np.zeros(len(codes), dtype=np.int64)
        for w in weights[:, :head].T:
            image = loops @ w
            fixed += image == codes
            keep = image >= codes
            codes, loops, fixed = codes[keep], loops[keep], fixed[keep]
        images = loops @ weights[:, head:]
        keep = (images >= codes[:, None]).all(axis=1)
        fixed += (images == codes[:, None]).sum(axis=1)
        codes, loops, fixed = codes[keep], loops[keep], fixed[keep]
        yield codes, loops[:, _BASIS_INDICES], len(order) // fixed


def orbit_representatives(n, chunk=CHUNK):
    """[(Character, orbit size)] of survivor_blocks, sorted by
    representative."""
    return [(Character(n, tuple(a)), size)
            for _, digits, sizes in survivor_blocks(n, chunk)
            for a, size in zip(digits.tolist(), sizes.tolist())]


def orbit_count(n):
    """Number of symmetry orbits on (Z/n)^5, by Burnside's lemma.

    A permutation t fixes n^(5-r) * prod gcd(d, n) characters, where the d
    are the r nonzero Smith invariants of its matrix minus the identity.
    These are (0,0,0,1,1) for the 25 involutions, (0,1,1,1,1) for the 44
    three- and five-cycles, (0,1,1,1,2) for the 30 four-cycles and
    (0,1,1,1,3) for the 20 products of a three-cycle and a transposition.
    """
    total = (n ** 5 + 25 * n ** 3 + 44 * n + 30 * gcd(2, n) * n
             + 20 * gcd(3, n) * n)
    if total % 120:
        raise InternalInconsistencyError(f"Burnside sum {total} at n={n}")
    return total // 120


def all_characters(n):
    """Every character of (Z/n)^5 once, in ascending order."""
    return (Character(n, a) for a in product(range(n), repeat=5))


# ---------------------------------------------------------------------------
# Problem keys of whole blocks of characters

# Row i is the class of the line PAIRS[i], as (ell, e1, e2, e3, e4).
CLASS_MATRIX = np.array([class_of(p).as_tuple() for p in PAIRS], dtype=np.int64)
_QUADRANGLE = np.array([5 not in p for p in PAIRS], dtype=np.int64)
# Column j sums a1..a6 over the three lines through the j-th point.
_POINT_SUMS = np.array([(0, 1, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0),
                        (1, 1, 0, 0, 0, 1), (0, 0, 0, 1, 1, 1)],
                       dtype=np.int64).T
_MASK_BITS = 1 << np.arange(len(PAIRS), dtype=np.int64)


def _shape_index(lead, four):
    """lead * 81 plus the base-3 value of four, whose entries are 0..2."""
    return lead * 81 + four @ np.array([27, 9, 3, 1])


def _table(leads, values):
    """values[(lead, sorted four)] at every shape index, in index order;
    -1 where values has no entry."""
    return np.array([values.get((lead, tuple(sorted(four))), -1)
                     for lead in range(leads)
                     for four in product(range(3), repeat=4)], dtype=np.int64)


# _CASE_BY_TWIST by the twist (ell + 3, e + 1), and _CASE_PATTERNS by
# (exceptional total, point excesses) / n, as lookup arrays.
_CASE_OF_TWIST = _table(6, {(ell + 3, tuple(x + 1 for x in e)): case
                            for (ell, e), case in _CASE_BY_TWIST.items()})
_CASE_OF_PATTERN = _table(4, {(total, excess): case
                              for case, (excess, total) in _CASE_PATTERNS.items()})


def _check_rows(digits, n, *checks):
    """Raise for the first row where a check array is nonzero, naming its
    condition; checks are (condition, array) pairs, tried in order."""
    for what, check in checks:
        if check.any():
            row = np.argmax(check.reshape(len(digits), -1).any(axis=1))
            a = tuple(digits[row].tolist())
            raise InternalInconsistencyError(f"{what} for {Character(n, a)}")


BlockGeometry = namedtuple("BlockGeometry", "loops twist")


def block_geometry(digits, n):
    """The loops and twist of every row of an (m, 5) array of residues in
    [0, n), as a BlockGeometry of arrays with one row per character: loops
    has one column per line of PAIRS, and twist is the twist's shape index.

    Every check of geometry_of runs on every row, the agreement of the two
    eigenclass routes and the twist case included, and
    InternalInconsistencyError is raised where geometry_of would raise,
    naming the failed condition in geometry_of's words.
    """
    loops = _loops(digits, n)

    # Route one: the eigensheaf class reconstructed line by line.
    total = loops @ CLASS_MATRIX
    eigen = total // n

    # Route two: the closed carry formulas, point by point.
    residue_sum = digits.sum(axis=1)
    a = np.column_stack((digits, -residue_sum % n))
    quad_total = residue_sum + a[:, 5]
    sigmas = a @ _POINT_SUMS
    excess = sigmas - sigmas % n
    exc_total = loops @ (1 - _QUADRANGLE)

    quadrangle = "quadrangle total inconsistent"
    routes = "eigenclass routes disagree"
    _check_rows(digits, n,
                ("loop-weighted class sum not divisible by n", total % n),
                (quadrangle, quad_total % n),
                (quadrangle, quad_total - loops @ _QUADRANGLE),
                ("point excess out of pattern", (excess < 0) | (excess > 2 * n)),
                ("excess sum identity fails",
                 excess.sum(axis=1) - (2 * quad_total - exc_total)),
                (routes, eigen[:, 0] - quad_total // n),
                (routes, eigen[:, 1:] + excess // n))

    # The twist is the canonical class (-3, 1, 1, 1, 1) plus the eigenclass.
    twist = _shape_index(eigen[:, 0], eigen[:, 1:] + 2)
    case = _CASE_OF_TWIST[twist]
    pattern = _CASE_OF_PATTERN[_shape_index(exc_total // n, excess // n)]
    _check_rows(digits, n, ("twist case inconsistent",
                            (residue_sum != 0) & ((case < 0) | (pattern != case))))

    return BlockGeometry(loops, twist)


def problem_keys(digits, n):
    """The log-pole set and twist of each row of block_geometry(digits, n),
    packed into one integer: bit i is set when the line PAIRS[i] carries a
    logarithmic pole.  decode_key unpacks a key."""
    geo = block_geometry(digits, n)
    return (geo.loops != n - 1) @ _MASK_BITS + (geo.twist << len(PAIRS))


def decode_key(key):
    """(log-pole set, twist class) of a problem_keys key."""
    mask, twist = key % (1 << len(PAIRS)), key >> len(PAIRS)
    logset = frozenset(p for i, p in enumerate(PAIRS) if mask >> i & 1)
    e = tuple(twist // 3 ** k % 3 - 1 for k in (3, 2, 1, 0))
    return logset, DivisorClass(twist // 81 - 3, e)


# ---------------------------------------------------------------------------
# Rank-deficient log-pole sets


@dataclass(frozen=True)
class RankException:
    """Shape of a rank-deficient log-pole set.

    kind: "claw" (one line meeting three mutually disjoint ones), "star"
        (the four pairs through one index), "fiber5" (five pairs avoiding
        one index), or "triangle" (three pairs inside a 3-element set).
    lines: the log-pole pairs, sorted.
    focus: the distinguished datum of the shape - the central pair for a
        claw, the shared index for a star, the avoided index for fiber5,
        the complementary pair for a triangle.
    predicted_twists: candidate twist classes stated for this shape at
        this modulus, or None where no prediction applies.
    """

    kind: str
    lines: tuple
    focus: object
    predicted_twists: tuple


def rank_exception_classify(psi):
    """classify_logset of the character's log-pole set at its modulus."""
    if psi.is_zero:
        raise ValueError("zero character carries no classification")
    return classify_logset(geometry_of(psi).logset, psi.n)


def classify_logset(logset, n):
    """Classify a log-pole set at modulus n whose classes do not span.

    Returns None for full rank.  For deficient sets returns the matching
    shape descriptor; a deficient set matching no shape is an error.
    """
    if rank_of([class_of(p) for p in logset]) == 5:
        return None
    lines = tuple(sorted(logset))

    if len(lines) == 3:
        touched = set()
        for p in lines:
            touched.update(p)
        if len(touched) == 3:
            comp = tuple(sorted(set(range(1, 6)) - touched))
            predicted = (class_of(comp),) if n == 4 else None
            return RankException("triangle", lines, comp, predicted)

    if len(lines) == 4:
        for center in lines:
            rest = [q for q in lines if q != center]
            if (all(overlap_intersection(center, q) == 1 for q in rest)
                    and all(overlap_intersection(q, r) == 0
                            for q, r in combinations(rest, 2))):
                predicted = (class_of(center),) if n >= 5 else None
                return RankException("claw", lines, center, predicted)
        shared = set(lines[0]).intersection(*map(set, lines[1:]))
        if len(shared) == 1:
            index = shared.pop()
            predicted = (pencil_class(index),) if n == 6 else None
            return RankException("star", lines, index, predicted)

    if len(lines) == 5:
        for j in range(1, 6):
            if all(j not in p for p in lines):
                predicted = None
                if n == 4:
                    inside = sum(map(class_of, lines), ZERO)
                    predicted = tuple(
                        class_of(q) - class_of(b) for q in PAIRS
                        if q not in logset and pairing(class_of(q), inside) == 2
                        for b in lines if overlap_intersection(q, b) == 0)
                return RankException("fiber5", lines, j, predicted)

    raise ClassificationError(
        f"rank-deficient log set {lines} at n={n} matches no known shape")
