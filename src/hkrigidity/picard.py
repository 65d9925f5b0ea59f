"""Integral model of the Picard lattice of the degree-5 del Pezzo surface.

The surface Y is the plane blown up in four points in general position.
Divisor classes live in ZZ^5 with basis (L, E1, E2, E3, E4), intersection
form diag(1, -1, -1, -1, -1), canonical class -3L + E1 + E2 + E3 + E4.

Y carries exactly ten lines ((-1)-curves), indexed by the unordered pairs
{i, j} of {1, ..., 5}:

  * {i, 5} with i <= 4 is the exceptional curve over the i-th point,
  * {i, j} inside {1, ..., 4} is the strict transform of the plane line
    through the two points NOT in {i, j}; its class is L - E_h - E_k
    where {h, k} = {1, ..., 4} \\ {i, j}.

Two distinct lines meet iff their index pairs are disjoint, so the whole
intersection combinatorics of the arrangement is the Petersen graph.
The symmetric group S5 permutes the index pairs and extends to lattice
automorphisms; those matrices are built here once and cached.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

Pair = tuple  # (i, j) with 1 <= i < j <= 5

PAIRS: tuple = tuple(combinations(range(1, 6), 2))

# Permutations of {1..5} in one-line notation: t[i-1] is the image of i.
PERMS: tuple = tuple(permutations(range(1, 6)))


def make_pair(i, j):
    """Normalize an unordered index pair to (min, max)."""
    if i == j or not (1 <= i <= 5 and 1 <= j <= 5):
        raise ValueError(f"not an unordered pair of distinct indices in 1..5: {(i, j)}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class DivisorClass:
    """Element of Pic(Y) in coordinates (ell, e1, e2, e3, e4)."""

    ell: int
    e: tuple

    def __post_init__(self):
        if len(self.e) != 4:
            raise ValueError("need exactly four exceptional coordinates")

    def __add__(self, other):
        return DivisorClass(self.ell + other.ell,
                            tuple(a + b for a, b in zip(self.e, other.e)))

    def __sub__(self, other):
        return DivisorClass(self.ell - other.ell,
                            tuple(a - b for a, b in zip(self.e, other.e)))

    def __neg__(self):
        return DivisorClass(-self.ell, tuple(-a for a in self.e))

    def __rmul__(self, k):
        return DivisorClass(k * self.ell, tuple(k * a for a in self.e))

    def as_tuple(self):
        return (self.ell,) + tuple(self.e)

    @staticmethod
    def from_tuple(t):
        return DivisorClass(t[0], tuple(t[1:]))


ZERO = DivisorClass(0, (0, 0, 0, 0))
CANONICAL = DivisorClass(-3, (1, 1, 1, 1))


def pairing(a, b):
    """Intersection number of two classes under diag(1,-1,-1,-1,-1)."""
    return a.ell * b.ell - sum(x * y for x, y in zip(a.e, b.e))


def class_of(p):
    """Divisor class of the line indexed by the pair p."""
    i, j = p
    if not (1 <= i < j <= 5):
        raise ValueError(f"not a normalized pair: {p}")
    if j == 5:
        e = [0, 0, 0, 0]
        e[i - 1] = 1
        return DivisorClass(0, tuple(e))
    e = [0, 0, 0, 0]
    for h in range(1, 5):
        if h not in (i, j):
            e[h - 1] = -1
    return DivisorClass(1, tuple(e))


LINE_CLASSES = {p: class_of(p) for p in PAIRS}


def overlap_intersection(p, q):
    """Intersection number of two lines read off the pair combinatorics.

    Distinct lines meet iff their pairs are disjoint; overlap size 1 means
    disjoint curves; a line has self-intersection -1.  This is the second,
    independent route to the same numbers as `pairing` on `class_of`.
    """
    common = len(set(p) & set(q))
    if common == 2:
        return -1
    return 1 if common == 0 else 0


def pencil_class(i):
    """Class of the conic pencil attached to index i.

    For i <= 4 this is L - E_i (lines through the i-th point); for i = 5 it
    is 2L - E1 - E2 - E3 - E4 (conics through all four points).
    """
    if i == 5:
        return DivisorClass(2, (-1, -1, -1, -1))
    if not 1 <= i <= 4:
        raise ValueError(f"pencil index out of range: {i}")
    e = [0, 0, 0, 0]
    e[i - 1] = -1
    return DivisorClass(1, tuple(e))


def pencil_fibers(i):
    """The three reducible fibers of pencil i, each a pair of disjoint lines.

    The fiber components are the three (2,2)-partitions of {1..5} \\ {i}.
    """
    rest = [j for j in range(1, 6) if j != i]
    a = rest[0]
    fibers = []
    for b in rest[1:]:
        c, d = [x for x in rest[1:] if x != b]
        fibers.append((make_pair(a, b), make_pair(c, d)))
    return tuple(fibers)


def rank_of(classes):
    """Rank over QQ of a family of divisor classes (fraction-free elimination)."""
    rows = [list(c.as_tuple()) for c in classes if any(c.as_tuple())]
    rank = 0
    prev = 1
    for col in range(5):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            for c in range(col, 5):
                rows[r][c] = (rows[r][c] * lead - f * rows[rank][c]) // prev
        prev = lead
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# S5 action


def compose(s, t):
    """(s o t)(i) = s(t(i))."""
    return tuple(s[t[i - 1] - 1] for i in range(1, 6))


def invert(t):
    inv = [0] * 5
    for i in range(1, 6):
        inv[t[i - 1] - 1] = i
    return tuple(inv)


def map_pair(t, p):
    """Image of an index pair under a permutation."""
    return make_pair(t[p[0] - 1], t[p[1] - 1])


# PAIR_INDEX[p] is the index of p in PAIRS.  LINE_IMAGES[j][k] is the PAIRS
# index of the image of the line PAIRS[k] under the permutation PERMS[j].
# PAIRS is sorted, so index tuples order as the pair tuples they stand for.
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}
LINE_IMAGES: tuple = tuple(tuple(PAIR_INDEX[map_pair(t, p)] for p in PAIRS)
                           for t in PERMS)


def _matrix_times(m, v):
    """Image of the coordinate tuple v under the 5 x 5 matrix m."""
    return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] + r[3] * v[3] + r[4] * v[4]
                 for r in m)


@lru_cache(maxsize=None)
def _matrix_from_line_images(t):
    """Lattice matrix of a permutation, solved from the ten line images.

    The basis images are forced: E_i = class({i,5}) must go to the class of
    the permuted pair, and L = class({1,2}) + E3 + E4 pins down the image
    of L by linearity.
    """
    def image(p):
        return LINE_CLASSES[map_pair(t, p)].as_tuple()

    e_img = [image((i, 5)) for i in range(1, 5)]
    l_img = tuple(map(sum, zip(image((1, 2)), e_img[2], e_img[3])))
    cols = [l_img] + e_img
    m = tuple(tuple(cols[c][r] for c in range(5)) for r in range(5))
    for p in PAIRS:
        if _matrix_times(m, LINE_CLASSES[p].as_tuple()) != image(p):
            raise RuntimeError(f"lattice action inconsistent for {t} at pair {p}")
    return m


def s5_transform(t, cls):
    """Lattice automorphism induced by a permutation of the five indices."""
    m = _matrix_from_line_images(tuple(t))
    return DivisorClass.from_tuple(_matrix_times(m, cls.as_tuple()))


# ---------------------------------------------------------------------------
# Rank-dependency census of the line classes


@dataclass(frozen=True)
class DependencyReport:
    passed: bool
    checked: int
    counterexamples: tuple


def _six_is_deficient(pairs6):
    """Expected rank-4 patterns for six lines.

    Either all six pairs avoid one index (the six lines disjoint from the
    four pencil fibers at that index), or all six meet a fixed pair {i,j}
    in exactly one element.
    """
    for j in range(1, 6):
        if all(j not in p for p in pairs6):
            return True
    for ij in combinations(range(1, 6), 2):
        s = set(ij)
        if all(len(s & set(p)) == 1 for p in pairs6):
            return True
    return False


def _five_is_deficient(pairs5):
    """Five lines drop rank iff they contain two reducible fibers of one pencil."""
    got = set(pairs5)
    for j in range(1, 6):
        inside = sum(1 for f in pencil_fibers(j) if set(f) <= got)
        if inside >= 2:
            return True
    return False


def verify_dependencies():
    """Exhaustive rank census of all subsets of the ten line classes.

    Checks that rank deficiency happens exactly in the predicted patterns:
    size-5 and size-6 subsets drop to rank 4 under the conditions above and
    nowhere else, and every subset of size >= 7 has full rank 5.
    """
    bad = []
    checked = 0
    for k in range(5, 11):
        for subset in combinations(PAIRS, k):
            checked += 1
            r = rank_of([LINE_CLASSES[p] for p in subset])
            if k == 5:
                expect = 4 if _five_is_deficient(subset) else 5
            elif k == 6:
                expect = 4 if _six_is_deficient(subset) else 5
            else:
                expect = 5
            if r != expect:
                bad.append((subset, r, expect))
    return DependencyReport(passed=not bad, checked=checked, counterexamples=tuple(bad))
