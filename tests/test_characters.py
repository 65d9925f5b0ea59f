import hashlib
import random
import re
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from hkrigidity import characters
from hkrigidity.characters import (
    CASE_TRIVIAL,
    CHUNK,
    FILTER_PREFIX,
    LOOP_FORMS,
    Character,
    InternalInconsistencyError,
    char_matrix,
    classify_logset,
    geometry_of,
    kept_prefixes,
    orbit_count,
    orbit_representatives,
    rank_exception_classify,
    s5_act,
    survivor_blocks,
)
from hkrigidity.picard import (
    CANONICAL,
    PAIRS,
    PERMS,
    DivisorClass,
    class_of,
    compose,
    invert,
    map_pair,
    pencil_class,
    rank_of,
    s5_transform,
)


def all_characters(n):
    for a in product(range(n), repeat=5):
        yield Character(n, a)


def test_residue_normalization():
    psi = Character(5, (-1, 7, 5, 4, 9))
    assert psi.a == (4, 2, 0, 4, 4)
    assert psi.a6 == (-(4 + 2 + 0 + 4 + 4)) % 5
    with pytest.raises(ValueError):
        Character(1, (0, 0, 0, 0, 0))


def test_loop_table():
    psi = Character(3, (2, 2, 2, 1, 1))
    assert psi.loop((1, 4)) == 2
    assert psi.loop((2, 4)) == 2
    assert psi.loop((3, 4)) == 2
    assert psi.loop((2, 3)) == 1
    assert psi.loop((1, 3)) == 1
    assert psi.loop((1, 2)) == psi.a6 == 1
    assert psi.loop((4, 5)) == 0  # -(2+2+2) mod 3
    assert psi.loop((1, 5)) == (2 + 2 + 1) % 3
    assert psi.loop((2, 5)) == (2 + 2 + 1) % 3
    assert psi.loop((3, 5)) == (-(2 + 1 + 1)) % 3


def test_zero_character_loops():
    psi = Character(7, (0, 0, 0, 0, 0))
    for p in PAIRS:
        assert psi.loop(p) == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_loop_relation(n):
    # the loop on {1,2} equals the sum of the loops on {3,4},{3,5},{4,5}
    for psi in all_characters(n):
        lhs = psi.loop((1, 2))
        rhs = (psi.loop((3, 4)) + psi.loop((3, 5)) + psi.loop((4, 5))) % n
        assert lhs == rhs


def test_geometry_frozen_example_n3():
    psi = Character(3, (2, 2, 2, 1, 1))
    g = geometry_of(psi)
    assert g.quad_total == 9
    assert g.point_excess == (3, 3, 3, 3)
    assert g.exc_total == 6
    assert g.twist == DivisorClass(0, (0, 0, 0, 0))
    assert g.case_id == 10
    assert g.logset == frozenset({(1, 2), (1, 3), (2, 3), (4, 5)})


def test_geometry_frozen_example_n5_claw():
    psi = Character(5, (4, 4, 4, 1, 1))
    g = geometry_of(psi)
    assert g.twist == class_of((4, 5))
    assert g.case_id == 12
    assert g.logset == frozenset({(4, 5), (2, 3), (1, 3), (1, 2)})


def test_geometry_frozen_example_n5_case15():
    psi = Character(5, (4, 4, 3, 4, 4))
    g = geometry_of(psi)
    assert g.twist == class_of((3, 4))
    assert g.case_id == 15
    assert g.quad_total == 20
    assert g.point_excess == (10, 10, 5, 5)


def test_geometry_zero_character():
    g = geometry_of(Character(4, (0, 0, 0, 0, 0)))
    assert g.case_id == CASE_TRIVIAL
    assert g.eigenclass == DivisorClass(0, (0, 0, 0, 0))
    assert g.twist == CANONICAL
    assert g.logset == frozenset(PAIRS)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_geometry_ranges_and_identities(n):
    for psi in all_characters(n):
        g = geometry_of(psi)
        assert g.quad_total % n == 0 and 0 <= g.quad_total <= 5 * n
        assert (g.quad_total == 0) == psi.is_zero
        assert g.exc_total % n == 0 and 0 <= g.exc_total <= 3 * n
        for l in g.point_excess:
            assert l % n == 0 and 0 <= l <= 2 * n
        assert sum(g.point_excess) == 2 * g.quad_total - g.exc_total
        # full saturation at a point forces that exceptional loop away from n-1
        for i in range(4):
            if g.point_excess[i] == 2 * n:
                assert psi.loop((i + 1, 5)) != n - 1


def test_perturbed_line_row_raises(monkeypatch):
    # every loop-form entry and every class coordinate enters a check
    chars = list(all_characters(4))

    def assert_some_character_raises():
        with pytest.raises(InternalInconsistencyError):
            for psi in chars:
                geometry_of(psi)
        monkeypatch.undo()

    for i, p in enumerate(PAIRS):
        for k in range(5):
            form = list(LOOP_FORMS[p])
            form[k] += 1
            monkeypatch.setitem(LOOP_FORMS, p, tuple(form))
            assert_some_character_raises()
            columns = [list(col) for col in characters._CLASS_COLUMNS]
            columns[k][i] += 1
            monkeypatch.setattr(characters, "_CLASS_COLUMNS", tuple(map(tuple, columns)))
            assert_some_character_raises()


@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("shift,residues,condition", [
    ((1, 0, 0, 0, 0), (0, 0, 0, 0, 0), "quadrangle total inconsistent"),
    ((1, -1, 0, 0, 0), (0, 0, 0, 0, 0), "point excess out of pattern"),
    ((-1, 0, 0, 0, 1), (0, 1, 0, 0, 0), "eigenclass routes disagree"),
])
def test_block_row_outside_residues_names_its_condition(n, shift, residues, condition):
    # shifting a row by multiples of n keeps its loops but breaks a carry
    # formula of route two; the error names that condition and the row
    digits = np.array([(1, 2, 0, 1, 0), np.add(residues, np.multiply(n, shift))])
    message = f"^{condition} for {re.escape(str(Character(n, residues)))}$"
    with pytest.raises(InternalInconsistencyError, match=message):
        characters.block_geometry(digits, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_eigenclass_reconstruction(n):
    for psi in all_characters(n):
        g = geometry_of(psi)
        total = DivisorClass(0, (0, 0, 0, 0))
        for p in PAIRS:
            total = total + psi.loop(p) * class_of(p)
        assert total == n * g.eigenclass
        assert n * g.eigenclass == (
            DivisorClass(g.quad_total, (0, 0, 0, 0))
            - DivisorClass(0, g.point_excess))


# Shape (11) is unrealizable for every n: its excess pattern needs two
# zero point excesses alongside a 2n one, forcing a6 >= n+2.  Shapes 16
# and 17 need room in the quadrangle loop sum that only exists for n >= 6.
_UNREALIZED_CASES = {
    3: {7, 9, 11, 12, 14, 15, 16, 17},
    4: {11, 16, 17},
    5: {11, 16, 17},
}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10])
def test_case_coverage(n):
    seen = set()
    for psi in all_characters(n):
        g = geometry_of(psi)
        if psi.is_zero:
            assert g.case_id == CASE_TRIVIAL
        else:
            assert 1 <= g.case_id <= 17
            seen.add(g.case_id)
    assert seen == set(range(1, 18)) - _UNREALIZED_CASES.get(n, {11})


def test_s5_act_identity_and_loops():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.choice([3, 4, 5, 6, 7])
        psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
        assert s5_act((1, 2, 3, 4, 5), psi) == psi
        t = tuple(rng.sample(range(1, 6), 5))
        moved = s5_act(t, psi)
        for p in PAIRS:
            assert moved.loop(p) == psi.loop(map_pair(t, p))


def test_s5_act_is_right_action():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.choice([3, 5, 8])
        psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
        s = tuple(rng.sample(range(1, 6), 5))
        t = tuple(rng.sample(range(1, 6), 5))
        assert s5_act(s, s5_act(t, psi)) == s5_act(compose(t, s), psi)


def test_s5_equivariance_of_geometry():
    rng = random.Random(43)
    for _ in range(120):
        n = rng.choice([3, 4, 5, 6, 7])
        psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
        t = tuple(rng.sample(range(1, 6), 5))
        g = geometry_of(psi)
        h = geometry_of(s5_act(t, psi))
        ti = invert(t)
        assert h.logset == frozenset(map_pair(ti, p) for p in g.logset)
        assert h.twist == s5_transform(ti, g.twist)
        assert h.eigenclass == s5_transform(ti, g.eigenclass)


def test_quad_total_invariant_under_stabilizer_of_5():
    rng = random.Random(44)
    fixing5 = [t for t in PERMS if t[4] == 5]
    assert len(fixing5) == 24
    for _ in range(100):
        n = rng.choice([3, 5, 6])
        psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
        f = geometry_of(psi).quad_total
        t = rng.choice(fixing5)
        assert geometry_of(s5_act(t, psi)).quad_total == f


def burnside_orbit_count(n):
    # independent oracle: average number of fixed characters over the group
    fixed = 0
    for t in PERMS:
        fixed += sum(1 for psi in all_characters(n) if s5_act(t, psi) == psi)
    assert fixed % 120 == 0
    return fixed // 120


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_representatives(n):
    reps = orbit_representatives(n)
    assert sum(size for _, size in reps) == n ** 5
    assert len(reps) == burnside_orbit_count(n)
    seen = set()
    for psi, size in reps:
        orbit = {s5_act(t, psi) for t in PERMS}
        assert len(orbit) == size
        assert min(q.a for q in orbit) == psi.a
        assert not orbit & seen
        seen |= orbit
    assert len(seen) == n ** 5


ORBIT_COUNTS = {2: 4, 3: 11, 4: 26, 5: 56, 6: 118, 7: 217, 8: 388, 9: 654,
                10: 1052, 11: 1628, 12: 2450, 16: 9608}


@pytest.mark.parametrize("n", sorted(ORBIT_COUNTS))
def test_orbit_count(n):
    reps = orbit_representatives(n)
    assert len(reps) == ORBIT_COUNTS[n] == orbit_count(n)
    assert sum(size for _, size in reps) == n ** 5
    assert [psi.a for psi, _ in reps] == sorted(psi.a for psi, _ in reps)


def test_burnside_formula_beyond_enumeration():
    assert orbit_count(20) == 28354
    assert orbit_count(40) == 866708


def test_filter_prefix_holds_distinct_permutations():
    # the order of the survivor filter; the representatives it leaves are
    # pinned by test_orbit_count and brute-forced by test_orbit_representatives
    assert len(set(FILTER_PREFIX)) == len(FILTER_PREFIX) == 7
    assert set(FILTER_PREFIX) <= set(PERMS)
    # those fixing index 4 are the transpositions (1 2), (2 3) and (3 5),
    # which swap adjacent entries of a kept prefix's sorted loops through 4
    assert {t for t in FILTER_PREFIX if t[3] == 4} == {
        (2, 1, 3, 4, 5), (1, 3, 2, 4, 5), (1, 2, 5, 4, 3)}


def orbit_least_codes(n):
    # independent oracle: the least image code over PERMS of every
    # character, through the pullback matrices of s5_act
    digits = np.array(list(product(range(n), repeat=5)), dtype=np.int64)
    powers = n ** np.arange(4, -1, -1)
    least = np.full(len(digits), n ** 5)
    for t in PERMS:
        images = digits @ np.array(char_matrix(t)).T % n
        least = np.minimum(least, images @ powers)
    return np.unique(least)


@pytest.mark.parametrize("n", range(2, 10))
def test_kept_prefixes_hold_every_orbit_least_code(n):
    least = orbit_least_codes(n)
    assert len(least) == orbit_count(n)
    assert set((least // n ** 2).tolist()) <= set(kept_prefixes(n).tolist())


def test_prefix_pruning_drops_some_prefix_at_every_exponent_from_3():
    for n in range(3, 41):
        kept = kept_prefixes(n)
        assert len(kept) < n ** 3
        assert kept.tolist() == sorted(set(kept.tolist()))


@pytest.mark.parametrize("n", range(2, 10))
def test_kept_prefixes_match_their_definition(n):
    # brute force: no permutation fixing index 4 lowers the first three
    # digits of the character (a1, a2, a3, 0, 0) of a kept prefix
    fixing = [t for t in PERMS if t[3] == 4]
    kept = [(a[0] * n + a[1]) * n + a[2]
            for a in product(range(n), repeat=3)
            if all(s5_act(t, Character(n, a + (0, 0))).a[:3] >= a
                   for t in fixing)]
    assert kept_prefixes(n).tolist() == kept


@pytest.mark.parametrize("n", range(2, 21))
def test_kept_prefixes_count_zero_sum_multisets(n):
    # a kept prefix and its fourth loop -(a1+a2+a3) are one 4-element
    # multiset of Z/n with sum 0, sorted, and each such multiset sorts once
    multisets = sum(1 for m in combinations_with_replacement(range(n), 4)
                    if sum(m) % n == 0)
    assert len(kept_prefixes(n)) == multisets


@pytest.mark.parametrize("n,count", [(10, 73), (20, 446), (30, 1368), (40, 3091)])
def test_kept_prefix_counts(n, count):
    assert len(kept_prefixes(n)) == count


def test_orbit_representatives_independent_of_chunk():
    # a block holds chunk // n^2 whole kept prefixes, or one prefix where
    # the chunk is below n^2; the last block is partial where that count
    # does not divide the kept prefixes
    for n in (5, 7):
        reps = orbit_representatives(n)
        for chunk in (1, n * n - 1, n * n, 3 * n * n + 1, CHUNK):
            assert orbit_representatives(n, chunk=chunk) == reps


# sha256 of the int64 survivor codes, then digits, then orbit sizes of
# survivor_blocks(n), each concatenated over the blocks
SURVIVOR_DIGESTS = {
    12: "8be1f223e2f35df32cc5519948fb573f118a5667252994849f5ffcb7606c595b",
    17: "9de130b1afae20f267df1ab4e7a4b6859733b5955d99e28db63a7113565e4cf8",
    20: "8f6edd09d3386080962fe86ba6e3a29e8873c29282472ce7f8cf45d8a9cd8336",
    23: "5a70b781e24e45f559552b5e5df383a5ec4c04dc0f3bfd1141bc59f2e53b60ff",
}


@pytest.mark.parametrize("n", sorted(SURVIVOR_DIGESTS))
def test_survivor_blocks_pinned(n):
    h = hashlib.sha256()
    for part in zip(*survivor_blocks(n)):
        h.update(np.concatenate(part).astype(np.int64).tobytes())
    assert h.hexdigest() == SURVIVOR_DIGESTS[n]


def test_rank_exception_claw_n5():
    psi = Character(5, (4, 4, 3, 4, 4))
    exc = rank_exception_classify(psi)
    assert exc is not None and exc.kind == "claw"
    assert exc.focus == (3, 4)
    assert exc.predicted_twists == (class_of((3, 4)),)
    assert geometry_of(psi).twist in exc.predicted_twists


def test_rank_exception_star_n6():
    psi = Character(6, (5, 5, 5, 5, 5))
    exc = rank_exception_classify(psi)
    assert exc is not None and exc.kind == "star"
    assert exc.focus == 5
    assert set(exc.lines) == {(1, 5), (2, 5), (3, 5), (4, 5)}
    assert exc.predicted_twists == (pencil_class(5),)
    assert geometry_of(psi).twist == pencil_class(5)


def test_rank_exception_triangle_n4():
    psi = Character(4, (3, 3, 1, 3, 3))
    exc = rank_exception_classify(psi)
    assert exc is not None and exc.kind == "triangle"
    assert set(exc.lines) == {(3, 4), (3, 5), (4, 5)}
    assert exc.focus == (1, 2)
    assert exc.predicted_twists == (class_of((1, 2)),)
    assert geometry_of(psi).twist == class_of((1, 2))


def test_rank_exception_fiber5_n4():
    psi = Character(4, (0, 3, 3, 3, 3))
    exc = rank_exception_classify(psi)
    assert exc is not None and exc.kind == "fiber5"
    g = geometry_of(psi)
    assert g.twist in exc.predicted_twists


def test_rank_exception_none_for_full_rank():
    assert rank_exception_classify(Character(5, (1, 2, 3, 1, 2))) is None


@pytest.mark.parametrize("n", range(2, 9))
def test_zero_character_logset_has_full_rank(n):
    # the rank sweep classifies the zero character's problem with the rest
    logset = geometry_of(Character(n, (0, 0, 0, 0, 0))).logset
    assert logset == frozenset(PAIRS)
    assert classify_logset(logset, n) is None


@pytest.mark.parametrize("n,kinds", [
    (4, {"fiber5", "triangle"}),
    (5, {"claw"}),
    (6, {"claw", "star"}),
    (7, {"claw"}),
    (8, {"claw"}),
    (9, {"claw"}),
])
def test_rank_exception_exhaustive(n, kinds):
    found = set()
    for psi in all_characters(n):
        if psi.is_zero:
            continue
        g = geometry_of(psi)
        deficient = rank_of([class_of(p) for p in g.logset]) < 5
        exc = rank_exception_classify(psi)
        assert (exc is not None) == deficient
        if exc is None:
            continue
        found.add(exc.kind)
        assert exc.kind in kinds
        assert exc.predicted_twists is not None
        assert g.twist in exc.predicted_twists
    assert found == kinds
