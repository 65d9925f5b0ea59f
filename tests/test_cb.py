"""Tests for the iterated line-configuration census."""

import hashlib
from collections import Counter
from itertools import combinations
from math import comb, gcd

import pytest

from hkrigidity import cb_arrangements
from hkrigidity.cb_arrangements import (
    build_configuration,
    census,
    contract_line,
    corner_at_level,
    cross,
    dot,
    expected_tally,
    line_at_level,
    normalize,
    pencil_base,
    render_svg,
    seq_a,
    sequence,
    verify_propositions,
    walk,
)


class TestSequences:
    def test_frozen_examples(self):
        assert (sequence(0).a, sequence(0).b, sequence(0).c) == (3, 0, 1)
        assert (sequence(1).a, sequence(1).b, sequence(1).c) == (-3, 1, 0)
        assert (sequence(4).a, sequence(4).b, sequence(4).c) == (33, 5, 6)

    def test_start_values(self):
        start = sequence(-1)
        assert start.a == 0
        assert start.b is None and start.c is None

    def test_recurrences(self):
        for m in range(0, 12):
            assert seq_a(m) == seq_a(m - 1) + 3 * (-2) ** m
        for m in range(0, 12):
            assert sequence(m + 1).c == 2 * sequence(m).b
            assert sequence(m + 1).b == sequence(m).c + sequence(m).b

    def test_rejects_below_start(self):
        with pytest.raises(ValueError):
            seq_a(-2)


class TestProjectiveOps:
    def test_normalize(self):
        assert normalize((2, -4, 6)) == (1, -2, 3)
        assert normalize((0, -3, 3)) == (0, 1, -1)
        with pytest.raises(ValueError):
            normalize((0, 0, 0))

    def test_incidence_preserved_by_contraction(self):
        # form-map times point-map is twice the identity
        p = (5, -2, 3)
        u = (1, 1, -1)
        before = sum(a * b for a, b in zip(u, p))
        after = sum(
            a * b
            for a, b in zip(
                tuple(
                    sum(r * x for r, x in zip(row, u))
                    for row in ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
                ),
                tuple(
                    sum(r * x for r, x in zip(row, p))
                    for row in ((0, 1, 1), (1, 0, 1), (1, 1, 0))
                ),
            )
        )
        assert after == 2 * before

    def test_contraction_advances_line_levels(self):
        for i in (1, 2, 3):
            for m in range(0, 8):
                assert contract_line(line_at_level(i, m)) == line_at_level(i, m + 1)

    def test_corner_chain(self):
        assert corner_at_level(1, 0) == (1, 0, 0)
        assert corner_at_level(1, 1) == (0, 1, 1)
        assert corner_at_level(1, 2) == (2, 1, 1)
        for m in range(1, 10):
            s = sequence(m)
            assert corner_at_level(1, m) == normalize((s.c, s.b, s.b))
            assert corner_at_level(2, m) == normalize((s.b, s.c, s.b))
            assert corner_at_level(3, m) == normalize((s.b, s.b, s.c))

    def test_level_zero_lines_are_coordinate_lines(self):
        assert line_at_level(1, 0) == (1, 0, 0)
        assert line_at_level(2, 0) == (0, 1, 0)
        assert line_at_level(3, 0) == (0, 0, 1)

    def test_pencil_members_share_base_point(self):
        for i in (1, 2, 3):
            base = pencil_base(i)
            for m in range(0, 6):
                u = line_at_level(i, m)
                assert sum(a * b for a, b in zip(u, base)) == 0


class TestCensus:
    def test_line_counts(self):
        for n in range(0, 6):
            assert len(build_configuration(n)) == 3 * (n + 2)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, {2: 3, 3: 4}),
            (1, {2: 6, 3: 4, 4: 3}),
            (2, {2: 9, 3: 7, 4: 6}),
            (3, {2: 21, 3: 4, 4: 12}),
            (4, {2: 39, 3: 4, 4: 12, 5: 3}),
        ],
    )
    def test_frozen_tallies(self, n, expected):
        report = census(n)
        assert report.tally == expected
        assert expected_tally(n) == expected

    @pytest.mark.parametrize("n", list(range(0, 9)))
    def test_census_matches_formulas(self, n):
        report = census(n)
        assert report.formula_ok
        assert report.pair_identity_ok

    def test_pencil_base_valency(self):
        # the common pencil point lies on the n+1 pencil members only
        report = census(4)
        by_coords = dict(report.points)
        assert by_coords[pencil_base(1)] == 5

    def test_axis_lines_hit_every_corner_level(self):
        report = census(3)
        by_coords = dict(report.points)
        for m in range(1, 4):
            # axis plus two cross-pencil lines at the level, plus the next
            # line of the own pencil
            assert by_coords[corner_at_level(1, m)] == 4


def scanned_points(n):
    """Oracle: every crossing's valency by testing it against all lines."""
    lines = build_configuration(n)
    seen = {normalize(cross(u, v))
            for i, u in enumerate(lines) for v in lines[i + 1:]}
    return tuple(sorted((p, sum(1 for u in lines if dot(u, p) == 0))
                        for p in seen))


def recounted_ok(n):
    """Oracle: level n's census flags from one pass over all its pairs,
    through the module's normalize and cross as they stand."""
    lines = build_configuration(n)
    through = {}
    for (i, u), (j, v) in combinations(enumerate(lines), 2):
        key = cb_arrangements.normalize(cb_arrangements.cross(u, v))
        through.setdefault(key, set()).update((i, j))
    incident = all(dot(lines[i], p) == 0
                   for p, members in through.items() for i in members)
    valencies = [len(members) for members in through.values()]
    pair_ok = incident and (
        sum(comb(v, 2) for v in valencies) == comb(len(lines), 2))
    return pair_ok and dict(Counter(valencies)) == expected_tally(n)


def without_sign_flip(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


def without_gcd_division(v):
    for x in v:
        if x:
            return v if x > 0 else tuple(-y for y in v)
    raise ValueError("zero vector has no projective class")


class TestCensusFaults:
    @pytest.mark.parametrize("n", list(range(0, 21)))
    def test_points_match_all_lines_scan(self, n):
        assert census(n).points == scanned_points(n)

    @pytest.mark.parametrize("fault", [without_sign_flip, without_gcd_division])
    @pytest.mark.parametrize("n", list(range(1, 9)))
    def test_inconsistent_normalize_is_caught(self, monkeypatch, fault, n):
        monkeypatch.setattr(cb_arrangements, "normalize", fault)
        report = census(n)
        assert not (report.pair_identity_ok and report.formula_ok)

    def test_wrong_crossing_fails_without_raising(self, monkeypatch):
        # move one pair off its valency-2 point to a point on neither line
        # and on no other pair: tally and pair sum stay right, so only the
        # incidence check sees it
        lines = build_configuration(3)
        valency = dict(census(3).points)
        pair = next((u, v) for i, u in enumerate(lines) for v in lines[i + 1:]
                    if valency[normalize(cross(u, v))] == 2)
        wrong = (1, 2, 4)
        assert wrong not in valency and dot(pair[0], wrong) and dot(pair[1], wrong)
        real = cb_arrangements.cross

        def skewed(u, v):
            return wrong if (u, v) == pair else real(u, v)

        monkeypatch.setattr(cb_arrangements, "cross", skewed)
        report = census(3)
        assert report.formula_ok
        assert not report.pair_identity_ok
        assert not cb_arrangements.verify_propositions(3).ok


class TestWalk:
    def test_flags_match_a_recount(self):
        assert [arrangement.ok(m) for m, arrangement in walk(40)] == [
            recounted_ok(m) for m in range(41)]

    def test_reports_match_census(self):
        for m, arrangement in walk(20):
            report = arrangement.report(m)
            assert report == census(m)
            assert report.points == scanned_points(m)

    @pytest.mark.parametrize("fault", [without_sign_flip, without_gcd_division])
    def test_inconsistent_normalize_fails_every_level_from_the_first(
            self, monkeypatch, fault):
        monkeypatch.setattr(cb_arrangements, "normalize", fault)
        expected = [recounted_ok(m) for m in range(13)]
        first = expected.index(False)
        assert first <= 1
        flags = [arrangement.ok(m) for m, arrangement in walk(12)]
        assert flags == expected
        assert flags == [m < first for m in range(13)]

    def test_wrong_crossing_fails_its_level_and_later_ones(self, monkeypatch):
        # move one pair whose second line joins at level k off its
        # valency-2 point to a point on neither line and on no other pair:
        # the incidence check sees it once, when the pair is added, and the
        # level fails from then on although its tally stays right
        k, top = 3, 6
        lines = build_configuration(top)
        valency = dict(census(k).points)
        pair = next((lines[i], lines[j]) for j in range(3 * k + 3, 3 * k + 6)
                    for i in range(j)
                    if valency[normalize(cross(lines[i], lines[j]))] == 2)
        wrong = (1, 2, 4)
        assert all(wrong not in dict(census(m).points) for m in range(top + 1))
        assert dot(pair[0], wrong) and dot(pair[1], wrong)
        real = cb_arrangements.cross

        def skewed(u, v):
            return wrong if (u, v) == pair else real(u, v)

        monkeypatch.setattr(cb_arrangements, "cross", skewed)
        flags = []
        for m, arrangement in walk(top):
            flags.append(arrangement.ok(m))
            if m == k:
                report = arrangement.report(m)
                assert report.formula_ok and not report.pair_identity_ok
        assert flags == [m < k for m in range(top + 1)]
        assert not cb_arrangements.verify_propositions(k).ok


class TestPropositions:
    def test_all_checks_pass(self):
        verification = verify_propositions(6)
        assert verification.ok
        names = {c.name for c in verification.checks}
        assert "corner_chain_coordinates" in names
        assert "level_zero_crossings" in names
        assert "census_formulas" in names

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            build_configuration(-1)


class TestRendering:
    def test_svg_structure(self):
        svg = render_svg(2)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<line") == 12
        # all census points except the three pencil bases at infinity
        assert svg.count("<circle") == len(census(2).points) - 3

    def test_svg_is_deterministic(self):
        assert render_svg(3) == render_svg(3)

    def test_svg_bytes_pinned(self):
        # sha256 of the pictures of levels 0..20, one after another
        pictures = "".join(render_svg(n) for n in range(21))
        assert hashlib.sha256(pictures.encode("utf-8")).hexdigest() == (
            "ec0a8d683bc6bf114648da728419b67e416f3b8c621a986ea9cce440772f53d9")
