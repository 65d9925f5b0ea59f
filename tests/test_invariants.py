"""Tests for surface invariants and the whole-surface rigidity report."""

import numpy as np
import pytest

from hkrigidity import characters, invariants
from hkrigidity.characters import (
    InternalInconsistencyError,
    all_characters,
    orbit_count,
    orbit_representatives,
    problem_keys,
)
from hkrigidity.invariants import (
    character_invariant_suite,
    chi_crosscheck,
    chi_theta_character_sum,
    closed_form,
    euler_by_stratification,
    problem_histogram,
    rigidity_report,
)
from hkrigidity.vanishing import problem_of, problem_of_key


class TestClosedForms:
    @pytest.mark.parametrize(
        "n,K2,euler,chi_O,chi_theta",
        [
            (2, 0, 24, 2, -20),
            (3, 135, 81, 18, 90),
            (5, 5625, 1875, 625, 5000),
        ],
    )
    def test_frozen_values(self, n, K2, euler, chi_O, chi_theta):
        inv = closed_form(n)
        assert (inv.K2, inv.euler, inv.chi_O, inv.chi_theta) == (
            K2,
            euler,
            chi_O,
            chi_theta,
        )

    def test_noether_divisibility(self):
        for n in range(2, 21):
            inv = closed_form(n)
            assert (inv.K2 + inv.euler) % 12 == 0
            assert inv.chi_O == (inv.K2 + inv.euler) // 12

    def test_rejects_tiny_exponent(self):
        with pytest.raises(ValueError):
            closed_form(1)

    def test_stratification_matches_closed_form(self):
        for n in range(2, 21):
            assert euler_by_stratification(n) == closed_form(n).euler

    def test_general_type_from_exponent_three(self):
        # exponent 2 is the boundary case with K^2 = 0
        assert closed_form(2).K2 == 0
        for n in range(3, 10):
            assert closed_form(n).K2 > 0


class TestCharacterSums:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_chi_sum_equals_tangent_chi(self, n):
        assert chi_crosscheck(n, orbits=True)

    def test_orbit_and_full_sums_agree(self):
        for n in (3, 4):
            assert chi_theta_character_sum(n, orbits=True) == (
                chi_theta_character_sum(n, orbits=False)
            )

    def test_frozen_sums(self):
        assert chi_theta_character_sum(3) == 90
        assert chi_theta_character_sum(5) == 5000


def all_digits(n):
    return np.array([psi.a for psi in all_characters(n)], dtype=np.int64)


class TestProblemHistogram:
    @staticmethod
    def check_against_problem_of(n, orbits, pairs):
        expected = {}
        for psi, weight in pairs:
            entry = expected.setdefault(problem_of(psi), [0, psi.a, 0])
            entry[0] += weight
            entry[1] = min(entry[1], psi.a)
            entry[2] += 1
        hist = problem_histogram(n, orbits)
        got = {prob: [count, psi.a, keyed]
               for prob, (count, psi, keyed) in hist.items()}
        assert got == expected
        # rows keyed: every character in full mode, one row per orbit
        # representative in orbit mode, adding up to the Burnside count
        if orbits:
            assert sum(keyed for _, _, keyed in got.values()) == orbit_count(n)
        else:
            assert all(keyed == count for count, _, keyed in got.values())
        # problems come in order of their least character
        assert list(got) == sorted(expected, key=lambda prob: expected[prob][1])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_brute_force_count(self, n):
        self.check_against_problem_of(
            n, False, ((psi, 1) for psi in all_characters(n)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orbit_mode_matches_per_representative_count(self, n):
        self.check_against_problem_of(n, True, orbit_representatives(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_keys_match_problem_of_row_by_row(self, n):
        keys = problem_keys(all_digits(n), n).tolist()
        assert [problem_of_key(k, n) for k in keys] == [
            problem_of(psi) for psi in all_characters(n)]

    @pytest.mark.parametrize("name", ["LOOP_MATRIX", "CLASS_MATRIX"])
    def test_perturbed_matrix_entry_raises(self, monkeypatch, name):
        digits = all_digits(4)
        original = getattr(characters, name)
        for index in np.ndindex(original.shape):
            broken = original.copy()
            broken[index] += 1
            monkeypatch.setattr(characters, name, broken)
            with pytest.raises(InternalInconsistencyError):
                problem_keys(digits, 4)

    def test_orbit_mode_checks_burnside_count(self, monkeypatch):
        burnside = invariants.orbit_count
        monkeypatch.setattr(invariants, "orbit_count", lambda n: burnside(n) + 1)
        with pytest.raises(InternalInconsistencyError, match="Burnside"):
            problem_histogram(5, orbits=True)
        problem_histogram(5, orbits=False)


class TestInvariantSuite:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_per_character_checks(self, n):
        checked, failures = character_invariant_suite(n)
        assert checked == n**5
        assert failures == ()


class TestRigidityReport:
    def test_exponent_three_obstruction(self):
        report = rigidity_report(3)
        assert not report.rigid
        assert report.exit_code == 1
        assert report.tally["nonvanishing"] == 10
        assert len(report.nonvanishing) == 1
        witness = report.nonvanishing[0]
        assert witness.chi == -1
        assert witness.h1_lower_bound == 1
        assert witness.characters == 10
        assert witness.twist == (0, 0, 0, 0, 0)

    def test_exponent_four_rigid(self):
        report = rigidity_report(4)
        assert report.rigid
        assert report.exit_code == 0
        assert report.unresolved_keys == ()
        assert report.nonvanishing == ()
        assert report.tally == {
            "gvt": 288,
            "drop": 736,
            "superset": 0,
            "registry": 0,
            "nonvanishing": 0,
            "unresolved": 0,
        }
        assert report.axiom_ids == ("axiom-01", "axiom-02")
        assert report.crosscheck_ok

    def test_exponent_two_left_unresolved(self):
        # the only accepted exponent the shipped registry leaves unresolved
        report = rigidity_report(2)
        assert report.exit_code == 2
        assert {k: v for k, v in report.tally.items() if v} == {
            "drop": 16,
            "unresolved": 16,
        }
        assert report.unresolved_keys == (
            ((), (0, 0, 0, 0, 0)),
            (((1, 2), (1, 3), (2, 4), (3, 4)), (-2, 1, 1, 1, 1)),
        )

    def test_exponent_two_without_registry(self):
        from hkrigidity.registry import Registry

        report = rigidity_report(2, Registry(()))
        assert report.exit_code == 2
        assert report.tally["unresolved"] == 32
        assert len(report.unresolved_keys) == 4

    def test_tally_always_covers_all_characters(self):
        for n in (3, 4, 5):
            report = rigidity_report(n)
            assert sum(report.tally.values()) == n**5
            assert report.total_characters == n**5

    def test_modes_agree(self):
        for n in (3, 4):
            orbit = rigidity_report(n)
            full = rigidity_report(n, orbit_mode=False)
            assert orbit.mode == "orbits" and full.mode == "full"
            assert orbit.tally == full.tally
            assert orbit.unresolved_keys == full.unresolved_keys
            assert orbit.nonvanishing == full.nonvanishing
            assert orbit.axiom_ids == full.axiom_ids
            assert orbit.chi_character_sum == full.chi_character_sum
            assert orbit.orbit_count == full.orbit_count

    def test_missing_registry_leaves_unresolved(self):
        from hkrigidity.registry import Registry

        report = rigidity_report(4, Registry(()))
        assert not report.rigid
        assert report.exit_code == 2
        assert report.tally["unresolved"] > 0
        assert len(report.unresolved_keys) == 2

    def test_registry_digest_matches_shipped_file(self):
        from hkrigidity.registry import default_registry_text, digest

        report = rigidity_report(5)
        assert report.registry_digest == digest(default_registry_text())
