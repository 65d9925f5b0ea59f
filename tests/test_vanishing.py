"""Tests for the vanishing-certificate engine."""

import hashlib
import random
from itertools import product

import pytest

from hkrigidity.characters import Character, orbit_representatives, s5_act
from hkrigidity.invariants import problem_histogram, rigidity_report
from hkrigidity.picard import (
    DivisorClass,
    PAIRS,
    PERMS,
    ZERO,
    class_of,
    invert,
    map_pair,
    pairing,
    s5_transform,
)
from hkrigidity.registry import Registry, RegistryEntry, default_registry
from hkrigidity.replay import replay
from hkrigidity.vanishing import (
    ExternalAxiom,
    MalformedWitnessError,
    NonVanishing,
    ProofEngine,
    Unresolved,
    VanishingProblem,
    canonical_problem,
    certificate_chain,
    chi_log,
    drop_reduce,
    gvt_check,
    gvt_search,
    problem_of,
    rules_used,
)

E1 = class_of((1, 5))
STAR5 = frozenset({(1, 5), (2, 5), (3, 5), (4, 5)})
TRIANGLE = frozenset({(2, 3), (3, 4), (2, 4)})


class TestChi:
    def test_no_poles_no_twist(self):
        assert chi_log(frozenset(), ZERO) == -5

    def test_triangle_plus_disjoint_line(self):
        logset = frozenset({(1, 2), (1, 3), (2, 3), (4, 5)})
        assert chi_log(logset, ZERO) == -1

    def test_triangle_with_exceptional_pole(self):
        assert chi_log(TRIANGLE | {(1, 5)}, E1) == 0

    def test_pole_additivity(self):
        # adding one pole changes chi by 1 + E.twist
        twist = DivisorClass(1, (-1, 0, 0, -1))
        logset = frozenset({(1, 2), (2, 5)})
        for p in ((3, 4), (1, 5), (4, 5)):
            delta = 1 + (class_of(p).ell * twist.ell
                         - sum(a * b for a, b in zip(class_of(p).e, twist.e)))
            # recompute the pairing directly to avoid trusting chi_log twice
            assert (
                chi_log(logset | {p}, twist) - chi_log(logset, twist) == delta
            )

    def test_drop_preserves_chi(self):
        # dropped lines meet the twist in -1, a zero chi contribution
        for digits in ((1, 2, 0, 3, 1), (2, 2, 2, 1, 1), (0, 0, 1, 1, 2)):
            prob = problem_of(Character(4, digits))
            reduced, _ = drop_reduce(prob)
            assert chi_log(prob.logset, prob.twist) == chi_log(
                reduced.logset, reduced.twist
            )


class TestGvtCheck:
    def test_star_with_two_sided_witness(self):
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        report = gvt_check(prob, ((1, 2),), ((1, 5), (2, 5)))
        assert report.passed
        assert (report.rank_value, report.rank_bound) == (3, 3)
        assert report.correction == 0

    def test_star_alternative_witness(self):
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        report = gvt_check(prob, ((3, 4),), ((3, 5), (4, 5)))
        assert report.passed
        assert (report.rank_value, report.rank_bound) == (3, 3)

    def test_star_with_pencil_twist(self):
        prob = VanishingProblem(STAR5, DivisorClass(2, (-1, -1, -1, -1)))
        report = gvt_check(prob, ((1, 4), (2, 3)), ())
        assert report.passed

    def test_rank_failure_on_small_span(self):
        # the four pole classes only span rank four, so an empty B cannot
        # reach the required bound of five
        prob = VanishingProblem(frozenset({(2, 3), (3, 4), (2, 4), (1, 5)}), E1)
        report = gvt_check(prob, ((1, 5),), ())
        assert report.pole_twist_ok
        assert report.positivity_ok
        assert not report.rank_ok
        assert (report.rank_value, report.rank_bound) == (4, 5)
        assert not report.passed

    def test_pole_meeting_twist_below_minus_one_blocks(self):
        # E1 - class{2,3} meets the pole E1 in -2; the same witness passes
        # that condition when E1 carries no pole
        twist = class_of((1, 5)) - class_of((2, 3))
        report = gvt_check(VanishingProblem(frozenset({(1, 5), (2, 3)}), twist),
                           ((1, 5),), ((2, 3),))
        assert not report.pole_twist_ok
        assert not report.passed
        report = gvt_check(VanishingProblem(frozenset({(2, 3)}), twist),
                           ((1, 5),), ((2, 3),))
        assert report.pole_twist_ok

    def test_rejects_overlapping_witness(self):
        prob = VanishingProblem(STAR5, ZERO)
        with pytest.raises(MalformedWitnessError):
            gvt_check(prob, ((1, 5),), ((1, 5),))

    def test_rejects_b_outside_poles(self):
        prob = VanishingProblem(TRIANGLE, DivisorClass(-1, (0, 1, 1, 0)))
        with pytest.raises(MalformedWitnessError):
            gvt_check(prob, (), ((1, 5),))

    def test_rejects_wrong_class_identity(self):
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        with pytest.raises(MalformedWitnessError):
            gvt_check(prob, ((1, 3),), ((1, 5), (2, 5)))

    def test_rejects_repeated_lines(self):
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        with pytest.raises(MalformedWitnessError):
            gvt_check(prob, ((1, 2), (2, 1)), ((1, 5), (2, 5)))

    def test_accepts_iterators(self):
        # each argument is read once, so one-shot iterators work
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        a, b = ((1, 2),), ((1, 5), (2, 5))
        assert gvt_check(prob, iter(a), iter(b)) == gvt_check(prob, a, b)
        assert gvt_check(prob, iter(a), iter(b)).passed


class TestGvtSearch:
    def test_star_first_witness_deterministic(self):
        prob = VanishingProblem(STAR5, DivisorClass(1, (-1, -1, -1, -1)))
        assert gvt_search(prob) == ((((1, 2),), ((1, 5), (2, 5))))

    def test_pencil_twist_star(self):
        prob = VanishingProblem(STAR5, DivisorClass(2, (-1, -1, -1, -1)))
        assert gvt_search(prob) == ((((1, 4), (2, 3)), ()))

    def test_triangle_with_exceptional_twist(self):
        a, b = gvt_search(VanishingProblem(TRIANGLE, E1))
        assert (a, b) == (((1, 3), (2, 5)), ((2, 3),))

    def test_search_result_always_checks(self):
        rng = random.Random(7)
        for _ in range(40):
            digits = tuple(rng.randrange(5) for _ in range(5))
            prob, _ = drop_reduce(problem_of(Character(5, digits)))
            found = gvt_search(prob)
            if found is not None:
                assert gvt_check(prob, *found).passed

    def test_obstructed_problem_has_no_witness(self):
        # a problem with negative chi cannot satisfy the criterion
        prob = problem_of(Character(3, (2, 2, 2, 1, 1)))
        assert gvt_search(prob) is None

    def test_full_pole_set_with_canonical_twist(self):
        # B sums to the anticanonical class, making the rank bound trivial
        prob = VanishingProblem(frozenset(PAIRS), DivisorClass(-3, (1, 1, 1, 1)))
        a, b = gvt_search(prob)
        assert a == ()
        assert b == ((1, 4), (1, 5), (2, 3), (2, 5), (3, 4))
        assert gvt_check(prob, a, b).passed


class TestDrop:
    def test_zero_character_drops_everything(self):
        prob = problem_of(Character(4, (0, 0, 0, 0, 0)))
        reduced, removed = drop_reduce(prob)
        assert len(removed) == 10
        assert reduced.logset == frozenset()
        assert reduced.twist == prob.twist

    def test_drop_removes_only_slope_minus_one(self):
        prob = VanishingProblem(TRIANGLE | {(1, 5)}, E1)
        reduced, removed = drop_reduce(prob)
        assert removed == ((1, 5),)
        assert reduced.logset == TRIANGLE

    def test_drop_is_single_pass_exhaustive(self):
        for digits in product(range(3), repeat=5):
            prob = problem_of(Character(3, digits))
            reduced, _ = drop_reduce(prob)
            assert not any(
                1 + _pair_twist(p, reduced.twist) == 0 for p in reduced.logset
            )


def _pair_twist(p, twist):
    c = class_of(p)
    return c.ell * twist.ell - sum(a * b for a, b in zip(c.e, twist.e))


class TestSuperset:
    def test_engine_does_not_search_for_transfers(self):
        # a registry closing only the enlarged problem leaves the problem
        # itself open
        twist = DivisorClass.from_tuple((-3, 1, 0, 0, 0))
        prob = VanishingProblem(frozenset({(2, 3), (2, 5), (3, 5)}), twist)
        big = VanishingProblem(prob.logset | {(1, 2)}, twist)
        (logset, key_twist), _ = canonical_problem(big.logset, twist)
        registry = Registry([RegistryEntry(
            "axiom-01", logset, DivisorClass.from_tuple(key_twist), "test")])
        engine = ProofEngine(registry)
        assert engine.prove(big) == ExternalAxiom("axiom-01")
        assert engine.prove(prob).kind == "unresolved"


class TestCanonical:
    def test_canonical_is_orbit_invariant(self):
        rng = random.Random(3)
        for _ in range(50):
            digits = tuple(rng.randrange(4) for _ in range(5))
            psi = Character(4, digits)
            if psi.is_zero:
                continue
            prob = problem_of(psi)
            key, _ = canonical_problem(prob.logset, prob.twist)
            t = PERMS[rng.randrange(120)]
            moved_logset = frozenset(map_pair(t, p) for p in prob.logset)
            moved_twist = s5_transform(t, prob.twist)
            key2, _ = canonical_problem(moved_logset, moved_twist)
            assert key == key2

    def test_canonical_transform_witnesses_key(self):
        prob = problem_of(Character(5, (1, 2, 0, 4, 3)))
        key, t = canonical_problem(prob.logset, prob.twist)
        assert tuple(sorted(map_pair(t, p) for p in prob.logset)) == key[0]
        assert s5_transform(t, prob.twist).as_tuple() == key[1]


class TestEngine:
    def test_obstructed_character_at_exponent_three(self):
        engine = ProofEngine(default_registry())
        cert = engine.prove(problem_of(Character(3, (2, 2, 2, 1, 1))))
        assert cert == NonVanishing(chi=-1, h1_lower_bound=1)

    def test_zero_character_uses_invariant_axiom(self):
        engine = ProofEngine(default_registry())
        cert = engine.prove(problem_of(Character(4, (0, 0, 0, 0, 0))))
        assert cert.kind == "drop"
        assert len(cert.removed) == 10
        assert cert.inner == ExternalAxiom(registry_id="axiom-01")

    def test_star_family_uses_covering_axiom(self):
        engine = ProofEngine(default_registry())
        used = set()
        for psi, _ in orbit_representatives(5):
            cert = engine.prove(problem_of(psi))
            used |= {node.registry_id for node in certificate_chain(cert)
                     if node.kind == "registry"}
        assert used == {"axiom-01", "axiom-02"}

    def test_without_registry_two_problem_kinds_stay_open(self):
        engine = ProofEngine(Registry(()))
        open_keys = set()
        for psi, _ in orbit_representatives(5):
            cert = engine.prove(problem_of(psi))
            if cert.kind == "drop":
                cert = cert.inner
            if cert.kind == "unresolved":
                open_keys.add((cert.canonical_logset, cert.canonical_twist))
        star1 = ((1, 2), (1, 3), (1, 4), (1, 5))
        assert open_keys == {
            ((), (-3, 1, 1, 1, 1)),
            (star1, (-2, 0, 1, 1, 1)),
        }

    @pytest.mark.parametrize(
        "n,expected",
        [
            (3, {"drop": 146, "gvt": 87, "nonvanishing": 10}),
            (4, {"drop": 736, "gvt": 288}),
            (5, {"drop": 2291, "gvt": 834}),
            (6, {"drop": 5636, "gvt": 2140}),
        ],
    )
    def test_weighted_tallies(self, n, expected):
        engine = ProofEngine(default_registry())
        tally = {}
        for psi, size in orbit_representatives(n):
            kind = engine.prove(problem_of(psi)).kind
            tally[kind] = tally.get(kind, 0) + size
        assert tally == expected
        assert sum(tally.values()) == n**5

    def test_memo_returns_identical_certificates(self):
        engine = ProofEngine(default_registry())
        prob = problem_of(Character(5, (1, 2, 3, 4, 0)))
        assert engine.prove(prob) is engine.prove(prob)

    def test_canonical_form_only_after_failed_search(self, monkeypatch):
        from hkrigidity import vanishing

        calls = []

        def counting(logset, twist):
            calls.append(logset)
            return canonical_problem(logset, twist)

        monkeypatch.setattr(vanishing, "canonical_problem", counting)
        engine = ProofEngine(default_registry())
        cert = engine.prove(problem_of(Character(5, (1, 2, 3, 4, 0))))
        assert rules_used(cert) in ({"gvt"}, {"drop", "gvt"})
        assert calls == []
        cert = engine.prove(problem_of(Character(4, (0, 0, 0, 0, 0))))
        assert cert.kind == "drop"
        assert cert.inner == ExternalAxiom(registry_id="axiom-01")
        assert calls

    def test_unresolved_carries_canonical_key(self):
        engine = ProofEngine(Registry(()))
        cert = engine.prove(problem_of(Character(4, (0, 0, 0, 0, 0))))
        inner = cert.inner if cert.kind == "drop" else cert
        assert inner == Unresolved(
            canonical_logset=(), canonical_twist=(-3, 1, 1, 1, 1)
        )

    def test_rules_used_walks_the_tree(self):
        engine = ProofEngine(default_registry())
        cert = engine.prove(problem_of(Character(4, (0, 0, 0, 0, 0))))
        assert rules_used(cert) == {"drop", "registry"}


class TestEquivariance:
    def test_problem_transforms_with_character(self):
        rng = random.Random(11)
        engine = ProofEngine(default_registry())
        for _ in range(120):
            n = rng.choice((3, 4, 5, 6))
            psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
            t = PERMS[rng.randrange(120)]
            moved = s5_act(t, psi)
            prob, moved_prob = problem_of(psi), problem_of(moved)
            ti = invert(t)
            assert moved_prob.logset == frozenset(
                map_pair(ti, p) for p in prob.logset
            )
            assert moved_prob.twist == s5_transform(ti, prob.twist)
            assert chi_log(prob.logset, prob.twist) == chi_log(
                moved_prob.logset, moved_prob.twist
            )
            assert (
                engine.prove(prob).kind == engine.prove(moved_prob).kind
            )

    def test_transported_certificates_check(self):
        rng = random.Random(23)
        engine = ProofEngine(default_registry())
        registry = default_registry()
        for _ in range(60):
            n = rng.choice((3, 4, 5))
            psi = Character(n, tuple(rng.randrange(n) for _ in range(5)))
            prob = problem_of(psi)
            cert = engine.prove(prob)
            if cert.kind in ("nonvanishing", "unresolved"):
                continue
            t = PERMS[rng.randrange(120)]
            moved_prob = VanishingProblem(
                frozenset(map_pair(t, p) for p in prob.logset),
                s5_transform(t, prob.twist),
            )
            moved_cert = engine.prove(moved_prob)
            assert moved_cert.kind == cert.kind
            assert replay(prob, cert, registry=registry).ok
            assert replay(moved_prob, moved_cert, registry=registry).ok


# sha256 of repr(rigidity_report(n, orbit_mode=mode).records): the problem,
# rows keyed and certificate of every distinct problem, pinned from the
# class-object implementation of the engine, with ", h2_zero=True" removed
# from each problem's repr once h^2 = 0 stopped being a per-problem field.
PINNED_RECORDS = {
    (3, True): "15a8299dc2facb48939135b7486a80ecc674abc9b61d182b69ed27d2fa15a773",
    (4, True): "453ec7e777f5af6615ab92c62ccf61ca065018adda1a6958b021d0f736e574c9",
    (5, True): "5dd4fb6b5f57fd732eba0198d3543fe937e54d4d06e50222e100cc88fe490bfa",
    (6, True): "5a3b8057416e1d924ca0f965bd51e0d502c35a156d25e24b590ee4e23c29413c",
    (3, False): "15bd5b1a3dcbdd021ebee3b618356f9bb238c04e3045c89029ab0e059fb9588c",
    (4, False): "549b4744443661618427dffb01b601402c908791807193cbec60dff0fc318e04",
    (5, False): "2155fb88a30b0c0f3fd748aa77f17c066280babbf660ff4c26a49e585a081644",
    (6, False): "c1983feab0d45232015bdfa87a526b1f83d084c12d8a27d72c945025724aaf5b",
}


@pytest.mark.parametrize("n,orbit_mode", sorted(PINNED_RECORDS))
def test_pinned_certificates(n, orbit_mode):
    records = rigidity_report(n, orbit_mode=orbit_mode).records
    digest = hashlib.sha256(repr(records).encode("utf-8")).hexdigest()
    assert digest == PINNED_RECORDS[n, orbit_mode]


def oracle_canonical_problem(logset, twist):
    """The definition of the canonical form: the least (sorted pole images,
    twist image) over PERMS, with the first permutation reaching it."""
    return min(
        ((tuple(sorted(map_pair(t, p) for p in logset)),
          s5_transform(t, twist).as_tuple()), t)
        for t in PERMS
    )


def oracle_chi_log(logset, twist):
    return (pairing(twist, twist) - 5
            + sum(1 + pairing(class_of(p), twist) for p in logset))


def oracle_drop_reduce(prob):
    removed = tuple(sorted(p for p in prob.logset
                           if pairing(class_of(p), prob.twist) == -1))
    return prob.logset - set(removed), removed


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_integer_engine_matches_definitions(n):
    for prob in problem_histogram(n, orbits=False):
        reduced, removed = drop_reduce(prob)
        assert (reduced.logset, removed) == oracle_drop_reduce(prob)
        assert reduced.twist == prob.twist
        for p in (prob, reduced):
            assert (canonical_problem(p.logset, p.twist)
                    == oracle_canonical_problem(p.logset, p.twist))
            assert chi_log(p.logset, p.twist) == oracle_chi_log(p.logset, p.twist)
