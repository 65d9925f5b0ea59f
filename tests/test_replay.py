"""Tests for the independent certificate replayer.

The replayer shares no intersection-theory code with the prover: it carries
its own line dictionary, its own intersection form, and its own rank
routine, so a systematic error in the main modules cannot silently
re-confirm itself here.
"""

import dataclasses

import pytest

from hkrigidity.characters import Character, orbit_representatives
from hkrigidity.picard import PAIRS, class_of, pairing
from hkrigidity import replay as replay_mod
from hkrigidity.registry import Registry, default_registry
from hkrigidity.replay import (
    ReplayError,
    build_table,
    form_product,
    line_vector,
    matrix_rank,
    replay,
    validate_table,
)
from hkrigidity.vanishing import (
    DropLines,
    ExternalAxiom,
    NonVanishing,
    ProofEngine,
    VanishingProblem,
    problem_of,
)


class TestTable:
    def test_table_agrees_with_main_modules(self):
        # independent reconstruction must equal the primary intersection data
        for p in PAIRS:
            for q in PAIRS:
                assert form_product(line_vector(p), line_vector(q)) == pairing(
                    class_of(p), class_of(q)
                )

    def test_validate_accepts_honest_table(self):
        assert validate_table(build_table())

    def test_validate_detects_single_mutation(self):
        for key in (((1, 2), (3, 4)), ((1, 5), (1, 5)), ((2, 4), (2, 3))):
            table = build_table()
            table[key] += 1
            assert not validate_table(table)

    def test_validate_detects_missing_entry(self):
        table = build_table()
        del table[((1, 2), (1, 2))]
        assert not validate_table(table)

    def test_validate_uses_a_second_route(self, monkeypatch):
        # a wrong class vector for one line corrupts every entry it enters;
        # the pair-overlap rule does not read the class vectors
        honest = build_table()
        real = replay_mod.line_vector
        monkeypatch.setattr(replay_mod, "line_vector",
                            lambda pair: real((2, 4) if pair == (1, 2) else pair))
        table = build_table()
        assert sum(table[key] != honest[key] for key in honest) == 10
        assert not validate_table(table)

    def test_rank_routine(self):
        assert matrix_rank([line_vector(p) for p in PAIRS]) == 5
        star = [line_vector((i, 5)) for i in range(1, 5)]
        assert matrix_rank(star) == 4
        assert matrix_rank([]) == 0


class TestReplayVerdicts:
    def setup_method(self):
        self.registry = default_registry()
        self.engine = ProofEngine(self.registry)

    def test_full_replay_small_exponents(self):
        total = 0
        for n in (3, 4, 5, 6):
            for psi, _ in orbit_representatives(n):
                prob = problem_of(psi)
                cert = self.engine.prove(prob)
                if cert.kind == "unresolved":
                    continue
                result = replay(prob, cert, registry=self.registry)
                assert result.ok, (n, psi, result.reason)
                total += 1
        assert total > 150

    def test_nonvanishing_replays(self):
        prob = problem_of(Character(3, (2, 2, 2, 1, 1)))
        cert = self.engine.prove(prob)
        assert replay(prob, cert, registry=self.registry).ok

    def test_unresolved_raises(self):
        prob = problem_of(Character(4, (0, 0, 0, 0, 0)))
        cert = ProofEngine(Registry(())).prove(prob)
        assert cert.kind == "unresolved"
        with pytest.raises(ReplayError):
            replay(prob, cert, registry=self.registry)

    def test_default_table_built_and_validated_once(self, monkeypatch):
        calls = {"build": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(replay_mod, "build_table",
                            counted("build", replay_mod.build_table))
        monkeypatch.setattr(replay_mod, "validate_table",
                            counted("validate", replay_mod.validate_table))
        replay_mod._honest_table.cache_clear()
        for psi, _ in orbit_representatives(4):
            prob = problem_of(psi)
            cert = self.engine.prove(prob)
            assert replay(prob, cert, registry=self.registry).ok
        assert calls == {"build": 1, "validate": 1}
        with pytest.raises(TypeError):
            replay_mod._honest_table()[((1, 2), (3, 4))] = 0


class TestTamperDetection:
    def setup_method(self):
        self.registry = default_registry()
        self.engine = ProofEngine(self.registry)

    def _cert_of(self, n, digits):
        prob = problem_of(Character(n, digits))
        return prob, self.engine.prove(prob)

    def test_tampered_gvt_witness(self):
        prob, cert = self._cert_of(5, (1, 1, 1, 1, 0))
        node, wrap = cert, None
        while node.kind == "drop":
            node, wrap = node.inner, node
        assert node.kind == "gvt"
        bad = dataclasses.replace(node, a_lines=node.a_lines + ((4, 5),))
        bad_cert = dataclasses.replace(wrap, inner=bad) if wrap else bad
        assert not replay(prob, bad_cert, registry=self.registry).ok

    def test_tampered_chi(self):
        prob, cert = self._cert_of(3, (2, 2, 2, 1, 1))
        assert cert.kind == "nonvanishing"
        bad = NonVanishing(chi=cert.chi - 1, h1_lower_bound=cert.h1_lower_bound)
        assert not replay(prob, bad, registry=self.registry).ok

    def test_tampered_bound(self):
        prob, cert = self._cert_of(3, (2, 2, 2, 1, 1))
        bad = NonVanishing(chi=cert.chi, h1_lower_bound=cert.h1_lower_bound + 1)
        assert not replay(prob, bad, registry=self.registry).ok

    def test_tampered_drop_list(self):
        prob, cert = self._cert_of(4, (0, 0, 0, 0, 0))
        assert cert.kind == "drop"
        bad = DropLines(removed=cert.removed[:-1], inner=cert.inner)
        assert not replay(prob, bad, registry=self.registry).ok

    def test_tampered_axiom_id(self):
        prob, cert = self._cert_of(4, (0, 0, 0, 0, 0))
        bad = DropLines(
            removed=cert.removed, inner=ExternalAxiom(registry_id="axiom-02")
        )
        assert not replay(prob, bad, registry=self.registry).ok

    def test_axiom_needs_registry(self):
        prob, cert = self._cert_of(4, (0, 0, 0, 0, 0))
        assert not replay(prob, cert, registry=Registry(())).ok

    def test_wrong_problem_rejected(self):
        prob, cert = self._cert_of(5, (1, 1, 1, 1, 0))
        other = problem_of(Character(5, (2, 0, 1, 4, 3)))
        assert not replay(other, cert, registry=self.registry).ok
