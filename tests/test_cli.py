"""Tests for the command line interface.

All invocations go through main(argv) in-process; stdout must be
deterministic (timings are stderr-only).
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

import hkrigidity
from hkrigidity import cb_arrangements, characters, cli, invariants, registry, vanishing
from hkrigidity import replay as replay_mod
from hkrigidity.characters import all_characters, geometry_of, rank_exception_classify
from hkrigidity.cli import (
    MAX_CB_LEVEL,
    MAX_CHECKS_EXPONENT,
    MAX_EXPONENT,
    MAX_INVARIANT_EXPONENT,
    main,
)
from hkrigidity.registry import (
    MAX_REGISTRY_BYTES,
    MAX_REGISTRY_ENTRIES,
    default_registry_text,
)


REGISTRY_ENTRY = next(line for line in default_registry_text().splitlines()
                      if line.startswith("id="))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestRigidity:
    def test_obstructed_exponent_exits_one(self, capsys):
        code, out = run(capsys, ["rigidity", "--n", "3"])
        assert code == 1
        assert "rigid: no" in out
        assert "chi=-1" in out

    def test_rigid_exponent_exits_zero(self, capsys):
        code, out = run(capsys, ["rigidity", "--n", "4"])
        assert code == 0
        assert "rigid: yes" in out

    def test_json_report(self, capsys):
        code, out = run(capsys, ["rigidity", "--n", "4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["n"] == 4
        assert payload["mode"] == "orbits"
        assert payload["rigid"] is True
        assert payload["timing"] is None
        assert payload["verdict_tally"] == {
            "gvt": 288,
            "drop": 736,
            "superset": 0,
            "registry": 0,
            "nonvanishing": 0,
            "unresolved": 0,
        }
        assert payload["totals"] == {"characters": 1024, "orbits": 26}

    def test_json_is_byte_deterministic(self, capsys):
        _, first = run(capsys, ["rigidity", "--n", "4", "--json"])
        _, second = run(capsys, ["rigidity", "--n", "4", "--json"])
        assert first == second

    @pytest.mark.parametrize("n,digest", [
        # sha256 of the stdout of rigidity --n N --json
        (11, "de0ddda03f0c90c006ee5eb6926de1fd5b299d00820d385a37baad6731486956"),
        (12, "78fda566dab9b1b90aa692e028fba2b7d9870afda76b3303d5b6f63beb41083a"),
        (13, "ad2c6dd2feef3680fdbf2fc2cf6d70ffac4fca22d0e3325afb9972ed3fee984c"),
        (14, "fb700403a6864750bcb442f27a8ec334a472bfc3bd872cf4a6ce9ea77b9815c0"),
        (20, "913c7e0ebdc5b62e07627b95588fb5304bb1455191bc0cdfb425d42deba45960"),
        (30, "a904fb093a3415f7deb41eb7c3a52e92e2b9d09aa57df015c4668be87285f8bc"),
    ])
    def test_rigidity_json_bytes_pinned(self, capsys, n, digest):
        code, out = run(capsys, ["rigidity", "--n", str(n), "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_csv_tally(self, capsys):
        code, out = run(capsys, ["rigidity", "--n", "4", "--csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,kind,characters"
        assert "4,gvt,288" in lines
        assert "4,drop,736" in lines

    def test_range_exit_code_prefers_obstruction(self, capsys):
        # exponent 3 is obstructed (exit 1), exponent 4 is rigid (exit 0)
        code, _ = run(capsys, ["rigidity", "--n-range", "3..4"])
        assert code == 1

    def test_full_mode_matches_orbit_mode(self, capsys):
        _, orbit_out = run(capsys, ["rigidity", "--n", "3", "--json"])
        _, full_out = run(capsys, ["rigidity", "--n", "3", "--full", "--json"])
        orbit_payload = json.loads(orbit_out)
        full_payload = json.loads(full_out)
        assert orbit_payload["mode"] == "orbits"
        assert full_payload["mode"] == "full"
        del orbit_payload["mode"], full_payload["mode"]
        assert orbit_payload == full_payload

    def test_jobs_has_no_effect_and_starts_no_pool(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("worker pool started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        _, single = run(capsys, ["rigidity", "--n", "4", "--full", "--json"])
        code, jobs = run(
            capsys, ["rigidity", "--n", "4", "--full", "--jobs", "3", "--json"]
        )
        assert code == 0
        assert jobs == single

    def test_import_does_not_load_multiprocessing(self):
        src = os.path.dirname(os.path.dirname(hkrigidity.__file__))
        probe = "import sys, hkrigidity.cli; print('multiprocessing' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "False"

    def test_witness_table_is_built_on_first_use(self):
        # import and registry load build none of the prover's tables: the
        # witness table, the line table and the rank cache
        src = os.path.dirname(os.path.dirname(hkrigidity.__file__))
        probe = ("import hkrigidity.cli; from hkrigidity import registry, vanishing; "
                 "registry.default_registry(); "
                 "print(*(t.cache_info().currsize for t in (vanishing._subset_sums, "
                 "vanishing._line_table, vanishing._line_rank)))")
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.stdout.strip() == "0 0 0"

    def test_explicit_registry_path(self, capsys, tmp_path):
        target = tmp_path / "axioms.txt"
        target.write_text(default_registry_text(), encoding="utf-8")
        code, out = run(
            capsys, ["rigidity", "--n", "4", "--registry", str(target), "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rigid"] is True
        text = target.read_text(encoding="utf-8")
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert payload["registry_digest"] == expected

    @pytest.mark.parametrize(
        "content",
        [None, b"garbage\n", b"\xff\xfe\n",
         b"id=x\tlogset=" + b"[" * 100_000 + b"\ttwist=[0,0,0,0,0]\tjustification=x\n",
         b"#" * MAX_REGISTRY_BYTES + b"\n",
         "\n".join([REGISTRY_ENTRY] * (MAX_REGISTRY_ENTRIES + 1)).encode("utf-8"),
         "/dev/zero"],
        ids=["missing", "garbage", "not-utf8", "deeply-nested", "over-byte-cap",
             "over-entry-cap", "dev-zero"])
    def test_unreadable_registry_is_usage_error(self, capsys, tmp_path, content):
        target = tmp_path / "axioms.txt"
        if isinstance(content, str):
            if not os.path.exists(content):
                pytest.skip(f"no {content}")
            target = content
        elif content is not None:
            target.write_bytes(content)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "3", "--registry", str(target)])
        assert time.perf_counter() - start < 1
        assert err.value.code == 3
        assert "--registry" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_exponent(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rigidity"])
        assert err.value.code == 3

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 3

    def test_retired_orbits_flag(self, capsys):
        # orbit mode is the default; the flag that named it is gone
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "4", "--orbits"])
        assert err.value.code == 3

    def test_conflicting_exponent_flags(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "4", "--n-range", "4..5"])
        assert err.value.code == 3

    def test_exponent_below_minimum(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "1"])
        assert err.value.code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["rigidity", "--n", "1000"],
            ["rigidity", "--n-range", f"4..{MAX_EXPONENT + 1}", "--full"],
            ["rigidity", "--n-range", "2..40"],
            ["rigidity", "--n-range", "36..40", "--full"],
            ["checks", "--n-range", "4..1000"],
            ["checks", "--n-range", f"4..{MAX_CHECKS_EXPONENT + 1}"],
            ["cb", "--n", str(MAX_CB_LEVEL + 1)],
            ["cb", "--n-range", f"0..{MAX_CB_LEVEL + 1}"],
            ["cb", "--n-range", f"0..{10**30}"],
            ["invariants", "--n", str(MAX_INVARIANT_EXPONENT + 1)],
            ["invariants", "--n-range", f"2..{MAX_INVARIANT_EXPONENT + 1}"],
            ["invariants", "--n-range", f"2..{10**30}", "--json"],
        ],
    )
    def test_huge_exponent_refused_before_enumeration(self, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(characters, "orbit_representatives", refuse)
        for name in ("survivor_blocks", "code_blocks", "problem_keys", "block_geometry"):
            monkeypatch.setattr(characters, name, refuse)
            monkeypatch.setattr(invariants, name, refuse)
        monkeypatch.setattr(cb_arrangements, "census", refuse)
        monkeypatch.setattr(cb_arrangements, "walk", refuse)
        monkeypatch.setattr(cb_arrangements, "verify_propositions", refuse)
        monkeypatch.setattr(cb_arrangements, "_Propositions", refuse)
        monkeypatch.setattr(invariants, "closed_form", refuse)
        monkeypatch.setattr(cli, "closed_form", refuse)
        monkeypatch.setattr(cli, "_rank_exception_sweep", refuse)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_nonpositive_jobs(self, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "3", "--jobs", jobs])
        assert err.value.code == 3
        assert "--jobs" in capsys.readouterr().err

    def test_csv_and_json_conflict(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rigidity", "--n", "3", "--csv", "--json"])
        assert err.value.code == 3
        assert "--csv" in capsys.readouterr().err

    @pytest.mark.parametrize("span", ["1..1", "2..2"])
    def test_checks_exponent_below_minimum(self, capsys, span):
        with pytest.raises(SystemExit) as err:
            main(["checks", "--n-range", span])
        assert err.value.code == 3

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["invariants", "--n-range", "5"])
        assert err.value.code == 3


class TestInvariants:
    def test_text_table(self, capsys):
        code, out = run(capsys, ["invariants", "--n-range", "2..4"])
        assert code == 0
        assert "n=2: K^2=0" in out
        assert "n=3: K^2=135" in out

    def test_json(self, capsys):
        code, out = run(capsys, ["invariants", "--n", "5", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["K2"] == 5625
        assert payload["euler"] == 1875
        assert payload["chi_O"] == 625
        assert payload["noether_ok"] and payload["stratification_ok"]


class TestChecks:
    def test_default_battery_passes(self, capsys):
        code, out = run(capsys, ["checks", "--n-range", "4..4"])
        assert code == 0
        assert "all checks passed" in out

    def test_fault_injection_detected(self, capsys):
        code, out = run(capsys, ["checks", "--n-range", "4..4", "--inject-fault"])
        assert code == 1
        assert "[FAIL] intersection_table" in out

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rank_exception_sweep_matches_per_character_count(self, n):
        checked = failures = 0
        for psi in all_characters(n):
            if psi.is_zero:
                continue
            exc = rank_exception_classify(psi)
            if exc is None:
                continue
            checked += 1
            if (exc.predicted_twists is not None
                    and geometry_of(psi).twist not in exc.predicted_twists):
                failures += 1
        assert checked > 0
        hist = invariants.problem_histogram(n, orbits=False)
        assert cli._rank_exception_sweep(n, hist) == (checked, failures)

    def test_rank_exception_sweep_weights_by_character_count(self):
        # every deficient problem has one character at these exponents, so
        # scale the counts to see the weighting
        hist = invariants.problem_histogram(4, orbits=False)
        tripled = {prob: [3 * count, psi, keyed]
                   for prob, (count, psi, keyed) in hist.items()}
        expected = tuple(3 * x for x in cli._rank_exception_sweep(4, hist))
        assert cli._rank_exception_sweep(4, tripled) == expected

    def test_each_character_keyed_once(self, capsys, monkeypatch):
        # one full-mode histogram serves the rank, invariant and chi rows;
        # the report at min(ns) is the only orbit pass, one row per orbit
        rows = []
        real = characters.block_geometry

        def counted(digits, n):
            rows.append(len(digits))
            return real(digits, n)

        monkeypatch.setattr(characters, "block_geometry", counted)
        monkeypatch.setattr(invariants, "block_geometry", counted)
        code, out = run(capsys, ["checks", "--n-range", "8..8"])
        assert code == 0
        assert "32768 characters, 0 failures" in out
        assert sum(rows) == 8**5 + characters.orbit_count(8)

    def test_each_logset_classified_once(self, capsys, monkeypatch):
        calls = []
        real = cli.classify_logset

        def counted(logset, n):
            calls.append(logset)
            return real(logset, n)

        monkeypatch.setattr(cli, "classify_logset", counted)
        code, _ = run(capsys, ["checks", "--n-range", "4..4"])
        hist = invariants.problem_histogram(4, orbits=False)
        assert code == 0
        assert len(calls) == len({prob.logset for prob in hist})
        assert len(calls) < len(hist)

    def test_chi_row_fails_when_one_problem_is_off(self, capsys, monkeypatch):
        real = vanishing.chi_log
        target = next(iter(invariants.problem_histogram(4, orbits=False)))

        def skewed(logset, twist):
            chi = real(logset, twist)
            if logset == target.logset and twist == target.twist:
                return chi + 1
            return chi

        monkeypatch.setattr(invariants, "chi_log", skewed)
        code, out = run(capsys, ["checks", "--n-range", "4..4"])
        assert code == 1
        assert "[FAIL] chi_character_sum" in out
        assert "[ok] character_invariants" in out

    def test_checks_json_bytes_pinned(self, capsys):
        # sha256 of the stdout of checks --n-range 3..8 --json
        code, out = run(capsys, ["checks", "--n-range", "3..8", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f6a853f130d7ea17b811c78a571c279915bb78751e257f48da66e97cda424737")

    def test_replay_runs_once_per_distinct_problem(self, capsys, monkeypatch):
        problems = []
        real = replay_mod.replay

        def counted(prob, *args, **kwargs):
            problems.append(prob)
            return real(prob, *args, **kwargs)

        monkeypatch.setattr(replay_mod, "replay", counted)
        code, out = run(capsys, ["checks", "--n-range", "4..6"])
        keys = np.concatenate([characters.problem_keys(digits, 4)
                               for _, digits, _ in characters.survivor_blocks(4)])
        assert code == 0
        assert len(problems) == len(set(problems)) == len(np.unique(keys))
        assert "26 replayed, 0 failed" in out
        # exactly the certificates the report at min(ns) proved, in its order
        records = invariants.rigidity_report(4).records
        assert problems == [prob for prob, _, cert in records
                            if cert.kind != "unresolved"]

    def test_json_payload(self, capsys):
        code, out = run(capsys, ["checks", "--n-range", "4..4", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        names = {check["name"] for check in payload["checks"]}
        assert "dependency_census" in names
        assert "certificate_replay" in names


class TestCb:
    def test_cb_json_bytes_pinned(self, capsys):
        # sha256 of the stdout of cb --n 32 --json
        code, out = run(capsys, ["cb", "--n", "32", "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "9f8d4348c2fe78f26614526eed2e5bc1be37614e5f61b94cab3f2dcfa1103584")

    @pytest.mark.parametrize("argv,digest", [
        # a range walks each level once and prints every level it walks
        (["cb", "--n-range", "0..12", "--json"],
         "559d8dcb3b7bc676e6d66e269d1351070d9eb03ecc61f58afb720dbb4cb152e6"),
        # level 0's propositions are checked through level 1
        (["cb", "--n", "0", "--json"],
         "32a048d1741f2df146593e22a1afd0f59209bbbb36d3bc0019b9348c04eef790"),
    ])
    def test_cb_walk_bytes_pinned(self, capsys, argv, digest):
        code, out = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("argv", [["cb", "--n", "0"], ["cb", "--n-range", "2..3"]])
    def test_failed_census_exits_one(self, capsys, monkeypatch, argv):
        # without its sign flip, normalize splits crossing points into two keys
        monkeypatch.setattr(cb_arrangements, "normalize",
                            lambda v: tuple(x // math.gcd(*v) for x in v))
        code, out = run(capsys, argv)
        assert code == 1
        assert "propositions FAILED" in out

    CHAIN, RECURRENCES = "corner_chain_coordinates", "sequence_recurrences"

    @pytest.mark.parametrize("k,failed", [
        (2, {0: [RECURRENCES], 1: [RECURRENCES], 2: [CHAIN, RECURRENCES],
             3: [CHAIN, RECURRENCES], 4: [CHAIN, RECURRENCES],
             5: [CHAIN, RECURRENCES]}),
        (5, {0: [], 1: [], 2: [], 3: [], 4: [RECURRENCES],
             5: [CHAIN, RECURRENCES], 6: [CHAIN, RECURRENCES],
             7: [CHAIN, RECURRENCES], 8: [CHAIN, RECURRENCES]}),
    ])
    def test_wrong_sequence_fails_its_checks_from_its_level(
            self, capsys, monkeypatch, k, failed):
        # c(k) off by one: the corner chain fails from level k, and the
        # recurrences from level k-1, which reads c(k) ahead; level 0 prints
        # level 1's checks
        real = cb_arrangements.sequence

        def wrong(m):
            s = real(m)
            return dataclasses.replace(s, c=s.c + 1) if m == k else s

        monkeypatch.setattr(cb_arrangements, "sequence", wrong)
        code, out = run(capsys, ["cb", "--n-range", f"0..{k + 3}", "--json"])
        assert code == 1
        assert {p["n"]: [c["name"] for c in p["checks"] if not c["ok"]]
                for p in json.loads(out)} == failed
        assert {m: [c.name for c in cb_arrangements.verify_propositions(
                    max(m, 1)).checks if not c.ok]
                for m in range(k + 4)} == failed

    def test_range_contracts_the_corner_once_per_level(self, capsys, monkeypatch):
        calls = []
        contract = cb_arrangements.contract_point

        def counting(p):
            calls.append(p)
            return contract(p)

        monkeypatch.setattr(cb_arrangements, "contract_point", counting)
        code, _ = run(capsys, ["cb", "--n-range", "0..24"])
        assert code == 0
        assert len(calls) <= 26

    def test_walk_holds_one_census_at_a_time(self, capsys, monkeypatch):
        # full reports are built for printed levels only, and none is alive
        # when the next is built; level 0's waits for level 1's propositions
        refs, alive, built = [], [], []
        report = cb_arrangements._Arrangement.report

        def tracking(self, m):
            alive.append(sum(ref() is not None for ref in refs))
            built.append(m)
            full = report(self, m)
            refs.append(weakref.ref(full))
            return full

        monkeypatch.setattr(cb_arrangements._Arrangement, "report", tracking)
        for argv, printed in [(["cb", "--n", "12", "--json"], [12]),
                              (["cb", "--n-range", "0..6", "--json"], list(range(7))),
                              (["cb", "--n", "0"], [0])]:
            built.clear()
            code, _ = run(capsys, argv)
            assert code == 0
            assert built == printed
        assert max(alive) == 0

    def test_census_text(self, capsys):
        code, out = run(capsys, ["cb", "--n", "2"])
        assert code == 0
        assert "12 lines" in out
        assert "propositions ok" in out

    def test_census_json(self, capsys):
        code, out = run(capsys, ["cb", "--n", "1", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tally"] == {"2": 6, "3": 4, "4": 3}
        assert payload["pair_identity_ok"] and payload["formula_ok"]

    def test_svg_emission(self, capsys, tmp_path):
        target = tmp_path / "picture.svg"
        code, _ = run(capsys, ["cb", "--n", "2", "--emit-svg", str(target)])
        assert code == 0
        body = target.read_text(encoding="utf-8")
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    def test_unwritable_svg_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        with pytest.raises(SystemExit) as err:
            main(["cb", "--n", "2", "--emit-svg", str(target)])
        assert err.value.code == 3
        assert "--emit-svg" in capsys.readouterr().err

    @staticmethod
    def count_crossings(monkeypatch):
        """Count the arrangement's cross calls by pair of lines; the
        propositions call cross too, and are not counted."""
        crossed = collections.Counter()
        cross, add = cb_arrangements.cross, cb_arrangements._Arrangement.add.__code__

        def counting(u, v):
            if sys._getframe(1).f_code is add:
                crossed[u, v] += 1
            return cross(u, v)

        monkeypatch.setattr(cb_arrangements, "cross", counting)
        return crossed

    def test_range_computes_each_census_once(self, capsys, monkeypatch):
        _, expected = run(capsys, ["cb", "--n-range", "0..6", "--json"])
        crossed = self.count_crossings(monkeypatch)
        code, out = run(capsys, ["cb", "--n-range", "0..6", "--json"])
        assert code == 0
        assert out == expected
        lines = cb_arrangements.build_configuration(6)
        assert crossed == collections.Counter(itertools.combinations(lines, 2))

    def test_svg_reuses_the_census(self, capsys, monkeypatch, tmp_path):
        expected = cb_arrangements.render_svg(8)
        crossed = self.count_crossings(monkeypatch)
        target = tmp_path / "level8.svg"
        code, _ = run(capsys, ["cb", "--n", "8", "--json",
                               "--emit-svg", str(target)])
        assert code == 0
        lines = cb_arrangements.build_configuration(8)
        assert crossed == collections.Counter(itertools.combinations(lines, 2))
        assert target.read_text(encoding="utf-8") == expected

    def test_svg_needs_single_exponent(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["cb", "--n-range", "1..2", "--emit-svg", str(tmp_path / "x.svg")])
        assert err.value.code == 3


# Every subcommand and registry.derive go through the block path; these runs
# must not reach the per-character oracle that the tests compare it with.
ORACLE_FREE_RUNS = [
    ["rigidity", "--n-range", "2..6", "--json"],
    ["rigidity", "--n", "5", "--full", "--json"],
    ["checks", "--n-range", "3..6", "--json"],
    ["checks", "--n-range", "4..4", "--inject-fault"],
    ["invariants", "--n", "5"],
    ["cb", "--n", "3"],
]


def test_production_paths_do_not_call_the_per_character_oracle(capsys, monkeypatch):
    expected = [run(capsys, argv) for argv in ORACLE_FREE_RUNS]
    derived = registry.dumps(registry.derive(5))

    def refuse(*args, **kwargs):
        raise AssertionError("per-character oracle called")

    oracle = (characters.geometry_of, characters.orbit_representatives,
              characters.all_characters, characters.rank_exception_classify,
              vanishing.problem_of)
    # Patch the functions in every module that holds them by name.
    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "hkrigidity":
            continue
        for name, value in list(vars(module).items()):
            if any(value is f for f in oracle):
                monkeypatch.setattr(module, name, refuse)
                patched.add(f"{module_name}.{name}")
    monkeypatch.setattr(characters.Character, "loop", refuse)
    assert {"hkrigidity.characters.geometry_of", "hkrigidity.vanishing.geometry_of",
            "hkrigidity.vanishing.problem_of"} <= patched

    assert [run(capsys, argv) for argv in ORACLE_FREE_RUNS] == expected
    assert registry.dumps(registry.derive(5)) == derived
