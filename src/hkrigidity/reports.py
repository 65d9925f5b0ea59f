"""Deterministic report rendering: JSON, CSV, and terminal text.

Identical inputs must produce byte-identical output, so wall-clock timing
never enters a report body (the timing field is always null; live timings go
to stderr).  JSON is emitted with sorted keys and a trailing newline.
"""

from __future__ import annotations

import json

from .cb_arrangements import CensusReport, VerificationReport
from .invariants import RigidityReport, SurfaceInvariants, TALLY_KEYS

SCHEMA_VERSION = 1


def to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def rigidity_payload(report: RigidityReport) -> dict:
    inv = report.invariants
    return {
        "schema_version": SCHEMA_VERSION,
        "n": report.n,
        "mode": report.mode,
        "totals": {
            "characters": report.total_characters,
            "orbits": report.orbit_count,
        },
        "verdict_tally": dict(report.tally),
        "rigid": report.rigid,
        "unresolved_keys": [
            {"logset": [list(p) for p in ls], "twist": list(tw)}
            for ls, tw in report.unresolved_keys
        ],
        "nonvanishing_witnesses": [
            {
                "logset": [list(p) for p in w.logset],
                "twist": list(w.twist),
                "chi": w.chi,
                "h1_lower_bound": w.h1_lower_bound,
                "characters": w.characters,
                "min_character": list(w.min_character),
            }
            for w in report.nonvanishing
        ],
        "axioms_used": list(report.axiom_ids),
        "rules_used": list(report.rules),
        "invariants": {
            "K2": inv.K2,
            "euler": inv.euler,
            "euler_stratified": report.euler_stratified,
            "chi_O": inv.chi_O,
            "chi_theta": inv.chi_theta,
            "chi_character_sum": report.chi_character_sum,
        },
        "crosscheck_ok": report.crosscheck_ok,
        "registry_digest": report.registry_digest,
        "timing": None,
    }


def rigidity_csv(reports: list) -> str:
    lines = ["n,kind,characters"]
    for report in reports:
        for kind in TALLY_KEYS:
            lines.append(f"{report.n},{kind},{report.tally[kind]}")
    return "\n".join(lines) + "\n"


def rigidity_text(report: RigidityReport) -> str:
    lines = [
        f"exponent n = {report.n} ({report.mode} mode): "
        f"{report.total_characters} characters in {report.orbit_count} orbits",
        "  verdicts: "
        + ", ".join(f"{k}={report.tally[k]}" for k in TALLY_KEYS if report.tally[k]),
    ]
    if report.nonvanishing:
        for w in report.nonvanishing:
            lines.append(
                f"  obstructed: chi={w.chi}, h1>={w.h1_lower_bound}, "
                f"{w.characters} characters, e.g. {w.min_character}"
            )
    if report.unresolved_keys:
        lines.append(f"  unresolved problems: {len(report.unresolved_keys)}")
    lines.append(
        "  rigid: "
        + ("yes" if report.rigid else "no")
        + f"; crosschecks {'ok' if report.crosscheck_ok else 'FAILED'}"
    )
    if report.axiom_ids:
        lines.append("  axioms used: " + ", ".join(report.axiom_ids))
    return "\n".join(lines) + "\n"


def invariants_payload(inv: SurfaceInvariants, euler_stratified: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": inv.n,
        "K2": inv.K2,
        "euler": inv.euler,
        "euler_stratified": euler_stratified,
        "chi_O": inv.chi_O,
        "chi_theta": inv.chi_theta,
        "noether_ok": True,  # schema key; closed_form raises unless 12 | K^2 + e
        "stratification_ok": euler_stratified == inv.euler,
        "timing": None,
    }


def invariants_text(inv: SurfaceInvariants, euler_stratified: int) -> str:
    flag = "ok" if euler_stratified == inv.euler else "MISMATCH"
    return (
        f"n={inv.n}: K^2={inv.K2} e={inv.euler} chi_O={inv.chi_O} "
        f"chi_theta={inv.chi_theta} (stratified e={euler_stratified}, {flag})\n"
    )


def cb_payload(report: CensusReport, verification: VerificationReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": report.n,
        "line_count": report.line_count,
        "tally": {str(v): c for v, c in sorted(report.tally.items())},
        "point_count": len(report.points),
        "pair_identity_ok": report.pair_identity_ok,
        "formula_ok": report.formula_ok,
        "propositions_ok": verification.ok,
        "checks": [
            {"name": c.name, "ok": c.ok, "note": c.note}
            for c in verification.checks
        ],
        "timing": None,
    }


def cb_text(report: CensusReport, verification: VerificationReport) -> str:
    tally = ", ".join(f"{v}-fold: {c}" for v, c in sorted(report.tally.items()))
    lines = [
        f"level n = {report.n}: {report.line_count} lines, "
        f"{len(report.points)} intersection points ({tally})",
        f"  pair identity {'ok' if report.pair_identity_ok else 'FAILED'}; "
        f"closed-form tally {'ok' if report.formula_ok else 'FAILED'}; "
        f"propositions {'ok' if verification.ok else 'FAILED'}",
    ]
    return "\n".join(lines) + "\n"


def checks_payload(results: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "checks": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in results
        ],
        "ok": all(ok for _, ok, _ in results),
        "timing": None,
    }


def checks_text(results: list) -> str:
    lines = [
        f"[{'ok' if ok else 'FAIL'}] {name}: {detail}" for name, ok, detail in results
    ]
    lines.append(
        "all checks passed"
        if all(ok for _, ok, _ in results)
        else "SOME CHECKS FAILED"
    )
    return "\n".join(lines) + "\n"
