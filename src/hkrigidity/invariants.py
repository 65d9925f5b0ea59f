"""Numerical invariants of the covering surfaces and whole-surface rigidity reports.

The covering surface attached to exponent n is determined by the ten-line
arrangement on the degree-5 del Pezzo surface together with the group
(Z/n)^5.  Its Chern invariants admit closed forms in n; independently they
can be assembled from an Euler-number stratification of the arrangement
complement and from the character-by-character Euler characteristics of the
twisted logarithmic sheaves.  This module computes all three routes and cross
checks them, and drives the certification sweep, which proves each distinct
problem of the n^5 characters once.  The character-sum route has one
definition, histogram_chi_sum over a problem histogram, which the sweep, the
checks battery and chi_theta_character_sum all call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .characters import (
    Character,
    InternalInconsistencyError,
    block_geometry,
    code_blocks,
    orbit_count,
    problem_keys,
    survivor_blocks,
)
from .picard import PAIRS, overlap_intersection
from .registry import Registry, default_registry, digest
from .vanishing import (
    ProofEngine,
    canonical_problem,
    certificate_chain,
    chi_log,
    problem_of_key,
    rules_used,
)


@dataclass(frozen=True)
class SurfaceInvariants:
    """Chern / Euler data of the exponent-n covering surface."""

    n: int
    K2: int
    euler: int
    chi_O: int
    chi_theta: int


def closed_form(n: int) -> SurfaceInvariants:
    """Closed-form invariants of the exponent-n covering.

    K^2 and the topological Euler number are polynomial in n; the structure
    sheaf characteristic follows by Noether, and chi of the tangent sheaf by
    Riemann-Roch on a surface.
    """
    if n < 2:
        raise ValueError("covering exponent must be at least 2")
    K2 = 5 * (n - 2) ** 2 * n**3
    euler = n**3 * (2 * n * n - 10 * n + 15)
    total = K2 + euler
    if total % 12:
        raise InternalInconsistencyError(
            f"Noether sum {total} not divisible by 12 at n={n}"
        )
    chi_O = total // 12
    chi_theta = 2 * K2 - 10 * chi_O
    return SurfaceInvariants(n=n, K2=K2, euler=euler, chi_O=chi_O, chi_theta=chi_theta)


def euler_by_stratification(n: int) -> int:
    """Euler number of the covering by strata of the branch arrangement.

    Strata downstairs: the arrangement complement, the lines punctured at
    their mutual intersection points, and the intersection points themselves.
    The covering map has constant fiber cardinality over each stratum
    (n^5, n^4, n^3 respectively), so the Euler number is the weighted sum.
    All stratum counts are recomputed from the arrangement combinatorics.
    """
    if n < 1:
        raise ValueError("covering exponent must be positive")
    nodes = sum(
        1 for p, q in combinations(PAIRS, 2) if overlap_intersection(p, q) == 1
    )
    punctures = {
        p: sum(1 for q in PAIRS if q != p and overlap_intersection(p, q) == 1)
        for p in PAIRS
    }
    e_base = 3 + 4  # plane plus one for each blown-up point
    e_lines_closed = sum(2 for _ in PAIRS) - nodes
    e_complement = e_base - e_lines_closed
    e_lines_open = sum(2 - punctures[p] for p in PAIRS)
    return e_complement * n**5 + e_lines_open * n**4 + nodes * n**3


def _tally(keys, weights, rows, codes, digits):
    """Reduce rows in ascending code order to one per distinct key: the key,
    its total weight, its number of rows keyed, and the code and digits of
    its first row."""
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    totals = np.zeros((2, len(keys)), dtype=np.int64)
    np.add.at(totals[0], inverse, weights)
    np.add.at(totals[1], inverse, rows)
    return keys, totals[0], totals[1], codes[first], digits[first]


def problem_histogram(n: int, orbits: bool = True) -> dict:
    """Map each distinct problem of the n^5 characters to [character count,
    least character, rows keyed], in ascending order of the least character.

    Full mode keys every character; orbit mode keys the least character of
    each symmetry orbit, weighted by orbit size, and checks the rows keyed,
    one per orbit, against the Burnside count.  Keys are computed a block at
    a time by characters.problem_keys, and each block is folded into the
    tally of the earlier ones, so a key's first row stays its least character.
    """
    tally = None
    for codes, digits, weights in (survivor_blocks if orbits else code_blocks)(n):
        block = _tally(problem_keys(digits, n), weights,
                       np.ones(len(codes), dtype=np.int64), codes, digits)
        if tally is not None:
            block = _tally(*(np.concatenate(pair) for pair in zip(tally, block)))
        tally = block
    keys, counts, rows, codes, digits = tally
    if orbits and rows.sum() != orbit_count(n):
        raise InternalInconsistencyError(
            f"{rows.sum()} orbit representatives at n={n}, "
            f"Burnside count {orbit_count(n)}")
    order = np.argsort(codes)
    return {problem_of_key(key): [count, Character(n, tuple(row)), keyed]
            for key, count, keyed, row in zip(
                *(a[order].tolist() for a in (keys, counts, rows, digits)))}


def histogram_chi_sum(hist: dict) -> int:
    """Sum of chi over a problem_histogram, each problem weighted by count."""
    return sum(count * chi_log(prob.logset, prob.twist)
               for prob, (count, _, _) in hist.items())


def chi_theta_character_sum(n: int, orbits: bool = True) -> int:
    """Sum of chi over the twisted log problems of all n^5 characters."""
    return histogram_chi_sum(problem_histogram(n, orbits))


def chi_crosscheck(n: int, orbits: bool = True) -> bool:
    """Character sum of chi must reproduce chi of the tangent sheaf."""
    return chi_theta_character_sum(n, orbits=orbits) == closed_form(n).chi_theta


def character_invariant_suite(n: int) -> tuple:
    """Sweep every character through block_geometry.

    Returns (characters checked, failures), and the failures are always
    empty: block_geometry raises InternalInconsistencyError before it
    returns, so every character it sweeps satisfies these conditions, with
    F its quadrangle loop total and S its exceptional one.
    - F is a multiple of n, and n times the eigensheaf class reconstructs
      the loop-weighted class sum: both are checked.
    - F lies in [0, 5n]: it is checked to equal the sum of its six loops,
      each at most n - 1, and it is a multiple of n.
    - Each point excess lies in {0, n, 2n}: it is sigma - sigma % n, a
      multiple of n by construction, and its range is checked.
    - S lies in [0, 3n] and 2F - S is the sum of the excesses: the identity
      is checked, S is the sum of four loops, so at most 4n - 4, and the
      identity makes it a multiple of n.
    - A double excess forces a pole on the matching exceptional curve: the
      e_j coordinate of route one is loop(j, 5) minus the three loops
      through point j, and route two checks it equals minus excess_j, so an
      excess of 2n leaves loop(j, 5) at most n - 3.
    """
    for _, digits, _ in code_blocks(n):
        block_geometry(digits, n)
    return n ** 5, ()


@dataclass(frozen=True)
class NonVanishingRecord:
    """Aggregate of all characters sharing one obstructed problem."""

    logset: tuple
    twist: tuple
    chi: int
    h1_lower_bound: int
    characters: int
    min_character: tuple


@dataclass
class RigidityReport:
    """Outcome of the full certification sweep at one exponent."""

    n: int
    mode: str
    total_characters: int
    orbit_count: int
    tally: dict
    rigid: bool
    unresolved_keys: tuple
    nonvanishing: tuple
    axiom_ids: tuple
    rules: tuple
    invariants: SurfaceInvariants
    euler_stratified: int
    chi_character_sum: int
    crosscheck_ok: bool
    registry_digest: Optional[str]
    # (problem, rows keyed, certificate) per distinct problem, in histogram
    # order: the certificates this report rests on, which checks replays.
    records: tuple

    @property
    def exit_code(self) -> int:
        if self.tally.get("nonvanishing", 0):
            return 1
        if self.tally.get("unresolved", 0):
            return 2
        return 0


# "superset" is a retired certificate form: always 0, kept for schema 1 bytes.
TALLY_KEYS = ("gvt", "drop", "superset", "registry", "nonvanishing", "unresolved")


def rigidity_report(
    n: int,
    registry: Optional[Registry] = None,
    *,
    orbit_mode: bool = True,
) -> RigidityReport:
    """Certify every character of (Z/n)^5 and assemble the summary report.

    Each character's problem is computed, and each distinct problem is
    proven once and weighted by its character count.  Orbit mode computes
    one problem per symmetry orbit, weighted by orbit size; full mode
    computes the problem of every one of the n^5 characters, in this
    process.  Both modes feed the same problem histogram and must produce
    identical aggregates.
    """
    if registry is None:
        registry = default_registry()

    hist = problem_histogram(n, orbit_mode)

    engine = ProofEngine(registry)
    counts: Counter = Counter()
    unresolved, axioms, rules = set(), set(), set()
    obstructed: dict = {}
    records = []
    for prob, (weight, psi, keyed) in hist.items():
        cert = engine.prove(prob)
        records.append((prob, keyed, cert))
        counts[cert.kind] += weight
        rules |= rules_used(cert)
        axioms.update(node.registry_id for node in certificate_chain(cert)
                      if node.kind == "registry")
        if cert.kind == "unresolved":
            unresolved.add((cert.canonical_logset, cert.canonical_twist))
        elif cert.kind == "nonvanishing":
            key, _ = canonical_problem(prob.logset, prob.twist)
            entry = obstructed.setdefault(
                key, [cert.chi, cert.h1_lower_bound, 0, psi.a])
            entry[2] += weight
            entry[3] = min(entry[3], psi.a)

    tally = {k: counts.get(k, 0) for k in TALLY_KEYS}
    if sum(tally.values()) != n**5:
        raise InternalInconsistencyError(
            f"certificate tally covers {sum(tally.values())} of {n ** 5} characters"
        )
    inv = closed_form(n)
    chi_sum = histogram_chi_sum(hist)
    euler_strat = euler_by_stratification(n)
    crosscheck = chi_sum == inv.chi_theta and euler_strat == inv.euler
    nonvan = tuple(
        NonVanishingRecord(
            logset=key[0],
            twist=key[1],
            chi=entry[0],
            h1_lower_bound=entry[1],
            characters=entry[2],
            min_character=entry[3],
        )
        for key, entry in sorted(obstructed.items())
    )
    return RigidityReport(
        n=n,
        mode="orbits" if orbit_mode else "full",
        total_characters=n**5,
        orbit_count=orbit_count(n),
        tally=tally,
        rigid=tally["nonvanishing"] == 0 and tally["unresolved"] == 0,
        unresolved_keys=tuple(sorted(unresolved)),
        nonvanishing=nonvan,
        axiom_ids=tuple(sorted(axioms)),
        rules=tuple(sorted(rules)),
        invariants=inv,
        euler_stratified=euler_strat,
        chi_character_sum=chi_sum,
        crosscheck_ok=crosscheck,
        registry_digest=digest(registry.text),
        records=tuple(records),
    )
