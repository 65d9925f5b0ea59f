"""Iterated plane line configurations built from a quadratic contraction.

Starting from the coordinate triangle and the three axis lines, a plane
Cremona transformation (the contraction) pulls the configuration through
successive levels.  The coordinates of every vertex and every line form are
governed by one integer sequence; this module builds the configuration at
each level with exact integers, takes a census of its intersection points,
and checks the census against closed-form tallies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb, gcd
from typing import Optional


class ConfigurationError(Exception):
    """A configuration failed a structural requirement."""


def seq_a(m: int) -> int:
    """Signed coordinate sequence; defined for m >= -1, starts 0, 3, -3, 9."""
    if m < -1:
        raise ValueError("sequence index starts at -1")
    return 1 - (-2) ** (m + 1)


@dataclass(frozen=True)
class SequenceTriple:
    """Level-m values of the three coordinate sequences.

    b and c are None at m = -1, where the defining expressions are not
    integers; a(-1) = 0.
    """

    a: int
    b: Optional[int]
    c: Optional[int]


def sequence(m: int) -> SequenceTriple:
    a = seq_a(m)
    if m == -1:
        return SequenceTriple(a=a, b=None, c=None)
    raw = 1 - (-2) ** m
    if abs(raw) % 3:
        raise ConfigurationError(f"b({m}) is not an integer")
    b = abs(raw) // 3
    return SequenceTriple(a=a, b=b, c=b + (-1) ** m)


def normalize(v: tuple) -> tuple:
    """Primitive integer representative with positive leading entry."""
    g = gcd(*v)
    if not g:
        raise ValueError("zero vector has no projective class")
    for x in v:
        if x:
            break
    if x < 0:
        g = -g
    return tuple(y // g for y in v)


def cross(u: tuple, v: tuple) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u: tuple, v: tuple) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


# Contraction matrices: points transform by J - I, line forms by J - 2I.
# (J - 2I)(J - I) = 2I, so incidence (form . point = 0) is preserved.
POINT_MAP = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
FORM_MAP = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))


def _apply(mat: tuple, v: tuple) -> tuple:
    return tuple(sum(row[k] * v[k] for k in range(3)) for row in mat)


def contract_point(p: tuple) -> tuple:
    return normalize(_apply(POINT_MAP, p))


def contract_line(u: tuple) -> tuple:
    return normalize(_apply(FORM_MAP, u))


def corner(i: int) -> tuple:
    """Coordinate point e_i, i in 1..3."""
    return tuple(1 if k == i - 1 else 0 for k in range(3))


def corner_at_level(i: int, m: int) -> tuple:
    """m-fold contraction image of e_i, computed by iterating the matrix."""
    p = corner(i)
    for _ in range(m):
        p = contract_point(p)
    return p


def pencil_base(i: int) -> tuple:
    """Common point of all level lines in the i-th pencil; its coordinates
    are those of the i-th axis form."""
    return axis_line(i)


def axis_line(i: int) -> tuple:
    """Fixed line of the i-th pencil direction, i in 1..3."""
    coords = [0, 0, 0]
    j, k = [x for x in range(3) if x != i - 1]
    coords[j], coords[k] = 1, -1
    return tuple(coords)


def line_at_level(i: int, m: int) -> tuple:
    """Level-m line of the i-th pencil: form a(m) on x_i, a(m-1) on the rest."""
    if m < 0:
        raise ValueError("levels start at 0")
    hi, lo = seq_a(m), seq_a(m - 1)
    return normalize(tuple(hi if k == i - 1 else lo for k in range(3)))


def build_configuration(n: int) -> tuple:
    """All 3(n+2) line forms of the level-n configuration, build order fixed."""
    if n < 0:
        raise ValueError("levels start at 0")
    lines = [axis_line(i) for i in (1, 2, 3)]
    for m in range(n + 1):
        for i in (1, 2, 3):
            lines.append(line_at_level(i, m))
    if len(set(lines)) != len(lines):
        raise ConfigurationError(f"level {n} produced coincident lines")
    return tuple(lines)


@dataclass(frozen=True)
class CensusReport:
    """Intersection-point census of one configuration level.

    Two distinct lines meet in exactly one point, so a point's valency is
    the number of lines in the pairs that cross there.  pair_identity_ok
    holds when every line recorded through a point is incident with it
    (form . point = 0) and the sum of C(v, 2) over the valencies v equals
    C(L, 2) for the L lines.  A failed incidence makes it false rather than
    raising, so a caller reports the level as failed.
    """

    n: int
    line_count: int
    points: tuple  # (coords, valency), in the order the pairs first cross
    tally: dict  # valency -> number of points
    pair_identity_ok: bool
    formula_ok: bool


def expected_tally(n: int) -> dict:
    """Closed-form valency tally; the top bucket merges into low valencies
    at small n."""
    if n < 0:
        raise ValueError("levels start at 0")
    tally = {2: 3 * n * (n - 1) + 3, 3: 4, 4: 3 * n}
    if n >= 1:
        tally[n + 1] = tally.get(n + 1, 0) + 3
    return {v: c for v, c in tally.items() if c}


class _Arrangement:
    """The crossings of a list of lines that grows one line at a time.

    Two distinct lines meet in exactly one point, so an added line is
    crossed with each earlier line once, (lines[i], new line) for i in
    order, and nothing before it is crossed again.  Four things are kept
    current as it goes: through maps each crossing to the indices of its
    lines, tally counts the crossings of each valency, pairs is the sum of
    C(v, 2) over the valencies (a line joining a point of valency v adds v),
    and incident stays true while every line recorded through a point is
    incident with it, checked once when the line joins the point.  The pair
    identity pairs = C(L, 2) holds exactly when every point's pairs are all
    the pairs of its lines, as a consistent normalize gives; a normalize
    that splits a point breaks it or lowers a valency, which the tally
    check against expected_tally sees.
    """

    def __init__(self, lines):
        self.lines = []
        self.through = {}
        self.tally = Counter()
        self.pairs = 0
        self.incident = True
        for u in lines:
            self.add(u)

    def add(self, u: tuple) -> None:
        # normalize, cross and dot are read here, not bound at import, so a
        # test can swap them.
        norm, meet, on = normalize, cross, dot
        lines, through, tally = self.lines, self.through, self.tally
        j = len(lines)
        lines.append(u)
        for i in range(j):
            p = norm(meet(lines[i], u))
            members = through.get(p)
            if members is None:
                members = through[p] = set()
            for k in (i, j):
                if k in members:
                    continue
                v = len(members)
                members.add(k)
                self.pairs += v
                if v:
                    tally[v] -= 1
                tally[v + 1] += 1
                if on(lines[k], p):
                    self.incident = False

    @property
    def pair_identity_ok(self) -> bool:
        return self.incident and self.pairs == comb(len(self.lines), 2)

    def _tally(self) -> dict:
        return {v: c for v, c in self.tally.items() if c}

    def ok(self, m: int) -> bool:
        """Whether these lines, read as level m, pass the census."""
        return self.pair_identity_ok and self._tally() == expected_tally(m)

    def report(self, m: int) -> CensusReport:
        """The full census of these lines read as level m."""
        tally = self._tally()
        return CensusReport(
            n=m,
            line_count=len(self.lines),
            points=tuple((p, len(members))
                         for p, members in self.through.items()),
            tally=tally,
            pair_identity_ok=self.pair_identity_ok,
            formula_ok=tally == expected_tally(m),
        )

    def svg(self) -> str:
        """Picture of the lines and crossings in an affine chart; floats only
        for drawing."""
        width = height = 720
        on_line = [[] for _ in self.lines]
        dots = []
        for p, members in sorted(self.through.items()):
            xy = _chart(p)
            if xy is None:
                continue
            dots.append((xy, len(members)))
            for i in members:
                on_line[i].append(xy)

        xs = [x for pts in on_line for x, _ in pts]
        ys = [y for pts in on_line for _, y in pts]
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        span = max(hi_x - lo_x, hi_y - lo_y) or 1.0
        pad = 0.1 * span

        def to_px(x, y):
            px = (x - lo_x + pad) / (span + 2 * pad) * width
            py = height - (y - lo_y + pad) / (span + 2 * pad) * height
            return px, py

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
        ]
        for idx, pts in enumerate(on_line):
            if len(pts) < 2:
                continue
            pts = sorted(pts)
            (x0, y0), (x1, y1) = pts[0], pts[-1]
            dx, dy = x1 - x0, y1 - y0
            x0, y0 = x0 - 0.25 * dx, y0 - 0.25 * dy
            x1, y1 = x1 + 0.25 * dx, y1 + 0.25 * dy
            color = _AXIS_COLOR if idx < 3 else _LEVEL_COLORS[((idx - 3) // 3) % 6]
            a, b = to_px(x0, y0), to_px(x1, y1)
            parts.append(
                f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" '
                f'y2="{b[1]:.2f}" stroke="{color}" stroke-width="1.4"/>'
            )
        for xy, valency in dots:
            cx, cy = to_px(*xy)
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{1.5 + 0.7 * valency:.2f}" '
                f'fill="#00000088"/>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def walk(top: int):
    """Yield (m, arrangement) for m = 0..top, the arrangement holding the
    lines of level m.

    Level m's lines are level m-1's plus three, so one arrangement grows
    through every level and each pair of the level-top lines is crossed
    once.  The arrangement changes when the walk advances, so read it
    before the next level.
    """
    lines = build_configuration(top)
    arrangement = _Arrangement(lines[:3])
    for m in range(top + 1):
        for u in lines[3 * m + 3:3 * m + 6]:
            arrangement.add(u)
        yield m, arrangement


def census(n: int) -> CensusReport:
    """Census of the intersection points of level n and their valencies."""
    return _Arrangement(build_configuration(n)).report(n)


@dataclass(frozen=True)
class PropositionCheck:
    name: str
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# Name and note of each proposition, in report order.
_PROPOSITIONS = (
    ("corner_chain_coordinates", "e1 chain is (c,b,b)"),
    ("pencil_base_point", ""),
    ("axis_meets_level_line",
     "axis 1 meets level m of pencil 1 in the level m+1 corner"),
    ("cross_axis_points", "(b, 2b', b) family"),
    ("level_zero_crossings",
     "level m by level 0 of another pencil gives (b(m), 0, b(m+1))"),
    ("corner_valency_four",
     "axis 1 and level m of pencils 2,3 pass through the level m corner"),
    ("contraction_advances_levels", ""),
    ("incidence_preserved", "N.M = 2I"),
    ("sequence_recurrences", ""),
    ("census_formulas", ""),
)


class _Propositions:
    """Exact checks of the structural identities behind the census formulas,
    advanced one level at a time along a walk.

    Conventions recorded here were fixed by exhaustive computation: the axis
    line meets the level-m pencil line in the level-(m+1) corner point, and
    the (b(m), 0, b(m+1)) points arise as intersections of a level-m line
    with a level-0 line of a different pencil.

    Each advance checks the level-m instance of every proposition once and
    folds it into the flags of the levels before, carrying the e1 corner
    (contracted once per level), the level's pencil lines (built by the
    look-ahead to level m+1) and the earlier pencil-1 lines (each crossed
    once with every later one).  The checks free of m, N.M = 2I column by
    column and the recurrence of a(0), are made once, here.
    """

    def __init__(self):
        self.m = 0
        self.corner = corner(1)
        self.lines = tuple(line_at_level(i, 0) for i in (1, 2, 3))
        self.pencil = []
        self.ok = dict.fromkeys((name for name, _ in _PROPOSITIONS), True)
        self.ok.update(
            incidence_preserved=all(
                _apply(FORM_MAP, _apply(POINT_MAP, e)) == tuple(2 * x for x in e)
                for e in map(corner, (1, 2, 3))),
            sequence_recurrences=seq_a(0) == seq_a(-1) + 3,
        )

    def advance(self, arrangement) -> VerificationReport:
        """Check level m, the arrangement holding its lines, and return the
        checks of levels 0..m."""
        m, here, lines = self.m, self.corner, self.lines
        self.m, self.corner = m + 1, contract_point(here)
        self.lines = tuple(line_at_level(i, m + 1) for i in (1, 2, 3))
        s, t = sequence(m), sequence(m + 1)
        level = {
            "pencil_base_point": all(
                normalize(cross(u, lines[0])) == pencil_base(1)
                for u in self.pencil),
            "axis_meets_level_line":
                normalize(cross(axis_line(1), lines[0])) == self.corner,
            "contraction_advances_levels": all(
                contract_line(u) == v for u, v in zip(lines, self.lines)),
            "sequence_recurrences":
                seq_a(m + 1) == seq_a(m) + 3 * (-2) ** (m + 1)
                and t.c == 2 * s.b and t.b == s.c + s.b,
            "census_formulas": arrangement.ok(m),
        }
        if m:
            level.update(
                corner_chain_coordinates=here == normalize((s.c, s.b, s.b)),
                cross_axis_points=normalize(cross(axis_line(2), lines[0]))
                == normalize((s.b, 2 * sequence(m - 1).b, s.b)),
                level_zero_crossings=normalize(cross(lines[0], line_at_level(2, 0)))
                == normalize((s.b, 0, t.b)),
                corner_valency_four=normalize(cross(axis_line(1), lines[1])) == here,
            )
        self.pencil.append(lines[0])
        for name, ok in level.items():
            self.ok[name] = self.ok[name] and ok
        return VerificationReport(checks=tuple(
            PropositionCheck(name, self.ok[name], note)
            for name, note in _PROPOSITIONS))


def verify_propositions(max_n: int) -> VerificationReport:
    """The propositions of every level 0..max_n, checked along one walk; on a
    2-vCPU machine max_n = 64 takes about 0.07 s in process, most of it the
    walk's census."""
    propositions = _Propositions()
    for _, arrangement in walk(max_n):
        verification = propositions.advance(arrangement)
    return verification


_AXIS_COLOR = "#111111"
_LEVEL_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#9a7d0a", "#7d3c98", "#b9770e")


def _chart(p: tuple):
    s = p[0] + p[1] + p[2]
    if s == 0:
        return None
    return (p[1] + 0.5 * p[2]) / s, (0.8660254037844386 * p[2]) / s


def render_svg(n: int) -> str:
    """Exact-configuration picture of level n in an affine chart."""
    return _Arrangement(build_configuration(n)).svg()
