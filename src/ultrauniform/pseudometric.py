"""Pseudo-metrics with exact rational distances, systems, chains, metrization.

Distances are exact rationals; every comparison is exact, so strict ball
thresholds never suffer float ties.  A table is stored only as an integer
grid over one common denominator (`scale`), in lowest terms: `scale` is the
lcm of the reduced denominators, so equal tables have equal grids.
`Fraction`s appear only at the boundary: the public constructor parses each
distinct string or int cell once and reads `Fraction` cells from their slots
into the grid; `dist`, `d()`, `values()`, `to_json()` and `jsonio.dumps` build
`Fraction`s or "p/q" strings from the grid, once per distinct grid value.  A
parsed table is checked on its grid, with each row packed into one int, in
fields of 8, 16, 32 or 64 bits so that a row packs at C speed from one
`bytes` or `array` (only larger entries are packed through a string): a
table with at most n distinct values is first tested for the strong
triangle inequality, one big-int expression per distinct value of each row
(stopping at 2n distinct balls), and passes as an ultrametric (hence a
pseudo-metric).  Only a table with more values, or one that fails there,
runs the triangle scan of one big-int expression per pair of points, which
names its first failing (z, x, y); the scan's fields may need one bit more
than the test's, and the rows are packed again only then.  The table keeps
the test's verdict for `is_na`.  Builders write grids directly; `chain_pm`,
a `sup_pm` of ultrametrics and the p-adic table skip every test (`_from_grid`).

Ball relations are read from the table's level balls: per point, its
distinct distances in ascending order and the ball of each as a bitmask,
built in one pass over the grid on the first ball the table is asked for
and kept on the table, so each radius costs one bisection per point; a
system is decided on its zero set, its `principal()`, read straight from
the grids, which `uniformity_equal` compares with a basis of either form.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress
from operator import attrgetter, mul, not_
from typing import Sequence

from .core import (
    Carrier,
    Family,
    Relation,
    _expect_n,
    bits,
    is_equivalence,
    mask_of,
    same_carrier,
)
from .uniformity import DiagonalBasis


# "p" or "p/q" in ASCII digits, at most 4300 of them in each part (the
# default int() digit limit, held here however the interpreter is set, since
# int() takes time quadratic in the digits); `Fraction` would also take
# decimals and exponents, and "1e1000000000" would make it build a 415 MB integer
_RATIONAL = re.compile(r"([+-]?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _shown(value) -> str:
    """repr(value) for an error message, cut short when it is long."""
    text = repr(value)
    if len(text) <= 60:
        return text
    return f"{text[:40]}... ({len(text)} characters)"


def _as_fraction(value, what: str) -> Fraction:
    """An int (not a bool), a Fraction or a string "p" or "p/q", named `what` in errors."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is not None:
            num, den = match.groups()
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # over an int() digit limit set below 4300
                pass
            else:
                if den == 0:
                    raise ValueError(f"{what} has a zero denominator: {_shown(value)}")
                return Fraction(num, den)
    raise ValueError(f"{what} is not an exact rational: {_shown(value)}")


# array type code per field width in bits, for rows packed at C speed
_FIELDS = {8 * array(code).itemsize: code for code in "HLIQ"}
# a Fraction's numerator and denominator, read from its slots at C speed
_NUM, _DEN = attrgetter("_numerator"), attrgetter("_denominator")


def _ratio(value) -> tuple[int, int]:
    """The distance `value` as (p, q) in lowest terms, q > 0."""
    return _as_fraction(value, "distance").as_integer_ratio()


def _pack(grid: Sequence[Sequence[int]], values: set[int], carry: int = 1) -> tuple[int, list[int]]:
    """Field width w and the rows packed into ints, one w-bit field per column.

    `values` are the grid's distinct entries, all nonnegative; column 0 is
    the lowest field.  w - 1 >= (m << carry).bit_length() for the largest
    entry m, which leaves room for a guard bit at the top of every field
    and `carry` bits above m: the ultrametric test needs none, the triangle
    scan's sums of two entries one.  w is rounded up to 8, 16, 32 or 64
    bits, so that a row is packed as one `bytes` or the bytes of one
    `array`; only larger entries take the string path.
    """
    need = (max(values) << carry).bit_length() + 1
    if need <= 8:
        return 8, [int.from_bytes(bytes(row), "little") for row in grid]
    for w in (16, 32, 64):
        if need <= w:
            rows = [array(_FIELDS[w], row) for row in grid]
            if sys.byteorder == "big":  # column 0 stays the lowest field
                for row in rows:
                    row.byteswap()
            return w, [int.from_bytes(row, "little") for row in rows]
    spec = f"0{need}b"
    digits = {v: format(v, spec) for v in values}
    return need, [int("".join(map(digits.__getitem__, reversed(row))), 2) for row in grid]


def _is_ultrametric(grid: Sequence[Sequence[int]], w: int, packed: Sequence[int]) -> bool:
    """Whether every level {d <= v} is an equivalence, i.e. grid is an ultrametric.

    The grid must be symmetric, nonnegative and zero on the diagonal, with
    rows packed by `_pack` with no carry.  The balls of a point x are the
    sets {y | grid[x][y] <= v} for the values v its row holds; each is one
    big-int expression, whose surviving guard bits in
    (packed[x] | guards) - (v + 1) * ones mark the columns outside it: field
    y holds guard + grid[x][y] - 1 - v >= guard - 1 - m >= 0, so no field
    borrows from the next.  In an ultrametric every point of a ball B has B
    among its own balls.  Conversely, if it does, then d(x,z) > max(d(x,y),
    d(y,z)) is impossible: the ball {u | d(x,u) < d(x,z)} holds y but not z, so
    as a ball of y it gives d(y,z) > d(y,x), and the ball {u | d(z,u) < d(x,z)}
    of z gives d(y,x) > d(y,z).  A point lies in each of its balls and has each
    once, so a ball B belongs to at most |B| points, and to all of them iff the
    sizes of the distinct balls add up to the number of (point, ball) pairs:
    sum_x |set(grid[x])| big-int steps (n^2 for the scan), or fewer, as an
    ultrametric's balls form a hierarchy and the test stops at 2n of them.
    """
    n = len(grid)
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    guards = ones << (w - 1)
    balls, pairs = set(), 0  # each distinct ball as the guard bits of the columns outside it
    for row, bits in zip(grid, packed):
        biased = (bits | guards) - ones
        values = set(row)
        pairs += len(values)  # (point, ball) pairs
        for v in values:
            balls.add((biased - v * ones) & guards)
        if len(balls) >= 2 * n:  # a hierarchy on n points has at most 2n - 1 members
            return False
    return n * len(balls) - sum(map(int.bit_count, balls)) == pairs


def _triangle_failure(
    grid: Sequence[Sequence[int]], w: int, packed: Sequence[int]
) -> tuple[int, int, int] | None:
    """First (z, x, y) with y > x and grid[x][y] > grid[x][z] + grid[z][y].

    The grid must already be symmetric, nonnegative and zero on the
    diagonal, with rows packed by `_pack` (one bit of carry); a guard bit is
    set at the top of every field.  For a pair (z, x) the expression

        (packed[z] | guards) + grid[z][x] * ones - packed[x]

    holds guard + grid[z][x] + grid[z][y] - grid[x][y] in field y.  Entries
    are at most m, so every field stays in [guard - m, guard + 2m] with no
    carry or borrow between fields, and the guard bit of field y is cleared
    exactly when the triangle through z fails for (x, y).  Scanning z, then
    x, the first pair with a cleared guard only fails for y > x (a failure
    at y < x is the same triangle as one found earlier at the pair (z, y)),
    and its lowest cleared guard is the first y of a (z, x, y > x) scan.
    With one big-int expression per pair the check takes O(n^2) Python steps.
    """
    n = len(grid)
    ones = int(("0" * (w - 1) + "1") * n, 2)
    guards = ones << (w - 1)
    for z in range(n):
        biased = packed[z] | guards
        gz = grid[z]
        for x in range(n):
            kept = (biased + gz[x] * ones - packed[x]) & guards
            if kept != guards:
                cleared = guards ^ kept
                return z, x, ((cleared & -cleared).bit_length() - 1) // w
    return None


class Pseudometric:
    """Symmetric nonnegative distance table with zero diagonal and triangles."""

    __slots__ = ("carrier", "scale", "grid", "_na", "_balls")

    def __init__(self, carrier: Carrier, dist: Sequence[Sequence]):
        n = carrier.n
        if len(dist) != n or any(len(row) != n for row in dist):
            raise ValueError("distance table must be n x n")
        kinds = set(map(type, chain.from_iterable(dist)))
        try:
            if kinds <= {str, int}:
                # one parse per distinct cell: no str equals an int, but True would share 1's
                ratio = {v: _ratio(v) for v in set().union(*dist)}
                scale = math.lcm(*{q for _, q in ratio.values()})
                value = {v: p * (scale // q) for v, (p, q) in ratio.items()}
                grid = [tuple(map(value.__getitem__, row)) for row in dist]
            else:  # straight to the grid, each cell p/q as p * (scale // q)
                cells = list(chain.from_iterable(dist))
                if kinds == {Fraction}:  # p and q read from the slots at C speed
                    num, den = map(_NUM, cells), list(map(_DEN, cells))
                else:  # each cell parsed on its own
                    num, den = zip(*map(_ratio, cells))
                factor = set(den)
                scale = math.lcm(*factor)
                factor = {q: scale // q for q in factor}
                grid = list(zip(*[map(mul, num, map(factor.__getitem__, den))] * n))  # rows of n
        except ValueError:  # parse again, naming each cell, to report the first refused one
            for x, row in enumerate(dist):
                for y, v in enumerate(row):
                    _as_fraction(v, f"field 'dist[{x}][{y}]'")
            raise
        self._store(carrier, grid, scale)

    @classmethod
    def _from_grid(
        cls, carrier: Carrier, grid: Sequence[Sequence[int]], scale: int, na: bool = False
    ) -> "Pseudometric":
        """The table grid[x][y] / scale; `na=True` skips every test, for its builder proves it.

        A level of `chain_pm` is a step of its chain, a max of ultrametrics is one (`sup_pm`),
        and v_p(x - z) >= min(v_p(x - y), v_p(y - z)) (the p-adic table).  Else it is tested.
        """
        d = cls.__new__(cls)
        d._store(carrier, grid, scale, na)
        return d

    def _store(
        self, carrier: Carrier, grid: Sequence[Sequence[int]], scale: int, na: bool = False
    ) -> None:
        values = set().union(*grid)
        # lowest terms: afterwards scale is the lcm of the reduced denominators
        c = math.gcd(scale, *values)
        if c > 1:
            grid = [[g // c for g in row] for row in grid]
            values = {v // c for v in values}
        grid = tuple(map(tuple, grid))
        n = carrier.n
        self._na = na
        if not na:
            diagonal = map(tuple.__getitem__, grid, range(n))
            if min(values) < 0 or any(diagonal) or grid != tuple(zip(*grid)):
                for x in range(n):  # report the first bad cell
                    if grid[x][x] != 0:
                        raise ValueError(f"nonzero self-distance at point {x}")
                    for y in range(x + 1, n):
                        if grid[x][y] != grid[y][x]:
                            raise ValueError(f"asymmetric distances at ({x},{y})")
                        if grid[x][y] < 0:
                            raise ValueError(f"negative distance at ({x},{y})")
            # an ultrametric on n points takes at most n - 1 positive values, and
            # is a pseudometric; any other table is decided by the triangle scan,
            # whose sums of two entries may need fields one bit wider than the test's
            w, packed = _pack(grid, values, int(len(values) > n))
            self._na = len(values) <= n and _is_ultrametric(grid, w, packed)
            if not self._na:
                if (2 * max(values)).bit_length() >= w:
                    w, packed = _pack(grid, values)
                failure = _triangle_failure(grid, w, packed)
                if failure is not None:
                    z, x, y = failure
                    raise ValueError(f"triangle inequality fails at ({x},{y}) via {z}")
        self.carrier = carrier
        self.scale = scale // c
        self.grid = grid

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as `Fraction`s, built from the grid on each access."""
        scale = self.scale
        frac = {g: Fraction(g, scale) for g in set().union(*self.grid)}
        return tuple(tuple(map(frac.__getitem__, row)) for row in self.grid)

    def d(self, x: int, y: int) -> Fraction:
        return Fraction(self.grid[x][y], self.scale)

    def values(self) -> list[Fraction]:
        """Distinct positive distances, ascending."""
        positive = sorted(set().union(*self.grid))[1:]  # every table has a 0 on its diagonal
        return [Fraction(g, self.scale) for g in positive]

    def _texts(self, quote: str = "") -> dict[int, str]:
        """Each distinct grid value as a reduced "p/q" in `quote`s (jsonio.dumps passes '"')."""
        scale = self.scale
        return {g: f"{quote}{g // (c := math.gcd(g, scale))}/{scale // c}{quote}"
                for g in set().union(*self.grid)}

    def to_json(self) -> dict:
        text = self._texts()
        return {"n": self.n, "dist": [list(map(text.__getitem__, row)) for row in self.grid]}

    @classmethod
    def from_json(cls, obj: dict) -> "Pseudometric":
        carrier = Carrier(_expect_n(obj))
        dist = obj.get("dist")
        if not isinstance(dist, list) or not all(isinstance(r, list) for r in dist):
            raise ValueError("field 'dist' must be a list of rows of rationals")
        return cls(carrier, dist)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pseudometric)
            and self.n == other.n
            and self.scale == other.scale
            and self.grid == other.grid
        )

    def __hash__(self) -> int:
        return hash((self.n, self.scale, self.grid))

    def __repr__(self) -> str:
        return f"Pseudometric({self.n})"


def is_na(d: Pseudometric) -> bool:
    """Strong triangle inequality d(x,y) <= max(d(x,z), d(z,y)) on all triples.

    The ultrametric test (`_is_ultrametric`) or the builder's proof decided
    it, and the table keeps the verdict; a table with more than n distinct
    values is no ultrametric.
    """
    return d._na


def sup_pm(ds: Sequence[Pseudometric]) -> Pseudometric:
    """Pointwise maximum of the given pseudo-metrics."""
    if not ds:
        raise ValueError("sup of an empty family")
    carrier = same_carrier(*ds)
    scale = math.lcm(*(d.scale for d in ds))
    grid, *others = [_grid_at(d, scale) for d in ds]
    for other in others:  # one comparison per cell
        grid = [tuple([a if a > b else b for a, b in zip(r, s)]) for r, s in zip(grid, other)]
    return Pseudometric._from_grid(carrier, grid, scale, all(d._na for d in ds))


def _grid_at(d: Pseudometric, scale: int) -> tuple[tuple[int, ...], ...]:
    """d's grid over `scale`, a multiple of d.scale; a grid already there is taken as it is."""
    if d.scale == scale:
        return d.grid
    return tuple(tuple(map((scale // d.scale).__mul__, r)) for r in d.grid)


def _level_balls(grid: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, tuple], ...]:
    """Per point x: the ascending values v of grid[x], and the balls {y | grid[x][y] <= v}.

    One pass over the grid, kept on the table so that its radii share it;
    each ball is a bitmask, and the balls of a point grow.
    """
    balls = []
    for row in grid:
        at = dict.fromkeys(sorted(set(row)), 0)  # value -> the columns holding it
        for y, v in enumerate(row):
            at[v] |= 1 << y
        masks = []
        ball = 0
        for m in at.values():
            ball |= m
            masks.append(ball)
        balls.append((tuple(at), tuple(masks)))
    return tuple(balls)


def ball_relation(d: Pseudometric, eps) -> Relation:
    """The strict ball relation {(x,y) | d(x,y) < eps}.

    Row x is the largest level ball {y | grid[x][y] <= v} of x with v < t,
    the least integer at or above eps * scale; as grid[x][x] = 0 < t, there
    is one, and bisect finds it among the ascending values of x.
    """
    eps = _as_fraction(eps, "ball radius")
    if eps <= 0:
        raise ValueError("ball radius must be positive")
    # d(x,y) < eps  iff  grid[x][y] < eps.num * scale / eps.den  iff  grid[x][y] < t
    t = -(-eps.numerator * d.scale // eps.denominator)
    try:
        balls = d._balls
    except AttributeError:
        balls = d._balls = _level_balls(d.grid)
    return Relation._trusted(
        d.carrier, tuple([masks[bisect_left(values, t) - 1] for values, masks in balls])
    )


class PseudometricSystem(Family):
    """A deduplicated finite family of pseudo-metrics on one carrier, sorted by tables."""

    __slots__ = ()
    metrics = Family.members
    _field, _kind, _member = "metrics", "pseudo-metric", Pseudometric
    _empty = "a system needs at least one pseudo-metric"
    _stray = "pseudo-metric on a different carrier"

    @staticmethod
    def _canonical(metrics: tuple) -> tuple:
        metrics = set(metrics)
        scale = math.lcm(*(m.scale for m in metrics))
        # ordered as by `m.dist`: scaling every grid to one scale keeps the order
        return tuple(sorted(metrics, key=lambda m: _grid_at(m, scale)))

    def principal(self) -> Relation:
        """Z, the pairs at distance 0 in every metric, read straight from the grids.

        A metric's least ball relation is its zero set, so Z is the D_min of the
        basis of every ball relation (`oracle.slow_basis_from_system`); Z is an
        equivalence, so that basis is valid and generates the uniformity of {Z}.
        """
        cells = zip(*(d.grid for d in self.metrics))  # per point x, its row in each grid
        rows = tuple(mask_of(compress(range(self.n), map(not_, map(any, zip(*xs))))) for xs in cells)
        return Relation._trusted(self.carrier, rows)


def thresholds(d: Pseudometric) -> list[Fraction]:
    """Radii realizing every distinct ball relation of d.

    With strict balls, the relation changes exactly when the radius
    crosses a realized distance, so the distinct positive values plus one
    value above the maximum enumerate all of them.
    """
    vals = d.values()
    return vals + [vals[-1] + 1] if vals else [Fraction(1)]


def basis_from_system(m: PseudometricSystem) -> DiagonalBasis:
    """The singleton {Z} of the system's principal relation."""
    return DiagonalBasis(m.carrier, [m.principal()])


class Chain(Family):
    """Descending steps [D1..Dk]: D1 the full relation, then equivalences.

    The chain is eventually constant: D_m = D_k for every m >= k.
    """

    __slots__ = ()
    steps = Family.members
    _field, _kind, _member = "steps", "relation", Relation
    _empty = "a chain needs at least one step"
    _stray = "chain step on a different carrier"

    @staticmethod
    def _canonical(steps: tuple) -> tuple:
        if steps[0] != Relation.full(steps[0].carrier):
            raise ValueError("the first chain step must be the full relation")
        for i, s in enumerate(steps[1:], start=2):
            if not is_equivalence(s):
                raise ValueError(f"chain step {i} is not an equivalence relation")
            if not s.issubset(steps[i - 2]):
                raise ValueError(f"chain step {i} is not contained in step {i - 1}")
        return steps


def chain_pm(kappa: Chain) -> Pseudometric:
    """Distance 0 inside the constant tail, else 1/n for the deepest level n.

    Pairs inside the last step stay together forever, so their distance is
    zero; otherwise the distance is 1/n where n is the largest index whose
    step still contains the pair.  The result always satisfies the strong
    triangle inequality because every step is transitive.
    """
    rows = [s.rows for s in kappa.steps]
    k = len(rows)
    n = kappa.n
    scale = math.lcm(*range(1, k))
    grid = [[0] * n for _ in range(n)]
    for i in range(1, k):  # the pairs in step i but not in step i + 1 are at depth i
        v = scale // i
        for row, inside, deeper in zip(grid, rows[i - 1], rows[i]):
            for y in bits(inside & ~deeper):
                row[y] = v
    return Pseudometric._from_grid(kappa.carrier, grid, scale, na=True)


def system_from_na_basis(b: DiagonalBasis) -> PseudometricSystem:
    """The two-step chain ultrametric of D_min: 0 inside D_min, else 1.

    It induces the same uniformity as the input; an invalid basis raises ValidationError.
    """
    full = Relation.full(b.carrier)
    return PseudometricSystem(b.carrier, [chain_pm(Chain(b.carrier, [full, b.principal()]))])


def descending_chain(es: Sequence[Relation]) -> Chain:
    """Chain of the cumulative intersections of `es` that are equivalences.

    The full relation is prepended when absent; cumulative intersection i
    is the intersection of the first i listed relations, and those that
    are equivalences form the chain, in order.  The last one is D_min,
    which is an equivalence iff `es` is a valid diagonal basis, so the
    chain ends at D_min; on a basis of equivalences every step is kept.
    An invalid basis raises ValidationError, as `DiagonalBasis.principal` does.
    """
    if not es:
        raise ValueError("need at least one relation")
    carrier = same_carrier(*es)
    DiagonalBasis(carrier, es).principal()
    full = Relation.full(carrier)
    listed = list(es)
    if listed[0] != full:
        listed.insert(0, full)
    steps = [full]
    acc = full
    for e in listed[1:]:
        acc = acc & e
        if is_equivalence(acc):
            steps.append(acc)
    return Chain(carrier, steps)


def metrize(es: Sequence[Relation]) -> Pseudometric:
    """Single ultrametric inducing the uniformity generated by `es`.

    Evaluates the chain distance along `descending_chain(es)`, which ends
    at D_min, so the induced uniformity is the principal one at D_min:
    the one generated by the inputs together with the full relation.
    """
    return chain_pm(descending_chain(es))


__all__ = [
    "Pseudometric",
    "PseudometricSystem",
    "Chain",
    "is_na",
    "sup_pm",
    "ball_relation",
    "thresholds",
    "basis_from_system",
    "chain_pm",
    "system_from_na_basis",
    "descending_chain",
    "metrize",
]
