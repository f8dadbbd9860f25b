"""Finite carriers and bit-matrix relations; a partition is read as its equivalence.

Points of an n-point carrier are the indices 0..n-1, so subsets of the
carrier fit in int bitmasks and a relation fits in one mask per row.
All values are immutable after construction.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_
from typing import Iterable, Iterator


class CarrierMismatch(ValueError):
    """Two structures that must live on the same carrier do not."""


class ValidationError(ValueError):
    """A structural precondition failed; carries a report when one exists.

    `report` may be given as a zero-argument callable, which builds the
    report when it is first read, so a caller that only catches the error
    does not pay for it.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self._report = report

    @property
    def report(self):
        if callable(self._report):
            self._report = self._report()
        return self._report


def mask_of(points: Iterable[int]) -> int:
    """Pack point indices into a bitmask."""
    m = 0
    for x in points:
        m |= 1 << x
    return m


@lru_cache(maxsize=64)
def _units(n: int) -> tuple[int, ...]:
    """The rows of the identity on n points: 1 << x for each point x."""
    return tuple(1 << x for x in range(n))


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Carrier:
    """An n-point set whose points are the indices 0..n-1."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError("carrier needs a positive number of points")
        self.n = n

    @property
    def points(self) -> range:
        return range(self.n)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Carrier) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("Carrier", self.n))

    def __repr__(self) -> str:
        return f"Carrier({self.n})"


def same_carrier(first, *rest) -> Carrier:
    """Return the shared carrier of the given structures or raise."""
    carrier = first.carrier
    for other in rest:
        if other.carrier != carrier:
            raise CarrierMismatch(
                f"carriers differ: {carrier!r} vs {other.carrier!r}"
            )
    return carrier


class Relation:
    """Binary relation on a carrier, one successor bitmask per point."""

    __slots__ = ("carrier", "rows")

    def __init__(self, carrier: Carrier, rows: Iterable[int]):
        rows = tuple(rows)
        if len(rows) != carrier.n:
            raise ValueError("need exactly one row per point")
        full = carrier.full_mask
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i} mentions points outside the carrier")
        self.carrier = carrier
        self.rows = rows

    @classmethod
    def _trusted(cls, carrier: Carrier, rows: tuple[int, ...]) -> "Relation":
        """A relation on a tuple of rows known to lie in the carrier, unchecked.

        For rows derived from checked rows (intersections, unions, level
        balls of a table), which cannot mention points outside the carrier.
        """
        r = object.__new__(cls)
        r.carrier = carrier
        r.rows = rows
        return r

    @classmethod
    def from_pairs(cls, carrier: Carrier, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * carrier.n
        for x, y in pairs:
            if not (0 <= x < carrier.n and 0 <= y < carrier.n):
                raise ValueError(f"pair ({x},{y}) outside carrier of size {carrier.n}")
            rows[x] |= 1 << y
        return cls(carrier, rows)

    @classmethod
    def from_blocks(cls, carrier: Carrier, blocks: Iterable[Iterable[int]]) -> "Relation":
        """The equivalence whose classes are the blocks, which must partition the carrier."""
        rows = [0] * carrier.n
        seen = 0
        for block in blocks:
            m = mask_of(block)
            if m == 0:
                raise ValueError("empty block")
            if m & ~carrier.full_mask:
                raise ValueError("block mentions points outside the carrier")
            if m & seen:
                raise ValueError("blocks overlap")
            seen |= m
            for x in bits(m):
                rows[x] = m
        if seen != carrier.full_mask:
            raise ValueError("blocks do not cover the carrier")
        return cls._trusted(carrier, tuple(rows))

    @classmethod
    def identity(cls, carrier: Carrier) -> "Relation":
        return cls(carrier, (1 << x for x in carrier.points))

    @classmethod
    def full(cls, carrier: Carrier) -> "Relation":
        return cls(carrier, (carrier.full_mask,) * carrier.n)

    @classmethod
    def empty(cls, carrier: Carrier) -> "Relation":
        return cls(carrier, (0,) * carrier.n)

    @property
    def n(self) -> int:
        return self.carrier.n

    def has(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Yield the member pairs in lexicographic order."""
        for x, row in enumerate(self.rows):
            for y in bits(row):
                yield (x, y)

    def __and__(self, other: "Relation") -> "Relation":
        carrier = same_carrier(self, other)
        return Relation._trusted(carrier, tuple(map(and_, self.rows, other.rows)))

    def issubset(self, other: "Relation") -> bool:
        same_carrier(self, other)
        return tuple(map(and_, self.rows, other.rows)) == self.rows

    def is_reflexive(self) -> bool:
        return all(map(and_, self.rows, _units(self.carrier.n)))

    def is_symmetric(self) -> bool:  # each y in R[x] has x in R[y], read off the rows
        return all(self.rows[y] >> x & 1 for x, row in enumerate(self.rows) for y in bits(row))

    def is_transitive(self) -> bool:
        return compose(self, self).issubset(self)

    def to_json(self) -> dict:
        return _relation_json(self.n, self.rows, {})

    @classmethod
    def from_json(cls, obj: dict) -> "Relation":
        """Read `pairs`, or the `blocks` of an equivalence when there are no pairs."""
        n = _expect_n(obj)
        carrier = Carrier(n)
        if "pairs" not in obj and "blocks" in obj:
            return cls.from_blocks(carrier, _expect_point_lists(obj["blocks"], n, "blocks"))
        pairs = obj.get("pairs")
        if not isinstance(pairs, list):
            raise ValueError("field 'pairs' must be a list of [i, j] pairs")
        checked = []
        for k, p in enumerate(pairs):
            if not (isinstance(p, list) and len(p) == 2):
                raise ValueError(f"field 'pairs[{k}]' must be a two-element list")
            checked.append(
                (_expect_point(p[0], n, f"pairs[{k}][0]"), _expect_point(p[1], n, f"pairs[{k}][1]"))
            )
        return cls.from_pairs(carrier, checked)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Relation)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Relation({self.n}, {sorted(self.pairs())})"


def _relation_json(n: int, rows: tuple[int, ...], cols: dict[int, tuple[int, ...]]) -> dict:
    """A relation's JSON; `cols` (row mask -> columns) is filled as needed and may be shared."""
    cols.update({row: tuple(bits(row)) for row in set(rows).difference(cols)})
    return {"n": n, "pairs": [[x, y] for x, row in enumerate(rows) for y in cols[row]]}


def compose(r: Relation, s: Relation) -> Relation:
    """Relational composition: (x,y) iff some z has (x,z) in r and (z,y) in s."""
    carrier = same_carrier(r, s)
    srows = s.rows
    out = []
    for row in r.rows:
        acc = 0
        m = row
        while m:
            low = m & -m
            acc |= srows[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return Relation(carrier, out)


def inverse(r: Relation) -> Relation:
    """Swap the two coordinates (matrix transpose)."""
    rows = [0] * r.n
    for x, row in enumerate(r.rows):
        bit = 1 << x
        for y in bits(row):
            rows[y] |= bit
    return Relation(r.carrier, rows)


def is_equivalence(r: Relation) -> bool:
    """Reflexive, and the sizes of the distinct rows add up to n: C-level passes.

    Reflexive rows cover the carrier, so the sizes add up to n iff the
    distinct rows partition it; then y in R[x] and y in R[y] give
    R[y] = R[x], so R is symmetric and transitive.
    """
    return r.is_reflexive() and sum(map(int.bit_count, set(r.rows))) == len(r.rows)


N_CAP = 2000  # the largest "n" a JSON structure may declare, at least gen's --size cap


def _expect_n(obj: dict) -> int:
    """The integer obj["n"], refused over N_CAP before anything is built."""
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("field 'n' must be an integer")
    if n > N_CAP:
        raise ValueError(f"field 'n' {n} is over its cap of {N_CAP}")
    return n


def _expect_point(value, n: int, field: str) -> int:
    """A point index read from JSON: an int (not a bool) in 0..n-1."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < n:
        raise ValueError(f"field '{field}' must be a point index in 0..{n - 1}, got {value!r}")
    return value


def _expect_point_lists(value, n: int, field: str) -> list[list[int]]:
    """A JSON list of lists of point indices, each checked by `_expect_point`."""
    if not isinstance(value, list) or not all(isinstance(s, list) for s in value):
        raise ValueError(f"field '{field}' must be a list of lists of points")
    return [
        [_expect_point(x, n, f"{field}[{i}][{j}]") for j, x in enumerate(s)]
        for i, s in enumerate(value)
    ]


def _expect_members(obj: dict, field: str, kind: str, decode, carrier: Carrier) -> list:
    """Decode each item k of the nonempty JSON list obj[field] as decode(item, carrier, "field[k]").

    Every item is decoded before any member's carrier is compared with
    `carrier`; the first member on another is refused as `field[k]`.
    """
    raw = obj.get(field)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"field '{field}' must be a nonempty list of {kind}s")
    members = [decode(item, carrier, f"{field}[{k}]") for k, item in enumerate(raw)]
    for k, member in enumerate(members):
        if member.carrier != carrier:
            raise ValueError(f"field '{field}[{k}]' has mismatched 'n'")
    return members


def _within(path: str, build, *args):
    """build(*args), with an error inside it reported after the prefix "path: "."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class Family:
    """A nonempty family of members on one carrier, stored in canonical order.

    A subclass declares its JSON field (`_field`) and a member's noun in
    JSON errors (`_kind`), its refusals of an empty family and of a member
    on another carrier (`_empty`, `_stray`), how a member is read from
    JSON (`_member.from_json`, or its own `_decode`) and its stored order
    (`_canonical`, which takes the checked members and may refuse them).
    Families are equal iff their types, carriers and stored members are.
    """

    __slots__ = ("carrier", "members")

    def __init__(self, carrier: Carrier, members: Iterable):
        members = tuple(members)
        if not members:
            raise ValueError(self._empty)
        for m in members:
            if m.carrier != carrier:
                raise CarrierMismatch(self._stray)
        self.carrier = carrier
        self.members = self._canonical(members)

    @classmethod
    def _decode(cls, item, carrier: Carrier, path: str):
        """One member read from its JSON object at `path`, which prefixes an error inside it."""
        if not isinstance(item, dict):
            raise ValueError(f"field '{path}' must be a {cls._kind} object")
        return _within(path, cls._member.from_json, item)

    @property
    def n(self) -> int:
        return self.carrier.n

    def to_json(self) -> dict:
        return {"n": self.n, self._field: [m.to_json() for m in self.members]}

    @classmethod
    def from_json(cls, obj: dict):
        carrier = Carrier(_expect_n(obj))
        return cls(carrier, _expect_members(obj, cls._field, cls._kind, cls._decode, carrier))

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.n}, {len(self.members)} {self._field})"
