"""Finite topological spaces, clopen separation, and induced uniformities."""

from __future__ import annotations

from typing import Iterable, Optional

from .core import (
    Carrier,
    Relation,
    ValidationError,
    _expect_n,
    _expect_point_lists,
    bits,
    is_equivalence,
    mask_of,
)
from .uniformity import DiagonalBasis, ValidationReport


class FiniteTopology:
    """A family of open sets stored as explicit bitmasks."""

    __slots__ = ("carrier", "opens")

    def __init__(self, carrier: Carrier, opens: Iterable):
        masks = set()
        for o in opens:
            m = o if isinstance(o, int) else mask_of(o)
            if m & ~carrier.full_mask:
                raise ValueError("open set mentions points outside the carrier")
            masks.add(m)
        self.carrier = carrier
        self.opens = frozenset(masks)

    @property
    def n(self) -> int:
        return self.carrier.n

    def closed_sets(self) -> list[int]:
        full = self.carrier.full_mask
        return sorted((full & ~o for o in self.opens), key=lambda m: (m.bit_count(), m))

    def opens_sorted(self) -> list[int]:
        return sorted(self.opens, key=lambda m: (m.bit_count(), tuple(bits(m))))

    def to_json(self) -> dict:
        return {"n": self.n, "opens": [list(bits(m)) for m in self.opens_sorted()]}

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteTopology":
        n = _expect_n(obj)
        return cls(Carrier(n), _expect_point_lists(obj.get("opens"), n, "opens"))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteTopology)
            and self.n == other.n
            and self.opens == other.opens
        )

    def __hash__(self) -> int:
        return hash((self.n, self.opens))

    def __repr__(self) -> str:
        return f"FiniteTopology({self.n}, {len(self.opens)} opens)"


def validate_topology(t: FiniteTopology) -> ValidationReport:
    """Membership of the empty set and carrier, closure under union and meet."""
    violations = []
    if 0 not in t.opens:
        violations.append(("contains_empty", []))
    if t.carrier.full_mask not in t.opens:
        violations.append(("contains_carrier", list(t.carrier.points)))
    opens = sorted(t.opens)
    for i, a in enumerate(opens):
        for b in opens[i + 1 :]:
            if a | b not in t.opens:
                violations.append(
                    ("union", [list(bits(a)), list(bits(b))])
                )
            if a & b not in t.opens:
                violations.append(
                    ("intersection", [list(bits(a)), list(bits(b))])
                )
    return ValidationReport(violations)


def _require_valid(t: FiniteTopology) -> None:
    validate_topology(t).require("topology")


def clopen_sets(t: FiniteTopology) -> list[int]:
    """Open sets with open complement, sorted by size then elements."""
    _require_valid(t)
    full = t.carrier.full_mask
    return sorted(
        (o for o in t.opens if (full & ~o) in t.opens),
        key=lambda m: (m.bit_count(), tuple(bits(m))),
    )


def is_zero_dimensional(t: FiniteTopology) -> bool:
    """Every open set is a union of clopen sets, that is, every open set is clopen
    (a finite union of clopen sets is clopen)."""
    _require_valid(t)
    return len(clopen_sets(t)) == len(t.opens)


def satisfies_TA(t: FiniteTopology) -> tuple[bool, Optional[tuple[tuple[int, ...], int]]]:
    """Clopen separation of every closed set from every outside point.

    A disjoint open pair covering the carrier consists of a clopen set and
    its complement, so it suffices to search for a clopen set containing
    the point and missing the closed set.  Returns the first failing
    (closed set, point) pair as a counterexample.
    """
    _require_valid(t)
    clopens = clopen_sets(t)
    for a in t.closed_sets():
        outside = t.carrier.full_mask & ~a
        for x in bits(outside):
            if not any(c >> x & 1 and c & a == 0 for c in clopens):
                return False, (tuple(bits(a)), x)
    return True, None


def quasi_components(t: FiniteTopology) -> Relation:
    """Q, the AND over the clopen sets of their agreement relations.

    Row x is the AND, over the clopen sets c, of c when x is in c and of
    its complement otherwise.  Each agreement relation is an equivalence,
    so Q is one too; its classes are the quasi-components of t.
    """
    _require_valid(t)
    full = t.carrier.full_mask
    rows = [full] * t.n
    for c in clopen_sets(t):
        for x in range(t.n):
            rows[x] &= c if c >> x & 1 else full & ~c
    return Relation._trusted(t.carrier, tuple(rows))


def partition_topology(e: Relation) -> FiniteTopology:
    """Opens are exactly the unions of the classes of the equivalence e."""
    if not is_equivalence(e):
        raise ValidationError("relation is not an equivalence relation")
    classes = set(e.rows)
    if len(classes) > 16:
        raise ValueError("too many blocks to materialize the open family")
    opens = [0]
    for c in classes:
        opens += [o | c for o in opens]
    return FiniteTopology(e.carrier, opens)


def induced_topology(b: DiagonalBasis) -> FiniteTopology:
    """Sets O with some entourage slice D[x] inside O around each x in O.

    On a finite carrier the intersection closure has a minimum entourage,
    so this is the partition topology of its equivalence classes.
    """
    return partition_topology(b.principal())


def is_uniformizable_na(
    t: FiniteTopology,
) -> tuple[bool, Optional[DiagonalBasis]]:
    """Try to recover t as the induced topology of an equivalence-relation basis.

    The candidate basis is {Q}, Q the partition into quasi-components, which
    generates the uniformity of all continuous maps into the discrete
    two-point space; the topology is uniformizable this way iff that
    canonical candidate induces it exactly.
    """
    _require_valid(t)
    basis = DiagonalBasis(t.carrier, [quasi_components(t)])
    if induced_topology(basis) == t:
        return True, basis
    return False, None


def discrete_topology(n: int) -> FiniteTopology:
    carrier = Carrier(n)
    return FiniteTopology(carrier, range(1 << n))


def indiscrete_topology(n: int) -> FiniteTopology:
    carrier = Carrier(n)
    return FiniteTopology(carrier, [0, carrier.full_mask])


def sierpinski_topology() -> FiniteTopology:
    """Two points with exactly one nontrivial open set {1}."""
    return FiniteTopology(Carrier(2), [0, 0b10, 0b11])


def chain_topology(n: int) -> FiniteTopology:
    """Nested opens: the empty set and all prefixes {0}, {0,1}, ..."""
    carrier = Carrier(n)
    return FiniteTopology(carrier, [(1 << k) - 1 for k in range(n + 1)])
