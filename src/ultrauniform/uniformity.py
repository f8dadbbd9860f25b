"""Diagonal and covering uniformity bases on finite carriers.

A DiagonalBasis stores a finite generating family of reflexive relations;
the represented filter consists of every relation that contains a finite
intersection of stored entourages.  All decision procedures therefore
quantify over the intersection closure of the stored list, which is the
actual (downward cofinal) basis.  Dually, a CoverBasis generates a
covering uniformity through common refinements of its covers.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .core import (
    Carrier,
    CarrierMismatch,
    Partition,
    Relation,
    ValidationError,
    bits,
    compose,
    eq_closure,
    inverse,
    mask_of,
    refines,
    same_carrier,
    to_partition,
)


class ValidationReport:
    """Outcome of an axiom check: valid iff the violation list is empty."""

    __slots__ = ("violations",)

    def __init__(self, violations: Iterable[tuple[str, object]] = ()):
        self.violations = tuple(violations)

    @property
    def valid(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"axiom": axiom, "witness": witness}
                for axiom, witness in self.violations
            ],
        }

    def require(self, what: str) -> None:
        if not self.valid:
            raise ValidationError(f"invalid {what}: {self.violations[0][0]}", report=self)

    def __repr__(self) -> str:
        return f"ValidationReport(valid={self.valid}, violations={list(self.violations)})"


class DiagonalBasis:
    """A deduplicated, canonically ordered generating family of entourages."""

    __slots__ = ("carrier", "entourages")

    def __init__(self, carrier: Carrier, entourages: Iterable[Relation]):
        entourages = tuple(entourages)
        if not entourages:
            raise ValueError("a diagonal basis needs at least one entourage")
        for e in entourages:
            if e.carrier != carrier:
                raise CarrierMismatch("entourage on a different carrier")
        unique = sorted(set(entourages), key=lambda r: r.rows)
        self.carrier = carrier
        self.entourages = tuple(unique)

    @property
    def n(self) -> int:
        return self.carrier.n

    def to_json(self) -> dict:
        return {"n": self.n, "entourages": [e.to_json() for e in self.entourages]}

    @classmethod
    def from_json(cls, obj: dict) -> "DiagonalBasis":
        from .core import _expect_int, _expect_members

        carrier = Carrier(_expect_int(obj, "n"))
        rels = _expect_members(obj, "entourages", "relation", Relation.from_json)
        for k, rel in enumerate(rels):
            if rel.carrier != carrier:
                raise ValueError(f"field 'entourages[{k}]' has mismatched 'n'")
        return cls(carrier, rels)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiagonalBasis)
            and self.n == other.n
            and self.entourages == other.entourages
        )

    def __hash__(self) -> int:
        return hash((self.n, self.entourages))

    def __repr__(self) -> str:
        return f"DiagonalBasis({self.n}, {len(self.entourages)} entourages)"


class Cover:
    """A finite family of nonempty sets whose union is the carrier."""

    __slots__ = ("carrier", "sets")

    def __init__(self, carrier: Carrier, sets: Iterable[Iterable[int]]):
        masks = set()
        union = 0
        for s in sets:
            m = s if isinstance(s, int) else mask_of(s)
            if m == 0:
                raise ValueError("covers may not contain the empty set")
            if m & ~carrier.full_mask:
                raise ValueError("cover set mentions points outside the carrier")
            union |= m
            masks.add(m)
        if union != carrier.full_mask:
            raise ValueError("sets do not cover the carrier")
        self.carrier = carrier
        self.sets = tuple(sorted(masks, key=lambda m: tuple(bits(m))))

    @classmethod
    def from_partition(cls, p: Partition) -> "Cover":
        return cls(p.carrier, p.masks)

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def masks(self) -> tuple[int, ...]:
        return self.sets

    @property
    def is_partition(self) -> bool:
        seen = 0
        for m in self.sets:
            if m & seen:
                return False
            seen |= m
        return True

    def to_partition(self) -> Partition:
        if not self.is_partition:
            raise ValidationError("cover sets overlap; not a partition")
        return Partition(self.carrier, (tuple(bits(m)) for m in self.sets))

    def sets_as_lists(self) -> list[list[int]]:
        return [list(bits(m)) for m in self.sets]

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.n == other.n and self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.n, self.sets))

    def __repr__(self) -> str:
        return f"Cover({self.n}, {self.sets_as_lists()})"


class CoverBasis:
    """A deduplicated family of covers generating a covering uniformity."""

    __slots__ = ("carrier", "covers")

    def __init__(self, carrier: Carrier, covers: Iterable[Cover]):
        covers = tuple(covers)
        if not covers:
            raise ValueError("a cover basis needs at least one cover")
        for c in covers:
            if c.carrier != carrier:
                raise CarrierMismatch("cover on a different carrier")
        unique = sorted(set(covers), key=lambda c: c.sets)
        self.carrier = carrier
        self.covers = tuple(unique)

    @property
    def n(self) -> int:
        return self.carrier.n

    def to_json(self) -> dict:
        return {"n": self.n, "covers": [c.sets_as_lists() for c in self.covers]}

    @classmethod
    def from_json(cls, obj: dict) -> "CoverBasis":
        from .core import _expect_int, _expect_point_lists

        n = _expect_int(obj, "n")
        carrier = Carrier(n)
        raw = obj.get("covers")
        if not isinstance(raw, list) or not raw:
            raise ValueError("field 'covers' must be a nonempty list of covers")
        covers = [
            Cover(carrier, _expect_point_lists(item, n, f"covers[{k}]")) for k, item in enumerate(raw)
        ]
        return cls(carrier, covers)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoverBasis)
            and self.n == other.n
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.n, self.covers))

    def __repr__(self) -> str:
        return f"CoverBasis({self.n}, {len(self.covers)} covers)"


def intersection_closure(relations: Iterable[Relation]) -> tuple[Relation, ...]:
    """Close a family of relations under pairwise intersection."""
    closure = set(relations)
    frontier = list(closure)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(closure):
                c = a & b
                if c not in closure:
                    closure.add(c)
                    fresh.append(c)
        frontier = fresh
    return tuple(sorted(closure, key=lambda r: r.rows))


def validate_diagonal(b: DiagonalBasis) -> ValidationReport:
    """Check the diagonal uniformity basis axioms over the intersection closure.

    Every stored entourage must contain the diagonal; for each member D of
    the closure some member E must satisfy inverse(E) <= D and some member
    E must satisfy E o E <= D.  Directedness holds by construction of the
    closure and is not reported.
    """
    violations = []
    for d in b.entourages:
        if not d.is_reflexive():
            violations.append(("reflexivity", d.to_json()))
    if violations:
        return ValidationReport(violations)
    closure = intersection_closure(b.entourages)
    inverses = [inverse(e) for e in closure]
    squares = [compose(e, e) for e in closure]
    for d in closure:
        if not any(inv.issubset(d) for inv in inverses):
            violations.append(("symmetry", d.to_json()))
        if not any(sq.issubset(d) for sq in squares):
            violations.append(("composition", d.to_json()))
    return ValidationReport(violations)


def minimum_entourage(b: DiagonalBasis) -> Relation:
    """Intersection of all stored entourages (the filter minimum when valid)."""
    acc = b.entourages[0]
    for e in b.entourages[1:]:
        acc = acc & e
    return acc


def normalize(b: DiagonalBasis) -> DiagonalBasis:
    """Canonical singleton basis {D_min}; requires a valid basis."""
    validate_diagonal(b).require("diagonal basis")
    return DiagonalBasis(b.carrier, [minimum_entourage(b)])


def uniformity_equal(b1: DiagonalBasis, b2: DiagonalBasis) -> bool:
    """True iff both bases generate the same uniformity."""
    if b1.carrier != b2.carrier:
        raise CarrierMismatch("bases on different carriers")
    return normalize(b1) == normalize(b2)


def is_non_archimedean(b: DiagonalBasis) -> tuple[bool, Optional[DiagonalBasis]]:
    """Decide whether the generated uniformity has an equivalence-relation basis.

    For each member D of the intersection closure we search for a member
    D0 with eq_closure(D0) <= D; eq_closure(D0) is the least equivalence
    relation containing D0, so no other equivalence relation above D0 can
    succeed where it fails.  On success the chosen equivalence relations
    form a witness basis generating the same uniformity.
    """
    validate_diagonal(b).require("diagonal basis")
    closure = intersection_closure(b.entourages)
    candidates = [eq_closure(e) for e in closure]
    witness = []
    for d in closure:
        found = None
        for cand in candidates:
            if cand.issubset(d):
                found = cand
                break
        if found is None:
            return False, None
        witness.append(found)
    return True, DiagonalBasis(b.carrier, witness)


def cover_from_relation(d: Relation) -> Cover:
    """The cover of neighborhood slices {D[x] | x in carrier}."""
    return Cover(d.carrier, set(d.rows))


def relation_from_cover(u: Cover) -> Relation:
    """Pairs lying together in some set of the cover."""
    rows = [0] * u.n
    for m in u.sets:
        for x in bits(m):
            rows[x] |= m
    return Relation(u.carrier, rows)


def cover_basis_from_diagonal(b: DiagonalBasis) -> CoverBasis:
    """Neighborhood covers of every member of the intersection closure."""
    validate_diagonal(b).require("diagonal basis")
    covers = {cover_from_relation(d) for d in intersection_closure(b.entourages)}
    return CoverBasis(b.carrier, covers)


def diagonal_from_cover_basis(cb: CoverBasis) -> DiagonalBasis:
    """Co-residence relations of the covers plus their finest refinement.

    The finest common refinement is included so that the produced filter
    matches the generated covering uniformity even when the stored covers
    are not closed under common refinement.
    """
    validate_cover(cb).require("cover basis")
    rels = {relation_from_cover(u) for u in cb.covers}
    rels.add(relation_from_cover(finest_common_refinement(cb)))
    return DiagonalBasis(cb.carrier, rels)


def star(a, u: Cover) -> set[int]:
    """Union of the sets of u meeting a (a may be a mask or an iterable)."""
    m = a if isinstance(a, int) else mask_of(a)
    return set(bits(_star_mask(m, u.sets)))


def _star_mask(m: int, sets: tuple[int, ...]) -> int:
    acc = 0
    for s in sets:
        if s & m:
            acc |= s
    return acc


def _meet_families(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = set()
    for x in a:
        for y in b:
            z = x & y
            if z:
                out.add(z)
    return tuple(sorted(out))


def finest_common_refinement(cb: CoverBasis) -> Cover:
    """Limit of repeated common refinements of all covers in the basis.

    Every member of the generated covering uniformity is refined by this
    cover, which makes it a universal witness for refinement and
    star-refinement searches (both are monotone under refinement).
    """
    fam: tuple[int, ...] = cb.covers[0].sets
    for c in cb.covers[1:]:
        fam = _meet_families(fam, c.sets)
    while True:
        nxt = _meet_families(fam, fam)
        if nxt == fam:
            break
        fam = nxt
    return Cover(cb.carrier, fam)


def star_refines(fine: Cover, coarse: Cover) -> bool:
    """True iff the stars of `fine` around its own sets refine `coarse`."""
    same_carrier(fine, coarse)
    for f in fine.sets:
        st = _star_mask(f, fine.sets)
        if not any(st & ~c == 0 for c in coarse.sets):
            return False
    return True


def validate_cover(cb: CoverBasis) -> ValidationReport:
    """Check the covering uniformity basis axiom.

    Each stored cover must be star-refined by some cover the basis
    generates; by monotonicity it suffices to test the finest common
    refinement.
    """
    fin = finest_common_refinement(cb)
    violations = []
    for u in cb.covers:
        if not star_refines(fin, u):
            violations.append(("star_refinement", u.sets_as_lists()))
    return ValidationReport(violations)


def covering_member(cb: CoverBasis, u: Cover) -> bool:
    """True iff u belongs to the covering uniformity generated by cb."""
    same_carrier(cb, u)
    return refines(finest_common_refinement(cb), u)


def covering_uniformity_equal(cb1: CoverBasis, cb2: CoverBasis) -> bool:
    """Mutual refinement of the generated covering uniformities."""
    if cb1.carrier != cb2.carrier:
        raise CarrierMismatch("cover bases on different carriers")
    validate_cover(cb1).require("cover basis")
    validate_cover(cb2).require("cover basis")
    fin1 = finest_common_refinement(cb1)
    fin2 = finest_common_refinement(cb2)
    return all(refines(fin1, u) for u in cb2.covers) and all(
        refines(fin2, u) for u in cb1.covers
    )


def has_partition_basis(cb: CoverBasis) -> tuple[bool, Optional[CoverBasis]]:
    """Decide whether the generated covering uniformity has a partition basis.

    A partition belongs to the uniformity iff its relation contains the
    co-residence relation of the finest common refinement, so the finest
    candidate partition comes from that relation's equivalence closure.
    Per-cover witnesses prefer partitions induced by stored covers.
    """
    validate_cover(cb).require("cover basis")
    fin = finest_common_refinement(cb)
    finest_partition = Cover.from_partition(to_partition(eq_closure(relation_from_cover(fin))))
    member_partitions = [
        Cover.from_partition(to_partition(eq_closure(relation_from_cover(v))))
        for v in cb.covers
    ]
    witness = []
    for u in cb.covers:
        chosen = None
        for p in member_partitions:
            if refines(p, u):
                chosen = p
                break
        if chosen is None and refines(finest_partition, u):
            chosen = finest_partition
        if chosen is None:
            return False, None
        witness.append(chosen)
    return True, CoverBasis(cb.carrier, witness)


def diagonal_roundtrip(b: DiagonalBasis) -> bool:
    """Diagonal -> covering -> diagonal lands on the same uniformity."""
    return uniformity_equal(diagonal_from_cover_basis(cover_basis_from_diagonal(b)), b)


def cover_roundtrip(cb: CoverBasis) -> bool:
    """Covering -> diagonal -> covering lands on the same covering uniformity."""
    return covering_uniformity_equal(
        cover_basis_from_diagonal(diagonal_from_cover_basis(cb)), cb
    )
