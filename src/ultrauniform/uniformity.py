"""Diagonal and covering uniformity bases on finite carriers.

A DiagonalBasis stores a finite generating family of reflexive relations;
the represented filter is generated by D_min, the intersection of the
stored entourages, and the basis is valid exactly when D_min is an
equivalence relation.  Every decision and conversion is made on D_min
alone, in O(k*n) word operations for k entourages on n points: the
intersection closure is never built for a valid basis.  Only the report
of an invalid basis walks the closure, to name every failing member; a
refusal raised by a decision builds that report when it is first read.
Dually, a CoverBasis generates a covering uniformity through common
refinements of its covers, whose meet F refines every member.  Its
decisions run on R_F, the AND of the covers' co-residence relations, which
is F's co-residence and, for a valid basis, an equivalence; only the
report of a basis whose R_F is not transitive builds F.  D_min, R_F and
a pseudo-metric system's zero set are each structure's `principal()`, and
structures are equal iff these are.  The per-member searches these
replace are kept in `oracle` as references.
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, or_
from typing import Iterable

from .core import (
    Carrier,
    Family,
    Relation,
    ValidationError,
    _expect_point_lists,
    _relation_json,
    _within,
    bits,
    compose,
    inverse,
    is_equivalence,
    mask_of,
    same_carrier,
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
            raise _refusal(what, self.violations[0][0], self)

    def __repr__(self) -> str:
        return f"ValidationReport(valid={self.valid}, violations={list(self.violations)})"


def _refusal(what: str, axiom: str, report) -> ValidationError:
    """The error for an invalid structure; `report` may be a callable building it."""
    return ValidationError(f"invalid {what}: {axiom}", report=report)


class DiagonalBasis(Family):
    """A deduplicated generating family of entourages, sorted by rows."""

    __slots__ = ()
    entourages = Family.members  # the slot, read under the paper's name
    _field, _kind, _member = "entourages", "relation", Relation
    _empty = "a diagonal basis needs at least one entourage"
    _stray = "entourage on a different carrier"

    @staticmethod
    def _canonical(entourages: tuple) -> tuple:
        return tuple(sorted(set(entourages), key=lambda r: r.rows))

    def principal(self) -> Relation:
        """D_min, which generates the uniformity, decided valid in O(k*n) word operations.

        An invalid basis raises ValidationError naming the first axiom D_min fails, the
        basis's first (D_min is the closure's first member, reflexive iff every stored
        entourage is); its `report`, the full `validate_diagonal`, is built when read.
        """
        d_min = minimum_entourage(self)
        if not is_equivalence(d_min):
            axiom = ("reflexivity" if not d_min.is_reflexive()
                     else "composition" if d_min.is_symmetric() else "symmetry")
            raise _refusal("diagonal basis", axiom, lambda: validate_diagonal(self))
        return d_min


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

    @property
    def n(self) -> int:
        return self.carrier.n

    @property
    def is_partition(self) -> bool:
        seen = 0
        for m in self.sets:
            if m & seen:
                return False
            seen |= m
        return True

    def sets_as_lists(self) -> list[list[int]]:
        return [list(bits(m)) for m in self.sets]

    to_json = sets_as_lists

    def __eq__(self, other) -> bool:
        return isinstance(other, Cover) and self.n == other.n and self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.n, self.sets))

    def __repr__(self) -> str:
        return f"Cover({self.n}, {self.sets_as_lists()})"


def refines(fine: Cover, coarse: Cover) -> bool:
    """True iff every set of `fine` lies inside some set of `coarse`."""
    same_carrier(fine, coarse)
    return all(any(f & ~c == 0 for c in coarse.sets) for f in fine.sets)


class CoverBasis(Family):
    """A deduplicated family of covers generating a covering uniformity, sorted by sets."""

    __slots__ = ()
    covers = Family.members
    _field, _kind = "covers", "cover"
    _empty = "a cover basis needs at least one cover"
    _stray = "cover on a different carrier"

    @staticmethod
    def _canonical(covers: tuple) -> tuple:
        return tuple(sorted(set(covers), key=lambda c: c.sets))

    @staticmethod
    def _decode(item, carrier: Carrier, path: str) -> Cover:
        """One cover read from its JSON list of point lists at `path`."""
        return _within(path, Cover, carrier, _expect_point_lists(item, carrier.n, path))

    def principal(self) -> Relation:
        """R_F; an invalid basis raises ValidationError with its `validate_cover` report."""
        r_f, report = _cover_verdict(self)
        report.require("cover basis")
        return r_f


def _closure(relations: Iterable[Relation], flags: Iterable[int]) -> dict[tuple[int, ...], int]:
    """The intersection closure as row tuples, each with the OR of its generators' flags.

    The closure of g_1..g_i is that of g_1..g_(i-1), each member intersected
    with g_i, and g_i itself, in C-level passes.  Two routes to one member
    give it the same flags when each flag marks a property that an
    intersection lacks iff some generator in it lacks it.
    """
    closure: dict[tuple[int, ...], int] = {}
    for g, f in zip(relations, flags):
        rows = g.rows
        closure.update(list(zip(  # listed first: the dict may not grow while it is read
            map(tuple, map(map, repeat(and_), closure, repeat(rows))),
            map(or_, closure.values(), repeat(f)),
        )))
        closure[rows] = f
    return closure


def validate_diagonal(b: DiagonalBasis) -> ValidationReport:
    """Check the diagonal uniformity basis axioms over the intersection closure.

    Every stored entourage must contain the diagonal; for each member D of
    the closure some member E must satisfy inverse(E) <= D and some member
    E must satisfy E o E <= D.  Directedness holds by construction of the
    closure and is not reported.

    D_min, the intersection of the stored entourages, is the first member
    of the closure (it lies inside every member, so its rows are the
    smallest) and the best E for every D at once:
    - D_min <= E for each member E, and inverse and E o E are monotone, so
      inverse(D_min) <= inverse(E) and D_min o D_min <= E o E;
    - so some E serves D iff D_min does, and D_min is itself a member.
    So the basis is valid iff D_min is an equivalence, decided on its
    distinct rows.  Only an invalid basis builds the closure.  A member
    contains inverse(D_min) (or D_min o D_min) iff each of its generators
    does, so each member gets its generators' failing axioms as the
    closure is built, and its witness is rendered once, from per-row column
    lists.  The report is that of `oracle.slow_validate_diagonal`.
    """
    d_min = minimum_entourage(b)
    if is_equivalence(d_min):
        return ValidationReport()
    if not d_min.is_reflexive():
        return ValidationReport(
            ("reflexivity", d.to_json()) for d in b.entourages if not d.is_reflexive()
        )
    inv = inverse(d_min).rows
    square = compose(d_min, d_min).rows
    flags = [  # bit 1: fails symmetry, bit 2: fails composition
        (tuple(map(and_, inv, g.rows)) != inv) | (tuple(map(and_, square, g.rows)) != square) << 1
        for g in b.entourages
    ]
    closure = _closure(b.entourages, flags)
    violations = []
    cols: dict[int, tuple[int, ...]] = {}  # row mask -> its columns, shared by the witnesses
    for rows in sorted(rows for rows, f in closure.items() if f):
        witness = _relation_json(b.n, rows, cols)
        if closure[rows] & 1:
            violations.append(("symmetry", witness))
        if closure[rows] & 2:
            violations.append(("composition", witness))
    return ValidationReport(violations)


def minimum_entourage(b: DiagonalBasis) -> Relation:
    """Intersection of all stored entourages (the filter minimum when valid)."""
    rows = b.entourages[0].rows
    for e in b.entourages[1:]:
        rows = tuple(map(and_, rows, e.rows))
    return Relation._trusted(b.carrier, rows)


def normalize(b: DiagonalBasis) -> DiagonalBasis:
    """Canonical singleton basis {D_min}; an invalid basis raises as `principal` does."""
    return DiagonalBasis(b.carrier, [b.principal()])


def uniformity_equal(s1, s2) -> bool:
    """True iff two structures on one carrier generate one uniformity: equal `principal()`s."""
    same_carrier(s1, s2)
    return s1.principal() == s2.principal()


def is_non_archimedean(b: DiagonalBasis) -> tuple[bool, DiagonalBasis]:
    """Decide whether the generated uniformity has an equivalence-relation basis.

    Every valid basis has one: its filter is generated by D_min, which is
    then an equivalence relation, so the witness is {D_min}.  An invalid
    basis raises ValidationError.
    """
    return True, normalize(b)


def cover_from_relation(d: Relation) -> Cover:
    """The cover of neighborhood slices {D[x] | x in carrier}."""
    return Cover(d.carrier, set(d.rows))


def relation_from_cover(u: Cover) -> Relation:
    """Pairs lying together in some set of the cover."""
    rows = [0] * u.n
    for m in u.sets:
        for x in bits(m):
            rows[x] |= m
    return Relation._trusted(u.carrier, tuple(rows))


def cover_basis_from_diagonal(b: DiagonalBasis) -> CoverBasis:
    """The one partition cover of D_min's classes; requires a valid basis."""
    return CoverBasis(b.carrier, [cover_from_relation(b.principal())])


def diagonal_from_cover_basis(cb: CoverBasis) -> DiagonalBasis:
    """The singleton {R_F}; requires a valid basis, for which R_F is an equivalence."""
    return DiagonalBasis(cb.carrier, [cb.principal()])


MEET_CAP = 1 << 18  # the most sets a step of an invalid cover basis's meet F may build (README)


def _cover_verdict(cb: CoverBasis) -> tuple[Relation, ValidationReport]:
    """R_F, the AND of the covers' co-residence relations, and the basis's report.

    Points lie together in a set of F, the meet of the covers, iff they lie
    together in a set of every cover, so R_F is F's co-residence and the
    star of a set f of F is the OR of R_F[x] over x in f, each distinct
    row taken once.  A step of F that could pass MEET_CAP sets raises
    ValueError before it is built.
    """
    rows = relation_from_cover(cb.covers[0]).rows
    for c in cb.covers[1:]:
        rows = tuple(map(and_, rows, relation_from_cover(c).rows))
    r_f = Relation._trusted(cb.carrier, rows)
    if is_equivalence(r_f):
        stars = set(rows)  # each set of F lies in a class, and each class is a set of F
    else:  # build F, the nonempty intersections of one set from each cover
        meet = set(cb.covers[0].sets)
        for c in cb.covers[1:]:
            if len(meet) * len(c.sets) > MEET_CAP:
                raise ValueError(f"the meet of the covers is over its cap of {MEET_CAP} sets")
            meet = {x & y for x in meet for y in c.sets} - {0}
        owners = {}  # each distinct row of R_F -> the points that have it
        for x, r in enumerate(rows):
            owners[r] = owners.get(r, 0) | 1 << x
        stars = set()
        for f in meet:  # one step per distinct row met, dropping all the points that have it
            star = 0
            while f:
                r = rows[(f & -f).bit_length() - 1]
                star, f = star | r, f & ~owners[r]
            stars.add(star)
    return r_f, ValidationReport(
        ("star_refinement", u.sets_as_lists())
        for u in cb.covers if not all(any(st & ~s == 0 for s in u.sets) for st in stars)
    )


def validate_cover(cb: CoverBasis) -> ValidationReport:
    """Check the covering uniformity basis axiom, decided on R_F.

    Each stored cover must be star-refined by some cover the basis
    generates; by monotonicity it suffices to test F.  When R_F is an
    equivalence the star of each set of F is its class, so a cover fails
    exactly when some class lies inside none of its sets, and F is never
    built; only when R_F is not transitive is F built, to name the failing
    covers.  The report is that of `oracle.slow_validate_cover`.
    """
    return _cover_verdict(cb)[1]


def covering_member(cb: CoverBasis, u: Cover) -> bool:
    """True iff u belongs to the covering uniformity of a valid cb: R_F's classes refine u."""
    same_carrier(cb, u)
    return refines(cover_from_relation(cb.principal()), u)


def has_partition_basis(cb: CoverBasis) -> tuple[bool, CoverBasis]:
    """Decide whether the generated covering uniformity has a partition basis.

    Every valid basis has one: R_F is then an equivalence, and the one
    partition cover of its classes generates the same covering uniformity.
    An invalid basis raises ValidationError.
    """
    return True, CoverBasis(cb.carrier, [cover_from_relation(cb.principal())])


def roundtrip(s: DiagonalBasis | CoverBasis) -> bool:
    """Converting a basis to the other form and back lands on the same uniformity."""
    if isinstance(s, DiagonalBasis):
        return uniformity_equal(diagonal_from_cover_basis(cover_basis_from_diagonal(s)), s)
    return uniformity_equal(cover_basis_from_diagonal(diagonal_from_cover_basis(s)), s)
