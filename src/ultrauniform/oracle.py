"""Brute-force enumerators, independent checkers, and law sweeps.

Everything here is deliberately slow and direct: exhaustive enumeration
of small structures, fixpoint closures, and per-triple checks that the
main modules are tested against.  Random generators are deterministic
given their `random.Random`.

The law sweeps are one table, `SWEEPS`: each theorem id maps to a row
holding the largest n it enumerates exhaustively, its exhaustive instance
source, its seeded draws (none for T3.2, which is exhaustive only) and a
check returning (holds, problem).  `theorem_sweep` runs any row with one
loop, after refusing input over the row's caps.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    Carrier,
    Relation,
    bits,
    compose,
    inverse,
    is_equivalence,
)
from .pseudometric import (
    Pseudometric,
    PseudometricSystem,
    chain_pm,
    descending_chain,
    is_na,
    system_from_na_basis,
    thresholds,
)
from .topology import (
    FiniteTopology,
    is_uniformizable_na,
    is_zero_dimensional,
    satisfies_TA,
)
from .uniformity import (
    Cover,
    CoverBasis,
    DiagonalBasis,
    ValidationReport,
    cover_basis_from_diagonal,
    cover_from_relation,
    has_partition_basis,
    is_non_archimedean,
    refines,
    relation_from_cover,
    roundtrip,
    uniformity_equal,
    validate_cover,
    validate_diagonal,
)

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 100

# Caps of the sweeps, so that the slowest sweep inside them runs in about 2 s.
MAX_TOPOLOGY_POINTS = 4
MAX_SAMPLED_POINTS = 8
MAX_TRIALS = 1000


class SweepReport(NamedTuple):
    theorem: str
    n: int
    checked: int
    satisfying: int
    discrepancies: int
    first_counterexample: Optional[object]
    seed: Optional[int]

    def to_json(self) -> dict:
        return self._asdict()


def bell_number(n: int) -> int:
    """Number of partitions of an n-set, by the Bell triangle recurrence."""
    if n < 1:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _labelled(carrier: Carrier, labels: Sequence[int]) -> Relation:
    """The equivalence relating the points with equal labels."""
    classes: dict[int, int] = {}
    for x, b in enumerate(labels):
        classes[b] = classes.get(b, 0) | 1 << x
    return Relation(carrier, map(classes.__getitem__, labels))


def _classes(e: Relation) -> list[int]:
    """The classes of an equivalence, ordered by their least points."""
    return list(dict.fromkeys(e.rows))


def enumerate_equivalences(n: int) -> Iterator[Relation]:
    """Every equivalence on {0..n-1} (every partition) via restricted growth strings."""
    carrier = Carrier(n)

    def grow(prefix: list[int], used: int) -> Iterator[list[int]]:
        if len(prefix) == n:
            yield prefix
            return
        for b in range(used + 1):
            yield from grow(prefix + [b], max(used, b + 1))

    for labels in grow([0], 1):
        yield _labelled(carrier, labels)


def enumerate_relations(n: int) -> Iterator[Relation]:
    """Every binary relation on n points; 2**(n*n) of them."""
    carrier = Carrier(n)
    row_mask = carrier.full_mask
    for code in range(1 << (n * n)):
        yield Relation(carrier, ((code >> (n * i)) & row_mask for i in range(n)))


def enumerate_topologies(n: int) -> Iterator[FiniteTopology]:
    """Families containing the empty set and carrier, closed under union and meet.

    Direct filter over all families of proper nonempty subsets; only
    sensible for n <= 4.
    """
    if n > MAX_TOPOLOGY_POINTS:
        raise ValueError(f"exhaustive topology enumeration capped at n={MAX_TOPOLOGY_POINTS}")
    carrier = Carrier(n)
    full = carrier.full_mask
    proper = [m for m in range(1, full)]
    for code in range(1 << len(proper)):
        chosen = [proper[i] for i in bits(code)]
        family = set(chosen)
        family.add(0)
        family.add(full)
        ok = True
        members = sorted(family)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if (a | b) not in family or (a & b) not in family:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield FiniteTopology(carrier, family)


def _partial_orders(k: int) -> Iterator[list[int]]:
    """Every partial order on 0..k-1, as rows: row i is the mask of the j >= i.

    An order on k points restricts to one on the first k-1 and is fixed by
    the down-set D below and the up-set U above the new point, where U lies
    above every member of D and misses D; so each order arises once.
    """
    if k == 0:
        yield []
        return
    new = 1 << (k - 1)
    for up in _partial_orders(k - 1):
        up_sets = [u for u in range(new) if all(up[i] & ~u == 0 for i in bits(u))]
        for u_below in up_sets:
            below = (new - 1) & ~u_below  # a down-set: the complement of an up-set
            above_all = new - 1
            for i in bits(below):
                above_all &= up[i]
            for above in up_sets:
                if above & ~above_all == 0 and above & below == 0:
                    rows = [row | new if below >> i & 1 else row for i, row in enumerate(up)]
                    rows.append(new | above)
                    yield rows


def enumerate_preorder_topologies(n: int) -> Iterator[FiniteTopology]:
    """Every topology on n points once, built from its specialization preorder.

    A finite topology is the family of up-sets of a preorder (Alexandroff
    1937), and a preorder is a partition into its classes plus a partial
    order on the blocks; the opens are the unions of the blocks of each
    up-set of that order.  This yields the topologies that
    `enumerate_topologies` filters out of all families, without the filter.
    """
    carrier = Carrier(n)
    up_set_families: dict[int, list[list[int]]] = {}  # per block count, per order
    for e in enumerate_equivalences(n):
        blocks = _classes(e)
        k = len(blocks)
        if k not in up_set_families:
            up_set_families[k] = [
                [s for s in range(1 << k) if all(up[i] & ~s == 0 for i in bits(s))]
                for up in _partial_orders(k)
            ]
        unions = [0] * (1 << k)  # unions[s]: the points of the blocks in s
        for s in range(1, 1 << k):
            low = s & -s
            unions[s] = unions[s ^ low] | blocks[low.bit_length() - 1]
        for up_sets in up_set_families[k]:
            yield FiniteTopology(carrier, [unions[s] for s in up_sets])


def enumerate_equivalence_bases(n: int, max_generators: int = 3) -> Iterator[DiagonalBasis]:
    """Every basis of at most max_generators distinct equivalence relations."""
    carrier = Carrier(n)
    eqs = list(enumerate_equivalences(n))
    for size in range(1, max_generators + 1):
        for combo in combinations(eqs, size):
            yield DiagonalBasis(carrier, combo)


def enumerate_uniformities(n: int) -> Iterator[DiagonalBasis]:
    """One canonical singleton basis per uniformity on n points."""
    carrier = Carrier(n)
    for e in enumerate_equivalences(n):
        yield DiagonalBasis(carrier, [e])


def enumerate_covers(n: int) -> Iterator[Cover]:
    """Every family of distinct nonempty sets whose union is the carrier."""
    carrier = Carrier(n)
    full = carrier.full_mask
    nonempty = list(range(1, full + 1))
    for size in range(1, len(nonempty) + 1):
        for combo in combinations(nonempty, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                yield Cover(carrier, combo)


def enumerate_valid_cover_bases(n: int, max_covers: int = 2) -> Iterator[CoverBasis]:
    """Valid cover bases of at most max_covers covers (exhaustive for n <= 3)."""
    if n > 3:
        raise ValueError("exhaustive cover basis enumeration capped at n=3")
    carrier = Carrier(n)
    covers = list(enumerate_covers(n))
    for size in range(1, max_covers + 1):
        for combo in combinations(covers, size):
            cb = CoverBasis(carrier, combo)
            if validate_cover(cb).valid:
                yield cb


# ---------------------------------------------------------------------------
# random structure generators


def random_equivalence(rng: random.Random, n: int) -> Relation:
    """The equivalence of a random labelling of the points with at most k labels, k in 1..n."""
    k = rng.randint(1, n)
    return _labelled(Carrier(n), [rng.randrange(k) for _ in range(n)])


def random_equivalence_basis(rng: random.Random, n: int, max_generators: int = 3) -> DiagonalBasis:
    carrier = Carrier(n)
    k = rng.randint(1, max_generators)
    return DiagonalBasis(carrier, (random_equivalence(rng, n) for _ in range(k)))


def random_valid_basis(rng: random.Random, n: int) -> DiagonalBasis:
    """A valid basis mixing equivalences with reflexive supersets of them.

    The intersection of the equivalence members stays in the closure and
    witnesses every axiom, so validity holds by construction.
    """
    carrier = Carrier(n)
    eqs = [random_equivalence(rng, n) for _ in range(rng.randint(1, 3))]
    members = list(eqs)
    base = eqs[0]
    for e in eqs[1:]:
        base = base & e
    for _ in range(rng.randint(0, 2)):
        rows = list(base.rows)
        for _ in range(rng.randint(1, n)):
            x = rng.randrange(n)
            y = rng.randrange(n)
            rows[x] |= 1 << y
        members.append(Relation(carrier, rows))
    return DiagonalBasis(carrier, members)


def random_cover_basis(rng: random.Random, n: int) -> CoverBasis:
    """A valid cover basis: partitions plus covers they refine."""
    carrier = Carrier(n)
    parts = [random_equivalence(rng, n) for _ in range(rng.randint(1, 2))]
    covers = [cover_from_relation(e) for e in parts]
    for e in parts:
        if rng.random() < 0.7:
            masks = _classes(e)
            sets = []
            covered = 0
            for m in masks:
                group = m
                for other in masks:
                    if other != m and rng.random() < 0.4:
                        group |= other
                sets.append(group)
                covered |= group
            if covered == carrier.full_mask:
                covers.append(Cover(carrier, sets))
    return CoverBasis(carrier, covers)


_HEIGHT_POOL = [Fraction(1, k) for k in range(9, 0, -1)] + [Fraction(3, 2), Fraction(2)]


def random_ultrametric(rng: random.Random, n: int) -> Pseudometric:
    """Random dendrogram distance: merge clusters at nondecreasing heights.

    Early merges may happen at height zero, which produces honest
    pseudo-metrics with distinct points at distance zero.
    """
    carrier = Carrier(n)
    start = rng.randint(0, max(0, len(_HEIGHT_POOL) - n))
    zero_merges = rng.randint(0, n // 2)
    dist = [[Fraction(0)] * n for _ in range(n)]
    clusters = [[x] for x in range(n)]
    level = start
    merges = 0
    while len(clusters) > 1:
        i, j = rng.sample(range(len(clusters)), 2)
        if merges < zero_merges:
            h = Fraction(0)
        else:
            h = _HEIGHT_POOL[min(level, len(_HEIGHT_POOL) - 1)]
            if rng.random() < 0.5:
                level += 1
        merges += 1
        for x in clusters[i]:
            for y in clusters[j]:
                dist[x][y] = h
                dist[y][x] = h
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return Pseudometric(carrier, dist)


# ---------------------------------------------------------------------------
# independent slow checkers


def slow_eq_closure(r: Relation) -> Relation:
    """Least fixpoint of adding reflexive, symmetric, transitive consequences."""
    n = r.n
    pairs = set(r.pairs())
    pairs.update((x, x) for x in range(n))
    while True:
        extra = set()
        for (x, y) in pairs:
            if (y, x) not in pairs:
                extra.add((y, x))
        for (x, y) in pairs:
            for (y2, z) in pairs:
                if y == y2 and (x, z) not in pairs:
                    extra.add((x, z))
        if not extra:
            break
        pairs |= extra
    return Relation.from_pairs(r.carrier, pairs)


def eq_closure(r: Relation) -> Relation:
    """Least equivalence containing r: {x} | R[x] merges every class it meets, in one pass."""
    classes: list[int] = []
    for x, row in enumerate(r.rows):
        merged = row | 1 << x
        rest = []
        for c in classes:
            if c & merged:
                merged |= c
            else:
                rest.append(c)
        classes = rest + [merged]
    rows = [0] * r.n
    for c in classes:
        for x in bits(c):
            rows[x] = c
    return Relation._trusted(r.carrier, tuple(rows))


def slow_ball_relation(d: Pseudometric, eps: Fraction) -> Relation:
    """The strict ball relation {(x,y) | d(x,y) < eps}, one comparison per cell."""
    # d(x,y) < eps  iff  grid[x][y] * eps.den < eps.num * scale
    bound = eps.numerator * d.scale
    den = eps.denominator
    rows = []
    for x in range(d.n):
        gx = d.grid[x]
        row = 0
        for y in range(d.n):
            if gx[y] * den < bound:
                row |= 1 << y
        rows.append(row)
    return Relation(d.carrier, rows)


def slow_basis_from_system(m: PseudometricSystem) -> DiagonalBasis:
    """Diagonal basis of every distinct ball relation of every metric of the system."""
    balls = {slow_ball_relation(d, eps) for d in m.metrics for eps in thresholds(d)}
    return DiagonalBasis(m.carrier, balls)


def check_strong_triangle(dist: Sequence[Sequence[Fraction]]) -> bool:
    """Direct per-triple check of d(x,y) <= max(d(x,z), d(z,y))."""
    n = len(dist)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if dist[x][y] > max(dist[x][z], dist[z][y]):
                    return False
    return True


def check_pseudometric(dist: Sequence[Sequence[Fraction]]) -> bool:
    """Direct check of symmetry, zero diagonal, and the triangle inequality."""
    n = len(dist)
    for x in range(n):
        if dist[x][x] != 0:
            return False
        for y in range(n):
            if dist[x][y] < 0 or dist[x][y] != dist[y][x]:
                return False
            for z in range(n):
                if dist[x][y] > dist[x][z] + dist[z][y]:
                    return False
    return True


def is_uniformity_filter(minimum: Relation) -> bool:
    """Check the uniformity axioms directly on the principal filter of `minimum`.

    Every relation above `minimum` must be reflexive and admit filter
    members witnessing the symmetry and composition axioms; decided by
    scanning all supersets on a small carrier.
    """
    n = minimum.n
    if n > 3:
        raise ValueError("direct filter check capped at n=3")
    free = [(x, y) for x in range(n) for y in range(n) if not minimum.has(x, y)]
    members = []
    for code in range(1 << len(free)):
        extra = [free[i] for i in bits(code)]
        rows = list(minimum.rows)
        for (x, y) in extra:
            rows[x] |= 1 << y
        members.append(Relation(minimum.carrier, rows))
    for d in members:
        if not d.is_reflexive():
            return False
        if not any(inverse(e).issubset(d) for e in members):
            return False
        if not any(compose(e, e).issubset(d) for e in members):
            return False
    return True


def slow_intersection_closure(relations: Iterable[Relation]) -> tuple[Relation, ...]:
    """Pairwise intersections added to a fixpoint, sorted by rows."""
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


def slow_validate_diagonal(b: DiagonalBasis) -> ValidationReport:
    """The diagonal basis axioms, each member of the closure against every member.

    A member D fails symmetry if no member E has inverse(E) <= D, and
    composition if no member E has E o E <= D; a basis with a non-reflexive
    entourage reports only those.
    """
    violations = []
    for d in b.entourages:
        if not d.is_reflexive():
            violations.append(("reflexivity", d.to_json()))
    if violations:
        return ValidationReport(violations)
    closure = slow_intersection_closure(b.entourages)
    inverses = [inverse(e) for e in closure]
    squares = [compose(e, e) for e in closure]
    for d in closure:
        if not any(inv.issubset(d) for inv in inverses):
            violations.append(("symmetry", d.to_json()))
        if not any(sq.issubset(d) for sq in squares):
            violations.append(("composition", d.to_json()))
    return ValidationReport(violations)


def search_na_witness(b: DiagonalBasis) -> tuple[bool, Optional[DiagonalBasis]]:
    """Per-member reference for `is_non_archimedean`; raises on an invalid basis.

    Each closure member D takes the first eq_closure(D0), D0 in the
    closure, that lies inside D; the chosen relations form the witness.
    """
    slow_validate_diagonal(b).require("diagonal basis")
    closure = slow_intersection_closure(b.entourages)
    candidates = [eq_closure(e) for e in closure]
    witness = []
    for d in closure:
        found = next((cand for cand in candidates if cand.issubset(d)), None)
        if found is None:
            return False, None
        witness.append(found)
    return True, DiagonalBasis(b.carrier, witness)


def slow_finest_refinement(cb: CoverBasis) -> Cover:
    """The meet of the covers, closed under pairwise intersection to a fixpoint."""
    fam = set(cb.covers[0].sets)
    for c in cb.covers[1:]:
        fam = {x & y for x in fam for y in c.sets if x & y}
    while True:
        closed = {x & y for x in fam for y in fam if x & y}
        if closed == fam:
            return Cover(cb.carrier, fam)
        fam = closed


def star_refines(fine: Cover, coarse: Cover) -> bool:
    """True iff each set's star in `fine` (the union of the sets it meets) lies in a set of `coarse`."""
    stars = (reduce(or_, (s for s in fine.sets if s & f)) for f in fine.sets)
    return all(any(star & ~c == 0 for c in coarse.sets) for star in stars)


def slow_validate_cover(cb: CoverBasis) -> ValidationReport:
    """The star-refinement axiom, checked against `slow_finest_refinement`."""
    fin = slow_finest_refinement(cb)
    return ValidationReport(
        ("star_refinement", u.sets_as_lists()) for u in cb.covers if not star_refines(fin, u)
    )


def search_partition_basis(cb: CoverBasis) -> tuple[bool, Optional[CoverBasis]]:
    """Per-cover reference for `has_partition_basis`; raises on an invalid basis.

    Each cover takes the first class partition (of a co-residence closure)
    that refines it, over the stored covers and then the finest refinement.
    """
    slow_validate_cover(cb).require("cover basis")

    def classes(u: Cover) -> Cover:
        return cover_from_relation(eq_closure(relation_from_cover(u)))

    candidates = [classes(v) for v in cb.covers] + [classes(slow_finest_refinement(cb))]
    witness = []
    for u in cb.covers:
        chosen = next((p for p in candidates if refines(p, u)), None)
        if chosen is None:
            return False, None
        witness.append(chosen)
    return True, CoverBasis(cb.carrier, witness)


# ---------------------------------------------------------------------------
# law sweeps


def _check_representations(b: DiagonalBasis) -> tuple[bool, Optional[str]]:
    _, witness = is_non_archimedean(b)
    if not all(map(is_equivalence, witness.entourages)) or not uniformity_equal(witness, b):
        return False, "witness is not an equivalence basis of the uniformity"
    if not uniformity_equal(slow_basis_from_system(system_from_na_basis(b)), b):
        return False, "induced system does not reproduce the uniformity"
    cb = cover_basis_from_diagonal(b)
    _, parts = has_partition_basis(cb)
    if not all(c.is_partition for c in parts.covers) or not uniformity_equal(parts, cb):
        return False, "witness is not a partition basis of the covering uniformity"
    return True, None


def _check_metrization(b: DiagonalBasis) -> tuple[bool, Optional[str]]:
    chain = descending_chain(b.entourages)
    d = chain_pm(chain)
    if not is_na(d):
        return False, "metrization is not an ultrametric"
    if not uniformity_equal(slow_basis_from_system(PseudometricSystem(b.carrier, [d])), b):
        return False, "metrization induces a different uniformity"
    steps = chain.steps
    half = Fraction(1, 2)
    for x in range(b.n):
        for y in range(b.n):
            v = d.d(x, y)
            if len(steps) >= 2 and v < half and not steps[1].has(x, y):
                return False, "small distance escapes the second chain step"
            for m in range(1, len(steps)):
                if v < Fraction(1, m) and not steps[m].has(x, y):
                    return False, "distance bound escapes its chain step"
    return True, None


def _check_separation(t: FiniteTopology) -> tuple[bool, Optional[str]]:
    ta, _ = satisfies_TA(t)
    zd = is_zero_dimensional(t)
    un, _ = is_uniformizable_na(t)
    if not (ta == zd == un):
        return ta, f"verdicts differ: separation={ta} zero_dim={zd} uniformizable={un}"
    return ta, None


def _check_roundtrip(s: object) -> tuple[bool, Optional[str]]:
    holds = roundtrip(s)
    side = "diagonal" if isinstance(s, DiagonalBasis) else "covering"
    return holds, None if holds else f"{side} round trip moved the uniformity"


def _roundtrip_instances(n: int) -> Iterator[object]:
    """Every uniformity once as a diagonal basis, and covering bases from the cover side.

    Up to n = 3 the cover side is every valid basis of at most two covers;
    above, where those are too many, it is each uniformity's partition cover.
    """
    yield from enumerate_uniformities(n)
    if n <= 3:
        yield from enumerate_valid_cover_bases(n)
    else:
        carrier = Carrier(n)
        for e in enumerate_equivalences(n):
            yield CoverBasis(carrier, [cover_from_relation(e)])


def _metrization_instances(n: int) -> Iterator[DiagonalBasis]:
    """Every valid basis of at most two reflexive relations; above n = 3, of equivalences."""
    if n > 3:  # too many reflexive pairs: every basis of at most three equivalences
        return enumerate_equivalence_bases(n)
    reflexive = [r for r in enumerate_relations(n) if r.is_reflexive()]
    bases = (DiagonalBasis(Carrier(n), c) for k in (1, 2) for c in combinations(reflexive, k))
    return (b for b in bases if validate_diagonal(b).valid)


class Sweep(NamedTuple):
    """A law sweep's alias, exhaustive cap, instance sources and check (module docstring)."""

    alias: str
    max_n: int  # the largest n enumerated exhaustively
    what: str  # what `exhaustive` enumerates, named when n is over the cap
    exhaustive: Callable[[int], Iterable[object]]
    draws: tuple[Callable[[random.Random, int], object], ...]  # each drawn `trials` times
    check: Callable[[object], tuple[bool, Optional[str]]]


_EQUIV_BASES = (4, "equivalence basis", enumerate_equivalence_bases, (random_equivalence_basis,))

SWEEPS = {
    # the equivalence-relation, partition-cover, and ultrametric views agree
    "T2.4": Sweep("representations", *_EQUIV_BASES, _check_representations),
    # clopen separation, zero-dimensionality, and uniformizability agree
    "T3.2": Sweep(
        "separation", MAX_TOPOLOGY_POINTS, "topology", enumerate_preorder_topologies, (),
        _check_separation,
    ),
    # a single ultrametric recovers the uniformity of any valid basis
    "T4.1": Sweep(
        "metrization", 4, "equivalence basis", _metrization_instances, (random_valid_basis,),
        _check_metrization,
    ),
    # diagonal/covering conversions invert each other
    "R2.1-roundtrip": Sweep(
        "roundtrip", 8, "uniformity", _roundtrip_instances,
        (random_valid_basis, random_cover_basis), _check_roundtrip,
    ),
}
SWEEP_ALIASES = {sweep.alias: theorem for theorem, sweep in SWEEPS.items()}

_EXAMPLE_KEY = {DiagonalBasis: "basis", CoverBasis: "cover_basis", FiniteTopology: "topology"}


def theorem_sweep(
    theorem_id: str, n: int, trials: Optional[int] = None, seed: Optional[int] = None
) -> SweepReport:
    """Run one law sweep of `SWEEPS` on n points, exhaustively or seeded.

    The run is seeded iff `seed` is given, with `DEFAULT_TRIALS` draws per
    draw function unless `trials` says otherwise.  Input over a cap of the
    sweep raises ValueError naming the cap, before any instance is built.
    """
    canonical = SWEEP_ALIASES.get(theorem_id, theorem_id)
    sweep = SWEEPS.get(canonical)
    if sweep is None:
        known = sorted(SWEEPS) + sorted(SWEEP_ALIASES)
        raise ValueError(f"unknown sweep {theorem_id!r}; expected one of {known}")
    if seed is None:
        if trials is not None:
            raise ValueError("trials apply only to a seeded sweep")
        if n > sweep.max_n:
            raise ValueError(f"exhaustive {sweep.what} enumeration capped at n={sweep.max_n}")
        instances = sweep.exhaustive(n)
    else:
        if not sweep.draws:
            raise ValueError(f"the {canonical} sweep is exhaustive only: no trials or seed")
        if n > MAX_SAMPLED_POINTS:
            raise ValueError(f"sampled enumeration capped at n={MAX_SAMPLED_POINTS}")
        trials = DEFAULT_TRIALS if trials is None else trials
        if not 1 <= trials <= MAX_TRIALS:
            raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
        rng = random.Random(seed)
        instances = (draw(rng, n) for draw in sweep.draws for _ in range(trials))

    checked = satisfying = discrepancies = 0
    first: Optional[dict] = None
    for instance in instances:
        checked += 1
        holds, problem = sweep.check(instance)
        if problem is not None:
            discrepancies += 1
            if first is None:
                first = {_EXAMPLE_KEY[type(instance)]: instance.to_json(), "problem": problem}
        elif holds:
            satisfying += 1
    return SweepReport(canonical, n, checked, satisfying, discrepancies, first, seed)
