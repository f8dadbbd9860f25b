"""Diagonal/covering bases: validation, equality, conversions, NA decision."""

import random
import time
from functools import reduce
from itertools import combinations, repeat
from operator import or_

import pytest

from ultrauniform.core import (
    Carrier,
    CarrierMismatch,
    Relation,
    ValidationError,
    compose,
    inverse,
    is_equivalence,
)
from ultrauniform.jsonio import dumps
from ultrauniform.oracle import (
    enumerate_covers,
    enumerate_equivalence_bases,
    enumerate_equivalences,
    enumerate_relations,
    enumerate_uniformities,
    enumerate_valid_cover_bases,
    eq_closure,
    random_cover_basis,
    random_equivalence,
    random_equivalence_basis,
    random_valid_basis,
    search_na_witness,
    search_partition_basis,
    slow_finest_refinement,
    slow_intersection_closure,
    slow_validate_cover,
    slow_validate_diagonal,
    star_refines,
)
from ultrauniform.pseudometric import basis_from_system, system_from_na_basis
from ultrauniform.uniformity import (
    Cover,
    CoverBasis,
    DiagonalBasis,
    cover_basis_from_diagonal,
    cover_from_relation,
    covering_member,
    diagonal_from_cover_basis,
    has_partition_basis,
    is_non_archimedean,
    minimum_entourage,
    normalize,
    refines,
    relation_from_cover,
    roundtrip,
    uniformity_equal,
    validate_cover,
    validate_diagonal,
)
from ultrauniform.uniformity import _closure

C3 = Carrier(3)
FULL3 = Relation.full(C3)
ID3 = Relation.identity(C3)
E01 = eq_closure(Relation.from_pairs(C3, [(0, 1)]))

# the one reflexive symmetric non-transitive relation used throughout
PSEUDO = Relation.from_pairs(
    C3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
)


def union(r, s):
    """The pairs of r or s, on r's carrier."""
    return Relation(r.carrier, map(or_, r.rows, s.rows))


def all_reflexive_n3():
    return [r for r in enumerate_relations(3) if r.is_reflexive()]


def two_block_basis(rng, n, k):
    """k random equivalences on n points with exactly two classes each."""
    carrier = Carrier(n)
    full = carrier.full_mask
    members = []
    for _ in range(k):
        a = 0
        while a in (0, full):
            a = rng.getrandbits(n)
        members.append(Relation(carrier, [a if a >> x & 1 else full & ~a for x in range(n)]))
    return DiagonalBasis(carrier, members)


def widened_two_block_basis(rng, n, k):
    """An invalid basis drawn as the `closure` benchmark draws one.

    k two-block equivalences; each member after the first is, with
    probability 1/2, widened by pairs outside the first; and one pair
    outside the meet of the equivalences is added to every member, so that
    D_min is not symmetric.
    """
    eqs = two_block_basis(rng, n, k)
    first, meet = eqs.entourages[0], minimum_entourage(eqs)
    x, y = rng.choice([(x, y) for x in range(n) for y in range(n) if not meet.has(x, y)])
    members = []
    for i, e in enumerate(eqs.entourages):
        rows = list(e.rows)
        if i and rng.random() < 0.5:
            for _ in range(rng.randint(1, n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if not first.has(u, v):
                    rows[u] |= 1 << v
        rows[x] |= 1 << y
        members.append(Relation(eqs.carrier, rows))
    return DiagonalBasis(eqs.carrier, members)


class TestMinimumEntourage:
    def test_equals_intersection_of_relations(self):
        rng = random.Random(6417)
        for _ in range(300):
            n = rng.choice([1, 2, 3, 5, 8, 16, 33, 64])
            carrier = Carrier(n)
            b = DiagonalBasis(carrier, [
                Relation(carrier, [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(n)])
                for _ in range(rng.randint(1, 8))
            ])
            d_min = minimum_entourage(b)
            assert d_min == reduce(Relation.__and__, b.entourages)
            assert d_min.carrier == carrier and type(d_min.rows) is tuple


class TestValidateDiagonal:
    def test_indiscrete(self):
        assert validate_diagonal(DiagonalBasis(C3, [FULL3])).valid

    def test_discrete(self):
        assert validate_diagonal(DiagonalBasis(C3, [ID3])).valid

    def test_pseudo_basis_fails_half_axiom(self):
        report = validate_diagonal(DiagonalBasis(C3, [PSEUDO]))
        assert not report.valid
        axioms = [axiom for axiom, _ in report.violations]
        assert axioms == ["composition"]
        assert report.violations[0][1] == PSEUDO.to_json()

    def test_pseudo_basis_has_no_witness_anywhere_in_its_filter(self):
        # supersets of PSEUDO are its whole filter; none composes into it
        free = [(x, y) for x in range(3) for y in range(3) if not PSEUDO.has(x, y)]
        for k in range(len(free) + 1):
            for extra in combinations(free, k):
                e = union(PSEUDO, Relation.from_pairs(C3, extra))
                assert not compose(e, e).issubset(PSEUDO)

    def test_non_reflexive_reported(self):
        report = validate_diagonal(DiagonalBasis(C3, [Relation.from_pairs(C3, [(0, 1)])]))
        assert not report.valid
        assert report.violations[0][0] == "reflexivity"

    def test_validity_equals_minimum_being_equivalence(self):
        # second route to the same verdict, for every 1- and 2-member basis
        reflexive = all_reflexive_n3()
        bases = [DiagonalBasis(C3, [r]) for r in reflexive]
        bases += [DiagonalBasis(C3, pair) for pair in combinations(reflexive, 2)]
        for b in bases:
            expected = is_equivalence(minimum_entourage(b))
            assert validate_diagonal(b).valid == expected

    def test_two_block_n16_k14_within_budget(self):
        b = two_block_basis(random.Random(1016), 16, 14)
        started = time.perf_counter()
        report = validate_diagonal(b)
        elapsed = time.perf_counter() - started
        assert report.valid
        assert elapsed < 1.0, f"validate_diagonal took {elapsed:.2f}s at n=16, k=14"

    def test_invalid_n16_k14_report_within_budget(self):
        b = widened_two_block_basis(random.Random(1416), 16, 14)
        started = time.perf_counter()
        report = validate_diagonal(b)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.5, f"validate_diagonal took {elapsed:.2f}s to report at n=16, k=14"
        d_min = minimum_entourage(b)
        needed = {"symmetry": inverse(d_min), "composition": compose(d_min, d_min)}
        # the axioms named are those D_min fails, and each witness is a member failing its axiom
        assert {axiom for axiom, _ in report.violations} == {
            axiom for axiom, need in needed.items() if not need.issubset(d_min)
        }
        # the fast closure builder: the pairwise one takes about 24 s on this basis
        closure = [Relation(b.carrier, rows) for rows in sorted(_closure(b.entourages, repeat(0)))]
        assert len(report.violations) > 1000
        assert report.violations == tuple(
            (axiom, d.to_json())
            for d in closure for axiom, need in needed.items() if not need.issubset(d)
        )

    def test_two_block_n64_k40_decided_within_budget(self):
        b = two_block_basis(random.Random(1064), 64, 40)
        for decide in (validate_diagonal, is_non_archimedean):
            started = time.perf_counter()
            decide(b)
            elapsed = time.perf_counter() - started
            assert elapsed < 0.05, f"{decide.__name__} took {elapsed:.3f}s at n=64, k=40"
        assert validate_diagonal(b).valid

    def test_two_block_n64_k40_refused_without_closure(self):
        # one pair outside D_min added to every member leaves D_min asymmetric;
        # the closure of the 40 members is far too large to build, so the
        # refusal must come from D_min alone and its report must stay unread
        b = two_block_basis(random.Random(1064), 64, 40)
        d_min = minimum_entourage(b)
        x, y = next((x, y) for x in range(64) for y in range(64) if not d_min.has(x, y))
        extra = Relation.from_pairs(b.carrier, [(x, y)])
        bad = DiagonalBasis(b.carrier, [union(e, extra) for e in b.entourages])
        started = time.perf_counter()
        with pytest.raises(ValidationError, match="^invalid diagonal basis: symmetry$"):
            normalize(bad)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05, f"normalize took {elapsed:.3f}s to refuse at n=64, k=40"


class TestIntersectionClosure:
    """The pairwise reference closure, `oracle.slow_intersection_closure`."""

    def test_empty_family(self):
        assert slow_intersection_closure([]) == ()

    def test_one_shot_generator(self):
        e2 = eq_closure(Relation.from_pairs(C3, [(1, 2)]))
        assert slow_intersection_closure(r for r in (E01, e2, FULL3)) == slow_intersection_closure(
            [E01, e2, FULL3]
        )
        assert slow_intersection_closure(iter([PSEUDO])) == (PSEUDO,)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            slow_intersection_closure([ID3, Relation.identity(Carrier(2))])


class TestNormalize:
    def test_full_fixed(self):
        assert normalize(DiagonalBasis(C3, [FULL3])) == DiagonalBasis(C3, [FULL3])

    def test_pair_of_equivalences(self):
        e2 = eq_closure(Relation.from_pairs(C3, [(1, 2)]))
        assert normalize(DiagonalBasis(C3, [E01, e2])) == DiagonalBasis(C3, [E01 & e2])

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            normalize(DiagonalBasis(C3, [PSEUDO]))

    def test_minimum_is_equivalence_for_all_valid_bases(self):
        reflexive = all_reflexive_n3()
        for r in reflexive:
            b = DiagonalBasis(C3, [r])
            if validate_diagonal(b).valid:
                nb = normalize(b)
                assert len(nb.entourages) == 1
                assert is_equivalence(nb.entourages[0])


class TestUniformityEqual:
    def test_order_irrelevant(self):
        e2 = eq_closure(Relation.from_pairs(C3, [(1, 2)]))
        assert uniformity_equal(DiagonalBasis(C3, [E01, e2]), DiagonalBasis(C3, [e2, E01]))

    def test_discrete_vs_indiscrete(self):
        c2 = Carrier(2)
        assert not uniformity_equal(
            DiagonalBasis(c2, [Relation.identity(c2)]),
            DiagonalBasis(c2, [Relation.full(c2)]),
        )

    def test_superset_padding_irrelevant(self):
        assert uniformity_equal(DiagonalBasis(C3, [E01]), DiagonalBasis(C3, [E01, FULL3]))

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            uniformity_equal(
                DiagonalBasis(C3, [FULL3]),
                DiagonalBasis(Carrier(2), [Relation.full(Carrier(2))]),
            )

    def test_equivalence_laws_on_random_bases(self):
        import random

        rng = random.Random(7)
        bases = [random_valid_basis(rng, 5) for _ in range(12)]
        for b in bases:
            assert uniformity_equal(b, b)
        for a in bases:
            for b in bases:
                assert uniformity_equal(a, b) == uniformity_equal(b, a)
        for a in bases:
            for b in bases:
                for c in bases:
                    if uniformity_equal(a, b) and uniformity_equal(b, c):
                        assert uniformity_equal(a, c)


class TestIsNonArchimedean:
    def test_equivalence_singleton_witnesses_itself(self):
        b = DiagonalBasis(C3, [E01])
        ok, witness = is_non_archimedean(b)
        assert ok and witness == b

    def test_every_valid_small_basis_is_na(self):
        reflexive = all_reflexive_n3()
        bases = [DiagonalBasis(C3, [r]) for r in reflexive]
        bases += [DiagonalBasis(C3, pair) for pair in combinations(reflexive, 2)]
        checked = 0
        for b in bases:
            if not validate_diagonal(b).valid:
                continue
            checked += 1
            ok, witness = is_non_archimedean(b)
            assert ok
            assert all(is_equivalence(e) for e in witness.entourages)
            assert uniformity_equal(witness, b)
        assert checked > 5

    def test_invalid_input_raises(self):
        with pytest.raises(ValidationError):
            is_non_archimedean(DiagonalBasis(C3, [PSEUDO]))


class TestCoverFromDiagonal:
    def test_equivalence_gives_partition(self):
        cb = cover_basis_from_diagonal(DiagonalBasis(C3, [E01]))
        assert len(cb.covers) == 1
        cover = cb.covers[0]
        assert cover.is_partition
        assert cover.sets_as_lists() == [[0, 1], [2]]

    def test_full_gives_one_big_set(self):
        cb = cover_basis_from_diagonal(DiagonalBasis(C3, [FULL3]))
        assert cb.covers[0].sets_as_lists() == [[0, 1, 2]]

    def test_identity_gives_singletons(self):
        c2 = Carrier(2)
        cb = cover_basis_from_diagonal(DiagonalBasis(c2, [Relation.identity(c2)]))
        assert cb.covers[0].sets_as_lists() == [[0], [1]]

    def test_partitions_for_all_equivalences_n4(self):
        c4 = Carrier(4)
        for e in enumerate_equivalences(4):
            cb = cover_basis_from_diagonal(DiagonalBasis(c4, [e]))
            assert all(c.is_partition for c in cb.covers)
            assert relation_from_cover(cb.covers[0]) == Relation.from_blocks(c4, _classes(e)) == e


def _classes(e):
    seen = set()
    out = []
    for x in range(e.n):
        if x not in seen:
            block = [y for y in range(e.n) if e.has(x, y)]
            seen.update(block)
            out.append(block)
    return out


class TestDiagonalFromCover:
    def test_overlapping_cover(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2]])])
        # this basis alone is not star-refined by anything it generates
        assert not validate_cover(cb).valid
        with pytest.raises(ValidationError):
            diagonal_from_cover_basis(cb)

    def test_overlapping_cover_relation_formula(self):
        u = Cover(C3, [[0, 1], [1, 2]])
        expected = Relation.from_pairs(
            C3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
        )
        assert relation_from_cover(u) == expected

    def test_partition_gives_equivalence(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [2]])])
        b = diagonal_from_cover_basis(cb)
        assert E01 in b.entourages

    def test_one_big_set_gives_full(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1, 2]])])
        assert diagonal_from_cover_basis(cb).entourages == (FULL3,)

    @staticmethod
    def reference_rows(u):
        """Each set ORed into the row of each of its members, one member at a time."""
        rows = [0] * u.n
        for m in u.sets:
            for x in range(u.n):
                if m >> x & 1:
                    rows[x] |= m
        return tuple(rows)

    def test_rows_equal_the_per_member_reference_on_every_small_cover(self):
        counts = []
        for n in range(1, 5):
            covers = list(enumerate_covers(n))
            counts.append(len(covers))
            for u in covers:
                assert relation_from_cover(u).rows == self.reference_rows(u)
        assert counts == [1, 5, 109, 32297]

    def test_rows_equal_the_per_member_reference_on_seeded_covers(self):
        rng = random.Random(1617)
        for _ in range(300):
            for u in random_cover_basis(rng, rng.randint(1, 16)).covers:
                assert relation_from_cover(u).rows == self.reference_rows(u)


class TestStarAndValidateCover:
    def test_partition_bases_valid(self):
        parts = list(enumerate_equivalences(3))
        for p in parts:
            for q in parts:
                cb = CoverBasis(C3, [cover_from_relation(p), cover_from_relation(q)])
                assert validate_cover(cb).valid

    def test_overlapping_chain_invalid(self):
        u = Cover(C3, [[0, 1], [1, 2]])
        cb = CoverBasis(C3, [u])
        # direct check: the only candidate star-refinements all fail
        fin = slow_finest_refinement(cb)
        assert not star_refines(u, u)
        assert not star_refines(fin, u)
        report = validate_cover(cb)
        assert not report.valid
        assert report.violations[0][0] == "star_refinement"


class TestHasPartitionBasis:
    def test_all_partitions_already(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [2]])])
        ok, witness = has_partition_basis(cb)
        assert ok and witness == cb

    def test_converted_equivalence_basis(self):
        cb = cover_basis_from_diagonal(DiagonalBasis(C3, [E01, ID3]))
        ok, witness = has_partition_basis(cb)
        assert ok
        assert all(c.is_partition for c in witness.covers)
        assert uniformity_equal(witness, cb)

    def test_overlapping_cover_with_singleton_partition(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2]]), Cover(C3, [[0], [1], [2]])])
        ok, witness = has_partition_basis(cb)
        assert ok
        assert Cover(C3, [[0], [1], [2]]) in witness.covers


def check_validation_against_oracle(b):
    """The report and the closure against the pairwise scan, byte for byte; returns the report."""
    report = validate_diagonal(b)
    assert dumps(report.to_json()) == dumps(slow_validate_diagonal(b).to_json()), b.to_json()
    fast = sorted(_closure(b.entourages, repeat(0)))
    assert fast == [d.rows for d in slow_intersection_closure(b.entourages)]
    return report


REFUSING_DECIDERS = (
    DiagonalBasis.principal,
    normalize,
    is_non_archimedean,
    lambda b: uniformity_equal(b, b),
    cover_basis_from_diagonal,
    system_from_na_basis,
)


def check_diagonal_against_oracle(b):
    """The D_min decisions against the closure search; True iff b is valid.

    An invalid basis must be refused by every decider with the oracle's
    first failing axiom and, read from the error, the oracle's full report.
    """
    check_validation_against_oracle(b)
    try:
        found, reference = search_na_witness(b)
    except ValidationError:
        slow = slow_validate_diagonal(b)
        for decide in REFUSING_DECIDERS:
            with pytest.raises(ValidationError) as refused:
                decide(b)
            assert str(refused.value) == f"invalid diagonal basis: {slow.violations[0][0]}"
            assert dumps(refused.value.report.to_json()) == dumps(slow.to_json())
        return False
    ok, witness = is_non_archimedean(b)
    assert ok and found
    assert all(is_equivalence(e) for e in witness.entourages)
    assert uniformity_equal(witness, b) and uniformity_equal(witness, reference)
    cb = cover_basis_from_diagonal(b)
    assert all(c.is_partition for c in cb.covers)
    closure_covers = {cover_from_relation(d) for d in slow_intersection_closure(b.entourages)}
    assert uniformity_equal(cb, CoverBasis(b.carrier, closure_covers))
    assert uniformity_equal(basis_from_system(system_from_na_basis(b)), b)
    return True


COVER_DECIDERS = (
    CoverBasis.principal,
    has_partition_basis,
    diagonal_from_cover_basis,
    lambda cb: covering_member(cb, cb.covers[0]),
    lambda cb: uniformity_equal(cb, cb),
    roundtrip,
)


def check_cover_against_oracle(cb, members=(), other=None):
    """The R_F decisions against the slow meet and the per-cover searches; True iff cb is valid.

    The report must match the oracle's byte for byte, and an invalid basis
    must be refused by every decider with the oracle's report.  A valid one
    is checked for membership of each of `members` and, when `other` is a
    valid basis on the same carrier, for equality with it.
    """
    slow = slow_validate_cover(cb)
    assert dumps(validate_cover(cb).to_json()) == dumps(slow.to_json()), cb.to_json()
    if not slow.valid:
        for decide in COVER_DECIDERS:
            with pytest.raises(ValidationError) as refused:
                decide(cb)
            assert str(refused.value) == "invalid cover basis: star_refinement"
            assert dumps(refused.value.report.to_json()) == dumps(slow.to_json())
        return False
    closed = slow_finest_refinement(cb)
    b = diagonal_from_cover_basis(cb)
    assert b == DiagonalBasis(cb.carrier, [relation_from_cover(closed)])
    assert all(is_equivalence(e) for e in b.entourages)
    for u in members:
        assert covering_member(cb, u) == refines(closed, u), (cb.to_json(), u)
    if other is not None:
        other_closed = slow_finest_refinement(other)
        mutual = refines(closed, other_closed) and refines(other_closed, closed)
        assert uniformity_equal(cb, other) == mutual
    found, reference = search_partition_basis(cb)
    ok, parts = has_partition_basis(cb)
    assert ok and found
    assert all(c.is_partition for c in parts.covers)
    assert uniformity_equal(parts, cb) and uniformity_equal(parts, reference)
    coresidence = {relation_from_cover(u) for u in cb.covers} | {relation_from_cover(closed)}
    assert uniformity_equal(b, DiagonalBasis(cb.carrier, coresidence))
    return True


def random_reflexive_basis(rng, n):
    carrier = Carrier(n)
    return DiagonalBasis(carrier, [
        Relation(carrier, (rng.getrandbits(n) | 1 << x for x in range(n)))
        for _ in range(rng.randint(1, 3))
    ])


def random_diagonal_basis(rng, n, k):
    """k members: sparse reflexive supersets of one equivalence, or random reflexive relations.

    About one basis in ten loses a diagonal pair from its first member.
    """
    carrier = Carrier(n)
    base = random_equivalence(rng, n).rows
    members = []
    for _ in range(k):
        if rng.random() < 0.6:
            rows = [row | rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n) for row in base]
        else:
            rows = [rng.getrandbits(n) | 1 << x for x in range(n)]
        members.append(rows)
    if rng.random() < 0.1:
        x = rng.randrange(n)
        members[0][x] &= ~(1 << x)
    return DiagonalBasis(carrier, [Relation(carrier, rows) for rows in members])


def split_generator_basis(rng, n, k):
    """An invalid basis in which only some generators miss inverse(D_min) or D_min o D_min.

    D = E + (x, y) for an equivalence E and a pair outside it.  The first
    generator is D, so D_min = D; each other one is D with sparse extra
    pairs other than (y, x), and gets inverse(D) and D o D each with
    probability 1/2, in which case it passes that axiom.  So the closure
    holds passing members, and failing ones reached from passing parents
    and from passing generators.
    """
    carrier = Carrier(n)
    e = random_equivalence(rng, n)
    while e == Relation.full(carrier):
        e = random_equivalence(rng, n)
    x, y = rng.choice([(x, y) for x in range(n) for y in range(n) if not e.has(x, y)])
    d = union(e, Relation.from_pairs(carrier, [(x, y)]))
    not_yx = carrier.full_mask & ~(1 << x)
    members = [d]
    for _ in range(k - 1):
        g = union(d, Relation(carrier, [
            rng.getrandbits(n) & rng.getrandbits(n) & (not_yx if u == y else carrier.full_mask)
            for u in range(n)
        ]))
        if rng.random() < 0.5:
            g = union(g, inverse(d))
        if rng.random() < 0.5:
            g = union(g, compose(d, d))
        members.append(g)
    return DiagonalBasis(carrier, members)


def random_any_cover_basis(rng, n):
    carrier = Carrier(n)
    full = carrier.full_mask
    covers = []
    for _ in range(rng.randint(1, 3)):
        sets = [rng.randint(1, full) for _ in range(rng.randint(1, n))]
        sets.append(full & ~sets[0] or full)
        covers.append(Cover(carrier, sets))
    return CoverBasis(carrier, covers)


class TestPrincipalGeneratorAgainstOracle:
    def test_equivalence_bases_n_up_to_3(self):
        bases = [b for n in (1, 2, 3) for b in enumerate_equivalence_bases(n, 3)]
        assert all(check_diagonal_against_oracle(b) for b in bases)

    def test_reflexive_bases_of_one_or_two_members_n3(self):
        reflexive = all_reflexive_n3()
        bases = [DiagonalBasis(C3, [r]) for r in reflexive]
        bases += [DiagonalBasis(C3, pair) for pair in combinations(reflexive, 2)]
        valid = sum(check_diagonal_against_oracle(b) for b in bases)
        assert 0 < valid < len(bases)

    def test_validation_reports_on_seeded_bases_up_to_n8(self):
        rng = random.Random(20261018)
        kinds = {"valid": 0, "invalid": 0, "reflexivity": 0}
        for _ in range(2000):
            report = check_validation_against_oracle(
                random_diagonal_basis(rng, rng.randint(1, 8), rng.randint(1, 6))
            )
            kind = "valid" if report.valid else report.violations[0][0]
            kinds["invalid" if kind in ("symmetry", "composition") else kind] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_reports_where_only_some_generators_fail(self):
        # each member fails exactly the axioms its generators fail, so a
        # member of passing generators passes and one with a failing
        # generator fails, wherever that generator comes in the build order
        rng = random.Random(20261019)
        mixed = {"symmetry": 0, "composition": 0}
        for _ in range(400):
            n = rng.randint(2, 9)
            b = split_generator_basis(rng, n, rng.randint(2, 6))
            report = check_validation_against_oracle(b)
            assert not report.valid
            members = len(slow_intersection_closure(b.entourages))
            for axiom in mixed:
                failing = sum(a == axiom for a, _ in report.violations)
                mixed[axiom] += 0 < failing < members
        assert min(mixed.values()) >= 50, mixed

    def test_cover_bases_of_one_or_two_covers_n_up_to_3(self):
        # each valid basis of one cover is asked about every cover, and one of
        # two covers about every twelfth, so that every cover is asked about
        # across the bases; each is compared with an earlier valid basis
        rng = random.Random(20261020)
        checked = valid = equal = 0
        for n in (1, 2, 3):
            carrier = Carrier(n)
            covers = list(enumerate_covers(n))
            seen = []
            for size in (1, 2):
                for combo in combinations(covers, size):
                    cb = CoverBasis(carrier, combo)
                    members = covers if size == 1 else covers[checked % 12::12]
                    other = rng.choice(seen) if seen else None
                    checked += 1
                    if check_cover_against_oracle(cb, members, other):
                        valid += 1
                        equal += other is not None and uniformity_equal(cb, other)
                        seen.append(cb)
        assert 0 < valid < checked and 0 < equal < valid

    def test_cover_reports_on_seeded_bases_up_to_n8(self):
        rng = random.Random(20261021)
        kinds = {"valid": 0, "classes": 0, "not transitive": 0}
        for i in range(3000):
            n = rng.randint(1, 8)
            cb = (random_cover_basis if i % 2 else random_any_cover_basis)(rng, n)
            covers = [c for v in cb.covers for c in (v, v, v)[:rng.randint(1, 3)]]
            rng.shuffle(covers)  # shuffled and duplicated covers are the same basis
            shuffled = CoverBasis(cb.carrier, covers)
            assert shuffled == cb
            members = [cover_from_relation(random_equivalence(rng, n)) for _ in range(2)]
            valid = check_cover_against_oracle(shuffled, members, random_cover_basis(rng, n))
            r_f = reduce(Relation.__and__, map(relation_from_cover, cb.covers))
            kinds["valid" if valid else "classes" if is_equivalence(r_f) else "not transitive"] += 1
        assert min(kinds.values()) >= 40, kinds

    def test_both_invalid_shapes(self):
        # R_F full, an equivalence whose one class lies in no set of the cover
        triangle = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2], [0, 2]])])
        # R_F relates 0 to 1 and 1 to 2 but not 0 to 2, so it is not transitive
        chain = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2]])])
        for cb, r_f in ((triangle, FULL3), (chain, PSEUDO)):
            assert reduce(Relation.__and__, map(relation_from_cover, cb.covers)) == r_f
            assert not check_cover_against_oracle(cb)
            assert validate_cover(cb).violations == (("star_refinement", cb.covers[0].sets_as_lists()),)

    def test_exponential_meet_decided_within_budget(self, capsys):
        # covers {X, X - {i}} for i < 20 on 21 points: the meet has 2**20
        # sets, and R_F is the full relation, so the basis is valid
        from ultrauniform.cli import main

        k = 20
        carrier = Carrier(k + 1)
        full = carrier.full_mask
        cb = CoverBasis(carrier, [Cover(carrier, [full, full & ~(1 << i)]) for i in range(k)])
        text = dumps(cb.to_json())
        inside, outside = Cover(carrier, [full]), Cover(carrier, [full & ~1, full & ~2])
        started = time.perf_counter()
        report = validate_cover(cb)
        code = main(["convert", "--to", "diagonal", "--in", text])
        members = covering_member(cb, inside), covering_member(cb, outside)
        elapsed = time.perf_counter() - started
        assert report.valid and code == 0 and members == (True, False)
        assert capsys.readouterr().out == dumps(DiagonalBasis(carrier, [Relation.full(carrier)]))
        assert elapsed < 0.05, f"validate, convert and covering_member took {elapsed:.3f}s at k={k}"

    def test_covering_member_refuses_an_invalid_basis(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2]])])
        with pytest.raises(ValidationError, match="^invalid cover basis: star_refinement$"):
            covering_member(cb, Cover(C3, [[0, 1, 2]]))

    def test_seeded_random_bases_up_to_n6(self):
        rng = random.Random(20211)
        valid = 0
        for n in range(2, 7):
            for _ in range(40):
                assert check_diagonal_against_oracle(random_valid_basis(rng, n))
                assert check_diagonal_against_oracle(random_equivalence_basis(rng, n))
                valid += check_diagonal_against_oracle(random_reflexive_basis(rng, n))
                assert check_cover_against_oracle(random_cover_basis(rng, n))
                valid += check_cover_against_oracle(random_any_cover_basis(rng, n))
        assert valid > 0


class TestRoundtrips:
    def test_indiscrete(self):
        assert roundtrip(DiagonalBasis(C3, [FULL3]))

    def test_all_uniformities_n4(self):
        bases = list(enumerate_uniformities(4))
        assert len(bases) == 15
        for b in bases:
            assert roundtrip(b)

    def test_all_valid_cover_bases_n3(self):
        count = 0
        for cb in enumerate_valid_cover_bases(3, max_covers=2):
            count += 1
            assert roundtrip(cb)
        assert count > 50

    def test_non_directed_generating_family(self):
        # the two entourages intersect to the identity, which neither contains
        d1 = union(ID3, Relation.from_pairs(C3, [(0, 1)]))
        d2 = union(ID3, Relation.from_pairs(C3, [(1, 0)]))
        b = DiagonalBasis(C3, [d1, d2])
        assert validate_diagonal(b).valid
        assert normalize(b).entourages == (ID3,)
        assert roundtrip(b)


class TestNormalizePadic:
    def test_all_ball_relations_intersect_to_identity(self):
        # oracle: realize every ball relation of the dyadic valuation
        # distance on {0..7} by direct scanning, then intersect
        from ultrauniform.cli import padic_pseudometric
        from ultrauniform.oracle import slow_basis_from_system
        from ultrauniform.pseudometric import PseudometricSystem, basis_from_system

        d = padic_pseudometric(2, 8)
        values = sorted({v for row in d.dist for v in row if v > 0})
        radii = values + [values[-1] + 1]
        c8 = Carrier(8)
        balls = []
        for eps in radii:
            pairs = [
                (x, y) for x in range(8) for y in range(8) if d.d(x, y) < eps
            ]
            balls.append(Relation.from_pairs(c8, pairs))
        expected = balls[0]
        for b in balls[1:]:
            expected = expected & b
        assert expected == Relation.identity(c8)

        system = PseudometricSystem(c8, [d])
        basis = slow_basis_from_system(system)
        assert set(basis.entourages) == set(balls)
        assert normalize(basis) == DiagonalBasis(c8, [expected])
        assert basis_from_system(system) == DiagonalBasis(c8, [expected])


class TestBasisContainers:
    def test_dedup_and_canonical_order(self):
        b1 = DiagonalBasis(C3, [E01, FULL3, E01])
        b2 = DiagonalBasis(C3, [FULL3, E01])
        assert b1 == b2
        assert len(b1.entourages) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DiagonalBasis(C3, [])
        with pytest.raises(ValueError):
            CoverBasis(C3, [])

    def test_cover_must_cover(self):
        with pytest.raises(ValueError):
            Cover(C3, [[0, 1]])

    def test_entourage_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            DiagonalBasis(C3, [Relation.full(Carrier(2))])

    def test_covering_membership(self):
        p1 = Cover(C3, [[0, 1], [2]])
        p2 = Cover(C3, [[0], [1, 2]])
        cb = CoverBasis(C3, [p1, p2])
        # the meet of the two partitions is available to refine members
        assert covering_member(cb, Cover(C3, [[0], [1], [2]]))
        assert covering_member(cb, Cover(C3, [[0, 1, 2]]))
        cb_coarse = CoverBasis(C3, [Cover(C3, [[0, 1, 2]])])
        assert not covering_member(cb_coarse, Cover(C3, [[0, 1], [2]]))

    def test_cover_rejects_empty_set(self):
        with pytest.raises(ValueError):
            Cover(C3, [[0, 1, 2], []])

    def test_intersection_closure_contains_minimum(self):
        e2 = eq_closure(Relation.from_pairs(C3, [(1, 2)]))
        closure = slow_intersection_closure([E01, e2])
        assert E01 & e2 in closure
        assert len(closure) == 3


class TestJsonRoundTrips:
    def test_diagonal_basis(self):
        b = DiagonalBasis(C3, [E01, FULL3])
        assert DiagonalBasis.from_json(b.to_json()) == b

    def test_cover_basis(self):
        cb = CoverBasis(C3, [Cover(C3, [[0, 1], [1, 2]]), Cover(C3, [[0, 1, 2]])])
        assert CoverBasis.from_json(cb.to_json()) == cb

    def test_validation_report_shape(self):
        report = validate_diagonal(DiagonalBasis(C3, [PSEUDO]))
        obj = report.to_json()
        assert obj["valid"] is False
        assert obj["violations"][0]["axiom"] == "composition"

    def test_mismatched_inner_n(self):
        with pytest.raises(ValueError, match="entourages"):
            DiagonalBasis.from_json(
                {"n": 3, "entourages": [{"n": 2, "pairs": [[0, 0], [1, 1]]}]}
            )
