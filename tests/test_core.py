"""Relations, equivalences read from blocks, the closure algebra, and the family base."""

import contextlib
import io
import random
import re
from operator import or_
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrauniform.core import (
    Carrier,
    CarrierMismatch,
    Family,
    Relation,
    bits,
    compose,
    inverse,
    is_equivalence,
)
from ultrauniform.cli import main
from ultrauniform.oracle import (
    bell_number,
    enumerate_equivalences,
    enumerate_relations,
    eq_closure,
    random_cover_basis,
    random_equivalence,
    random_ultrametric,
    slow_eq_closure,
)
from ultrauniform.jsonio import dumps, loads
from ultrauniform.pseudometric import Chain, PseudometricSystem
from ultrauniform.uniformity import (
    CoverBasis,
    DiagonalBasis,
    cover_from_relation,
    has_partition_basis,
    refines,
    relation_from_cover,
)

C3 = Carrier(3)
ALL_N3 = list(enumerate_relations(3))


def rel(pairs, carrier=C3):
    return Relation.from_pairs(carrier, pairs)


class TestCompose:
    def test_definition(self):
        r = rel([(0, 1)])
        s = rel([(1, 2)])
        assert compose(r, s) == rel([(0, 2)])

    def test_identity_law(self):
        s = rel([(0, 2), (1, 1), (2, 0)])
        assert compose(Relation.identity(C3), s) == s
        assert compose(s, Relation.identity(C3)) == s

    def test_full_absorbs(self):
        c2 = Carrier(2)
        full = Relation.full(c2)
        assert compose(full, full) == full

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            compose(Relation.full(C3), Relation.full(Carrier(4)))


class TestInverse:
    def test_single_pair(self):
        assert inverse(rel([(0, 1)])) == rel([(1, 0)])

    def test_symmetric_fixed_point(self):
        r = rel([(0, 1), (1, 0), (2, 2)])
        assert inverse(r) == r

    def test_empty(self):
        assert inverse(Relation.empty(C3)) == Relation.empty(C3)


class TestIsEquivalence:
    def test_identity(self):
        assert is_equivalence(Relation.identity(C3))

    def test_missing_transitive_pair(self):
        r = rel([(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])
        assert not is_equivalence(r)

    def test_full(self):
        assert is_equivalence(Relation.full(C3))


def union(r, s):
    """The pairs of r or s, on r's carrier."""
    return Relation(r.carrier, map(or_, r.rows, s.rows))


def reflexive_by_pairs(r):
    return all(r.rows[x] >> x & 1 for x in range(r.n))


def equivalence_by_pairs(r):
    """Reflexive, symmetric and transitive, checked pair by pair on the rows."""
    rows, n = r.rows, r.n
    related = [(x, y) for x in range(n) for y in range(n) if rows[x] >> y & 1]
    return (
        reflexive_by_pairs(r)
        and all(rows[y] >> x & 1 for x, y in related)
        and all(rows[y] & ~rows[x] == 0 for x, y in related)  # (x,y), (y,z) give (x,z)
    )


def perturbed_equivalences(rng, n):
    """An equivalence on n points and relations a step away from it.

    The steps copy or widen rows so that some rows repeat outside their
    class, drop a diagonal bit, or permute singleton rows.
    """
    e = random_equivalence(rng, n).rows
    classes = sorted(set(e))
    out = [e]
    x, w = rng.randrange(n), rng.randrange(n)
    if len(classes) > 1:
        a, b = rng.sample(classes, 2)
        out.append([row | b if row == a else row for row in e])  # a's points also reach b
        outside = [v for v in range(n) if not a >> v & 1]
        v = rng.choice(outside)
        out.append([a | 1 << v if u == v else row for u, row in enumerate(e)])  # a's row repeats at v
        out.append([a if u == v else row for u, row in enumerate(e)])  # copied exactly, v left out
        out.append([a | b if row in (a, b) else row for row in e])  # merged: still an equivalence
    out.append([row & ~(1 << x) if u == x else row for u, row in enumerate(e)])
    shift = rng.randrange(1, n) if n > 1 else 0
    out.append([1 << (u + shift) % n for u in range(n)])
    out.append([row | 1 << w for row in e])  # every row reaches w
    out.append([rng.getrandbits(n) | 1 << u for u in range(n)])
    return [Relation(Carrier(n), rows) for rows in out]


class TestRowDecisions:
    def test_every_relation_n3(self):
        assert len(ALL_N3) == 512
        for r in ALL_N3:
            assert r.is_reflexive() == reflexive_by_pairs(r), r
            assert is_equivalence(r) == equivalence_by_pairs(r), r
        assert sum(map(is_equivalence, ALL_N3)) == 5

    def test_seeded_relations_up_to_n64(self):
        rng = random.Random(6403)
        verdicts = {True: 0, False: 0}
        reflexive_misses = 0
        for _ in range(150):
            n = rng.choice([1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33, 63, 64])
            for r in perturbed_equivalences(rng, n):
                assert r.is_reflexive() == reflexive_by_pairs(r), r
                expected = equivalence_by_pairs(r)
                assert is_equivalence(r) == expected, r
                verdicts[expected] += 1
                reflexive_misses += not r.is_reflexive()
        assert min(verdicts.values()) >= 200 and reflexive_misses >= 100, verdicts


class TestIsSymmetric:
    """`is_symmetric` reads the rows; the definition is inverse(r) == r."""

    def test_every_relation_up_to_n3(self):
        verdicts = {True: 0, False: 0}
        for n in (1, 2, 3):
            for r in enumerate_relations(n):
                expected = inverse(r) == r
                assert r.is_symmetric() == expected, r
                verdicts[expected] += 1
        assert verdicts == {True: 2 + 2**3 + 2**6, False: 2 + 16 + 512 - (2 + 2**3 + 2**6)}

    def test_seeded_relations_up_to_n16(self):
        rng = random.Random(1616)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            n = rng.randint(1, 16)
            for r in perturbed_equivalences(rng, n):
                for s in (r, union(r, inverse(r))):
                    expected = inverse(s) == s
                    assert s.is_symmetric() == expected, s
                    verdicts[expected] += 1
        assert min(verdicts.values()) >= 500, verdicts


class TestEqClosure:
    def test_single_pair(self):
        e = eq_closure(rel([(0, 1)]))
        assert e == Relation.from_blocks(C3, [[0, 1], [2]])

    def test_fixed_on_equivalences(self):
        for e in enumerate_equivalences(4):
            assert eq_closure(e) == e

    def test_two_pairs_fill(self):
        # expected value computed by the slow fixpoint closure
        r = rel([(0, 1), (1, 2)])
        expected = slow_eq_closure(r)
        assert expected == Relation.full(C3)
        assert eq_closure(r) == expected

    def test_matches_slow_closure_exhaustively(self):
        for r in ALL_N3:
            assert eq_closure(r) == slow_eq_closure(r)

    def test_extensive_idempotent_equivalence(self):
        for r in ALL_N3:
            e = eq_closure(r)
            assert r.issubset(e)
            assert eq_closure(e) == e
            assert is_equivalence(e)

    def test_monotone(self):
        closures = [eq_closure(r) for r in ALL_N3]
        for i, r in enumerate(ALL_N3):
            for j, s in enumerate(ALL_N3):
                if r.issubset(s):
                    assert closures[i].issubset(closures[j])


class TestComposeTransitivityLink:
    def test_square_fixed_iff_transitive_for_reflexive(self):
        for r in ALL_N3:
            if r.is_reflexive():
                assert (compose(r, r) == r) == r.is_transitive()

    def test_equivalence_matches_componentwise_definition(self):
        # second route: check the three defining properties by raw loops
        for r in ALL_N3:
            n = r.n
            refl = all(r.has(x, x) for x in range(n))
            sym = all(r.has(y, x) for x in range(n) for y in range(n) if r.has(x, y))
            trans = all(
                r.has(x, z)
                for x in range(n)
                for y in range(n)
                for z in range(n)
                if r.has(x, y) and r.has(y, z)
            )
            assert is_equivalence(r) == (refl and sym and trans)


def blocks_of(e):
    """The classes of an equivalence as point lists, ordered by their least points."""
    return [list(bits(c)) for c in dict.fromkeys(e.rows)]


class TestFromBlocks:
    def test_classes_to_blocks(self):
        e = eq_closure(rel([(0, 1)]))
        assert blocks_of(e) == [[0, 1], [2]]
        assert e.rows == (0b011, 0b011, 0b100)

    def test_identity_singletons(self):
        assert Relation.from_blocks(C3, [[0], [1], [2]]) == Relation.identity(C3)
        assert blocks_of(Relation.identity(C3)) == [[0], [1], [2]]

    def test_round_trip_all_equivalences_of_four(self):
        equivalences = list(enumerate_equivalences(4))
        assert len(equivalences) == bell_number(4) == 15
        assert len(set(equivalences)) == 15
        for e in equivalences:
            assert is_equivalence(e)
            assert Relation.from_blocks(e.carrier, blocks_of(e)) == e
            assert Relation.from_blocks(e.carrier, reversed(blocks_of(e))) == e

    def test_block_order_and_point_order_do_not_matter(self):
        assert Relation.from_blocks(C3, [[2], [1, 0]]) == Relation.from_blocks(C3, [[0, 1], [2]])

    @pytest.mark.parametrize("blocks, message", [
        ([[0, 1], [1, 2]], "blocks overlap"),
        ([[0, 1]], "blocks do not cover the carrier"),
        ([[0, 1, 2], []], "empty block"),
        ([[0, 1], [2, 3]], "block mentions points outside the carrier"),
    ], ids=["overlap", "missing point", "empty block", "outside"])
    def test_refusals(self, blocks, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Relation.from_blocks(C3, blocks)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Relation.from_blocks(C3, map(iter, blocks))  # any iterables of points


def validate_output(payload):
    """The exit code and stdout of `validate` on a JSON payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--in", dumps(payload)])
    return code, out.getvalue()


class TestBlocksPayload:
    """A `blocks` payload is read as the equivalence whose classes are its blocks."""

    def test_blocks_and_pairs_decode_alike_for_every_equivalence_up_to_n4(self):
        counts = []
        for n in range(1, 5):
            equivalences = list(enumerate_equivalences(n))
            counts.append(len(equivalences))
            for e in equivalences:
                blocks = {"n": n, "blocks": blocks_of(e)}
                pairs = e.to_json()
                assert Relation.from_json(blocks) == Relation.from_json(pairs) == e
                assert loads(dumps(blocks)) == e
                assert validate_output(blocks) == validate_output(pairs) == (
                    0, '{\n  "valid": true,\n  "violations": []\n}\n'
                )
        assert counts == [1, 2, 5, 15]

    def test_a_member_may_be_given_by_its_blocks(self):
        e = Relation.from_blocks(C3, [[0, 1], [2]])
        basis = {"n": 3, "entourages": [{"n": 3, "blocks": [[2], [1, 0]]}]}
        assert DiagonalBasis.from_json(basis) == DiagonalBasis(C3, [e])
        chain = {"n": 3, "steps": [{"n": 3, "blocks": [[0, 1, 2]]},
                                   {"n": 3, "blocks": [[0, 1], [2]]}]}
        assert Chain.from_json(chain) == Chain(C3, [Relation.full(C3), e])
        with pytest.raises(ValueError, match=r"^entourages\[0\]: blocks overlap$"):
            DiagonalBasis.from_json({"n": 3, "entourages": [{"n": 3, "blocks": [[0, 1], [1, 2]]}]})

    def test_pairs_win_over_blocks(self):
        both = {"n": 2, "pairs": [[0, 1]], "blocks": [[0, 1]]}
        assert Relation.from_json(both) == Relation.from_pairs(Carrier(2), [(0, 1)])

    def test_a_bad_point_is_named_by_its_path(self):
        for blocks, path, value in (([[0, 1], [5]], "blocks[1][0]", "5"),
                                    ([[0], [1, -1]], "blocks[1][1]", "-1"),
                                    ([[0, True]], "blocks[0][1]", "True")):
            code, out = validate_output({"n": 2, "blocks": blocks})
            assert code == 2
            assert f"field '{path}' must be a point index in 0..1, got {value}" in out

    def test_a_refusal_exits_2_with_its_message(self):
        for blocks, message in (([[0, 1], [1]], "blocks overlap"),
                                ([[0]], "blocks do not cover the carrier"),
                                ([[0, 1], []], "empty block")):
            assert validate_output({"n": 2, "blocks": blocks}) == (
                2, dumps({"error": message})
            )


def meet(e, f):
    """The meet of two equivalences, read as the one partition basis of their cover basis."""
    covers = map(cover_from_relation, (e, f))
    _, parts = has_partition_basis(CoverBasis(e.carrier, covers))
    return relation_from_cover(parts.covers[0])


class TestMeet:
    def test_crossing_blocks(self):
        p = Relation.from_blocks(C3, [[0, 1], [2]])
        q = Relation.from_blocks(C3, [[0], [1, 2]])
        assert meet(p, q) == Relation.identity(C3)

    def test_idempotent(self):
        p = Relation.from_blocks(C3, [[0, 1], [2]])
        assert meet(p, p) == p

    def test_refinement_absorbs(self):
        c4 = Carrier(4)
        whole = Relation.from_blocks(c4, [[0, 1, 2, 3]])
        split = Relation.from_blocks(c4, [[0, 1], [2, 3]])
        assert meet(whole, split) == split

    def test_laws_on_all_partitions_of_four(self):
        parts = list(enumerate_equivalences(4))
        for p in parts:
            for q in parts:
                m = meet(p, q)
                assert m == meet(q, p) == p & q
                assert m.issubset(p) and m.issubset(q)
                assert meet(m, q) == m

    def test_associative_sampled(self):
        parts = list(enumerate_equivalences(4))
        triples = [(parts[i], parts[(i * 7 + 3) % 15], parts[(i * 11 + 5) % 15]) for i in range(15)]
        for p, q, r in triples:
            assert meet(meet(p, q), r) == meet(p, meet(q, r))


class TestRefines:
    """`refines` on the class covers of equivalences is inclusion of the equivalences."""

    def test_singletons_refine_everything(self):
        singles = cover_from_relation(Relation.identity(C3))
        for p in enumerate_equivalences(3):
            assert refines(singles, cover_from_relation(p))

    def test_not_refining(self):
        p, q = Relation.from_blocks(C3, [[0, 1], [2]]), Relation.from_blocks(C3, [[0], [1, 2]])
        assert not refines(cover_from_relation(p), cover_from_relation(q))

    def test_reflexive(self):
        for p in enumerate_equivalences(3):
            assert refines(cover_from_relation(p), cover_from_relation(p))

    def test_refinement_is_inclusion_on_all_equivalences_of_four(self):
        parts = list(enumerate_equivalences(4))
        for p in parts:
            for q in parts:
                assert refines(cover_from_relation(p), cover_from_relation(q)) == p.issubset(q)

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            refines(cover_from_relation(Relation.full(C3)),
                    cover_from_relation(Relation.full(Carrier(2))))


class TestCarrier:
    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            Carrier(0)


class TestJson:
    def test_relation_round_trip_sorted_pairs(self):
        r = rel([(2, 0), (0, 1)])
        obj = r.to_json()
        assert obj == {"n": 3, "pairs": [[0, 1], [2, 0]]}
        assert Relation.from_json(obj) == r

    def test_blocks_read_as_their_equivalence(self):
        e = Relation.from_json({"n": 3, "blocks": [[2], [0, 1]]})
        assert e == Relation.from_blocks(C3, [[0, 1], [2]])
        assert e.to_json() == {"n": 3, "pairs": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]}

    def test_relation_pairs_equal_pairs_generator_on_seeded_relations(self):
        rng = random.Random(64)
        for _ in range(300):
            n = rng.choice([1, 2, 3, 5, 8, 16, 31, 32, 33, 63, 64])
            full = (1 << n) - 1
            # empty and full rows among sparse and dense ones
            rows = [rng.choice([0, full, rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)])
                    for _ in range(n)]
            r = Relation(Carrier(n), rows)
            obj = r.to_json()
            assert obj == {"n": n, "pairs": [list(p) for p in r.pairs()]}
            again = r.to_json()["pairs"]
            assert all(a is not b for a, b in zip(obj["pairs"], again))  # fresh lists
        for n in (1, 7, 64):
            assert Relation.empty(Carrier(n)).to_json() == {"n": n, "pairs": []}
            pairs = Relation.full(Carrier(n)).to_json()["pairs"]
            assert pairs == [[x, y] for x in range(n) for y in range(n)]

    def test_bad_pairs_field(self):
        with pytest.raises(ValueError, match="pairs"):
            Relation.from_json({"n": 3, "pairs": [[0]]})

    def test_out_of_range_pair(self):
        with pytest.raises(ValueError):
            Relation.from_json({"n": 2, "pairs": [[0, 5]]})


@st.composite
def relations(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    carrier = Carrier(n)
    rows = draw(st.lists(
        st.integers(min_value=0, max_value=(1 << n) - 1), min_size=n, max_size=n
    ))
    return Relation(carrier, rows)


@given(relations())
@settings(max_examples=150, deadline=None)
def test_eq_closure_properties_random(r):
    e = eq_closure(r)
    assert r.issubset(e)
    assert is_equivalence(e)
    assert eq_closure(e) == e
    assert e == slow_eq_closure(r)


@given(relations(max_n=5), relations(max_n=5))
@settings(max_examples=100, deadline=None)
def test_compose_monotone_random(r, s):
    if r.n != s.n:
        return
    both = compose(r, s)
    bigger = compose(union(r, s), union(s, r))
    assert both.issubset(bigger)


def random_chain_steps(rng, n):
    """The full relation, then cumulative intersections of 1-4 equivalences, repeats kept."""
    steps = [Relation.full(Carrier(n))]
    for _ in range(rng.randint(1, 4)):
        steps.append(steps[-1] & random_equivalence(rng, n))
    return steps


class FamilyCase(NamedTuple):
    family: type
    members: Callable  # (rng, n) -> seeded members on n points
    empty: str  # the refusal of an empty family
    stray: str  # the refusal of a member on another carrier
    payload: dict  # JSON with one bad member
    error: str  # the error that names it


FAMILIES = [
    FamilyCase(
        DiagonalBasis,
        lambda rng, n: [Relation(Carrier(n), [rng.getrandbits(n) for _ in range(n)])
                        for _ in range(rng.randint(1, 5))],
        "a diagonal basis needs at least one entourage",
        "entourage on a different carrier",
        {"n": 3, "entourages": [{"n": 3, "pairs": []}, {"n": 2, "pairs": [[0, 0]]}]},
        "field 'entourages[1]' has mismatched 'n'",
    ),
    FamilyCase(
        CoverBasis,
        lambda rng, n: list(random_cover_basis(rng, n).covers),
        "a cover basis needs at least one cover",
        "cover on a different carrier",
        {"n": 2, "covers": [[[0, 1]], [[0]]]},
        "covers[1]: sets do not cover the carrier",
    ),
    FamilyCase(
        PseudometricSystem,
        lambda rng, n: [random_ultrametric(rng, n) for _ in range(rng.randint(1, 4))],
        "a system needs at least one pseudo-metric",
        "pseudo-metric on a different carrier",
        {"n": 3, "metrics": [{"n": 2, "dist": [[0, 1], [1, 0]]}]},
        "field 'metrics[0]' has mismatched 'n'",
    ),
    FamilyCase(
        Chain,
        random_chain_steps,
        "a chain needs at least one step",
        "chain step on a different carrier",
        {"n": 3, "steps": [{"n": 3, "pairs": [[x, y] for x in range(3) for y in range(3)]},
                           {"n": 2, "pairs": [[0, 0], [1, 1]]}]},
        "field 'steps[1]' has mismatched 'n'",
    ),
]


@pytest.mark.parametrize("case", FAMILIES, ids=[case.family.__name__ for case in FAMILIES])
class TestFamily:
    def test_the_shared_plumbing_is_defined_once(self, case):
        assert issubclass(case.family, Family)
        for name in ("n", "to_json", "from_json", "__eq__", "__hash__", "__repr__"):
            assert name not in vars(case.family)
        assert case.family.__slots__ == ()

    def test_an_empty_family_is_refused(self, case):
        for empty in ([], iter(())):
            with pytest.raises(ValueError, match=f"^{re.escape(case.empty)}$"):
                case.family(C3, empty)

    def test_a_member_on_another_carrier_is_refused(self, case):
        rng = random.Random(23)
        for n in range(1, 6):
            own, other = case.members(rng, n), case.members(rng, n + 1)
            with pytest.raises(CarrierMismatch, match=f"^{re.escape(case.stray)}$"):
                case.family(Carrier(n), own + other[-1:])

    def test_the_stored_order_ignores_input_order(self, case):
        rng = random.Random(2300)
        for _ in range(60):
            n = rng.randint(1, 6)
            listed = case.members(rng, n)
            f = case.family(Carrier(n), listed)
            assert getattr(f, f._field) is f.members
            if case.family is Chain:  # a chain keeps its order, repeated steps too
                assert f.members == tuple(listed)
                g = Chain(Carrier(n), listed + listed[-1:])
                assert g.members == f.members + f.members[-1:] and g != f
                continue
            assert len(set(f.members)) == len(f.members)
            again = rng.sample(listed, len(listed)) + rng.choices(listed, k=rng.randint(1, 3))
            g = case.family(Carrier(n), again)
            assert g.members == f.members
            assert g == f and hash(g) == hash(f)
            assert g != case.family(Carrier(n + 1), case.members(rng, n + 1))

    def test_json_round_trip(self, case):
        rng = random.Random(2301)
        for _ in range(40):
            n = rng.randint(1, 6)
            f = case.family(Carrier(n), case.members(rng, n))
            assert case.family.from_json(f.to_json()) == f
            assert loads(dumps(f)) == f
            assert repr(f) == f"{case.family.__name__}({n}, {len(f.members)} {f._field})"

    def test_a_bad_member_is_named_by_its_path(self, case):
        with pytest.raises(ValueError) as refused:
            case.family.from_json(case.payload)
        assert str(refused.value) == case.error
