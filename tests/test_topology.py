"""Finite topologies: clopen separation, quasi-components, induced uniformities."""

import random
from functools import reduce
from operator import or_

import pytest

from ultrauniform.core import Carrier, Relation, ValidationError, is_equivalence
from ultrauniform.oracle import (
    bell_number,
    enumerate_equivalence_bases,
    enumerate_equivalences,
    enumerate_preorder_topologies,
    enumerate_topologies,
    eq_closure,
    slow_intersection_closure,
)
from ultrauniform import topology
from ultrauniform.topology import (
    FiniteTopology,
    chain_topology,
    clopen_sets,
    discrete_topology,
    indiscrete_topology,
    induced_topology,
    is_uniformizable_na,
    is_zero_dimensional,
    partition_topology,
    quasi_components,
    satisfies_TA,
    sierpinski_topology,
    validate_topology,
)
from ultrauniform.uniformity import DiagonalBasis, normalize, validate_diagonal

C3 = Carrier(3)
E01 = eq_closure(Relation.from_pairs(C3, [(0, 1)]))


def agreement(carrier, c):
    """Pairs on which the continuous map into {0,1} with preimage c of 1 agrees."""
    rest = carrier.full_mask & ~c
    return Relation(carrier, [c if c >> x & 1 else rest for x in carrier.points])


def small_topologies():
    """All 389 topologies with n <= 4 and a seeded 300 of the 6942 at n = 5."""
    topologies = [t for n in range(1, 5) for t in enumerate_preorder_topologies(n)]
    topologies += random.Random(1905).sample(list(enumerate_preorder_topologies(5)), 300)
    assert len(topologies) == 389 + 300
    return topologies


class TestValidate:
    def test_discrete_valid(self):
        assert validate_topology(discrete_topology(2)).valid

    def test_sierpinski_valid(self):
        assert validate_topology(sierpinski_topology()).valid

    def test_missing_carrier_invalid(self):
        t = FiniteTopology(Carrier(2), [0b00, 0b01, 0b10])
        report = validate_topology(t)
        assert not report.valid
        assert ("contains_carrier", [0, 1]) in report.violations

    def test_union_gap_reported(self):
        t = FiniteTopology(C3, [0b000, 0b001, 0b010, 0b111])
        report = validate_topology(t)
        axioms = {axiom for axiom, _ in report.violations}
        assert axioms == {"union"}

    def test_each_verdict_validates_as_before(self, monkeypatch):
        # every public function validates its topology: 2 + 2 + 3 per topology
        calls = []
        monkeypatch.setattr(topology, "validate_topology",
                            lambda t: calls.append(t) or validate_topology(t))
        t = discrete_topology(3)
        counts = []
        for verdict in (satisfies_TA, is_zero_dimensional, is_uniformizable_na):
            verdict(t)
            counts.append(len(calls))
        assert counts == [2, 4, 7]


class TestClopenAndZeroDim:
    def test_discrete_all_clopen(self):
        t = discrete_topology(2)
        assert len(clopen_sets(t)) == 4
        assert is_zero_dimensional(t)

    def test_sierpinski(self):
        t = sierpinski_topology()
        assert clopen_sets(t) == [0b00, 0b11]
        # {1} is open but no union of clopens equals it
        assert not is_zero_dimensional(t)

    def test_indiscrete(self):
        t = indiscrete_topology(3)
        assert clopen_sets(t) == [0, 0b111]
        assert is_zero_dimensional(t)

    def test_zero_dimensional_against_its_definition(self):
        # each open set is the union of the clopen sets inside it
        for t in small_topologies():
            clopens = clopen_sets(t)
            unions = all(o == reduce(or_, (c for c in clopens if c & ~o == 0), 0) for o in t.opens)
            assert is_zero_dimensional(t) == unions, t.to_json()


class TestSeparation:
    def test_discrete(self):
        ok, cex = satisfies_TA(discrete_topology(3))
        assert ok and cex is None

    def test_indiscrete(self):
        ok, cex = satisfies_TA(indiscrete_topology(3))
        assert ok and cex is None

    def test_sierpinski_counterexample(self):
        ok, cex = satisfies_TA(sierpinski_topology())
        assert not ok
        assert cex == ((0,), 1)

    def test_rejects_invalid_topology(self):
        with pytest.raises(ValidationError):
            satisfies_TA(FiniteTopology(Carrier(2), [0b00]))

    def test_separating_map_exists_in_separated_spaces(self):
        # whenever separation holds, a clopen set's complement is the preimage
        # of 1 of a continuous map into {0,1} that is 0 at the point and 1 on
        # the closed set
        for e in enumerate_equivalences(3):
            t = partition_topology(e)
            assert satisfies_TA(t)[0]
            clopens = clopen_sets(t)
            for a in t.closed_sets():
                for x in range(3):
                    if a >> x & 1:
                        continue
                    u2 = next(c for c in clopens if c >> x & 1 and c & a == 0)
                    ones = t.carrier.full_mask & ~u2
                    assert ones in t.opens and u2 in t.opens
                    assert ones >> x & 1 == 0
                    assert a & ~ones == 0


class TestContinuousMaps:
    # a continuous map into the discrete {0,1} is its clopen preimage of 1
    def test_sierpinski_has_only_constants(self):
        assert clopen_sets(sierpinski_topology()) == [0b00, 0b11]

    def test_discrete_two_points(self):
        assert len(clopen_sets(discrete_topology(2))) == 4

    def test_indiscrete_any_size(self):
        for n in (2, 3, 5):
            assert len(clopen_sets(indiscrete_topology(n))) == 2


class TestUniformityFromMaps:
    # the uniformity of the continuous maps into {0,1} is principal at Q
    def test_constants_give_indiscrete(self):
        assert quasi_components(indiscrete_topology(3)) == Relation.full(C3)

    def test_discrete_two_points_contains_identity(self):
        assert quasi_components(discrete_topology(2)) == Relation.identity(Carrier(2))

    def test_sierpinski_gives_indiscrete(self):
        assert quasi_components(sierpinski_topology()) == Relation.full(Carrier(2))

    def test_members_are_equivalences_and_basis_valid(self):
        for e in enumerate_equivalences(3):
            q = quasi_components(partition_topology(e))
            assert is_equivalence(q) and q == e
            assert validate_diagonal(DiagonalBasis(C3, [q])).valid

    def test_rejects_invalid_topology(self):
        with pytest.raises(ValidationError):
            quasi_components(FiniteTopology(Carrier(2), [0b00]))

    def test_principal_generator_against_slow_closure(self):
        # Q generates what the closure of the agreement relations does, and
        # Q is that closure's first member: the uniformize witness it replaces
        # was the whole closure, and its verdict came from the closure too
        uniformizable = 0
        for t in small_topologies():
            q = quasi_components(t)
            closure = slow_intersection_closure(agreement(t.carrier, c) for c in clopen_sets(t))
            slow = DiagonalBasis(t.carrier, closure)
            assert normalize(slow).entourages == (q,), t.to_json()
            ok, witness = is_uniformizable_na(t)
            assert ok == (induced_topology(slow) == t), t.to_json()
            if ok:
                assert witness.entourages == closure[:1], t.to_json()
            uniformizable += ok
        assert uniformizable >= 23, uniformizable


class TestInducedTopology:
    def test_indiscrete(self):
        b = DiagonalBasis(C3, [Relation.full(C3)])
        assert induced_topology(b) == indiscrete_topology(3)

    def test_discrete(self):
        b = DiagonalBasis(C3, [Relation.identity(C3)])
        assert induced_topology(b) == discrete_topology(3)

    def test_equivalence_classes(self):
        t = induced_topology(DiagonalBasis(C3, [E01]))
        assert t == FiniteTopology(C3, [0b000, 0b011, 0b100, 0b111])

    def test_always_zero_dimensional(self):
        for n, gens in ((3, 2), (4, 2)):
            for b in enumerate_equivalence_bases(n, max_generators=gens):
                assert is_zero_dimensional(induced_topology(b))

    def test_block_count_guard(self):
        assert len(partition_topology(Relation.identity(Carrier(16))).opens) == 1 << 16
        with pytest.raises(ValueError, match="^too many blocks to materialize the open family$"):
            partition_topology(Relation.identity(Carrier(17)))

    def test_partition_topology_refuses_a_non_equivalence(self):
        for r in (Relation.from_pairs(C3, [(0, 1)]), Relation.empty(C3),
                  Relation.from_pairs(C3, [(0, 0), (1, 1), (2, 2), (0, 1)])):
            with pytest.raises(ValidationError, match="^relation is not an equivalence relation$"):
                partition_topology(r)

    def test_partition_topology_is_the_unions_of_classes(self):
        for n in range(1, 5):
            for e in enumerate_equivalences(n):
                classes = set(e.rows)
                unions = {sum(c for i, c in enumerate(classes) if s >> i & 1)
                          for s in range(1 << len(classes))}
                assert partition_topology(e).opens == unions


class TestUniformizable:
    def test_discrete(self):
        ok, witness = is_uniformizable_na(discrete_topology(3))
        assert ok
        assert Relation.identity(Carrier(3)) in witness.entourages

    def test_sierpinski(self):
        ok, witness = is_uniformizable_na(sierpinski_topology())
        assert not ok and witness is None

    def test_partition_topologies_n_le_4(self):
        for n in range(1, 5):
            for e in enumerate_equivalences(n):
                ok, witness = is_uniformizable_na(partition_topology(e))
                assert ok
                assert induced_topology(witness) == partition_topology(e)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_verdicts_agree_exhaustively(self, n):
        satisfying = 0
        for t in enumerate_topologies(n):
            ta, _ = satisfies_TA(t)
            zd = is_zero_dimensional(t)
            un, _ = is_uniformizable_na(t)
            assert ta == zd == un
            satisfying += ta
        assert satisfying == bell_number(n)


class TestConnectedCounterexamples:
    def test_sierpinski_fails_everything(self):
        t = sierpinski_topology()
        assert satisfies_TA(t) == (False, ((0,), 1))
        assert not is_zero_dimensional(t)
        assert not is_uniformizable_na(t)[0]

    def test_three_point_chain_fails_everything(self):
        t = chain_topology(3)
        assert t.opens == frozenset({0b000, 0b001, 0b011, 0b111})
        assert not satisfies_TA(t)[0]
        assert not is_zero_dimensional(t)
        assert not is_uniformizable_na(t)[0]


class TestJson:
    def test_canonical_order(self):
        t = sierpinski_topology()
        assert t.to_json() == {"n": 2, "opens": [[], [1], [0, 1]]}

    def test_round_trip(self):
        t = chain_topology(3)
        assert FiniteTopology.from_json(t.to_json()) == t

    def test_bad_opens(self):
        with pytest.raises(ValueError, match="opens"):
            FiniteTopology.from_json({"n": 2, "opens": "x"})
