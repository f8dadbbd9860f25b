"""The enumerators and sweeps themselves, cross-checked two ways each."""

import hashlib
import random
import time
from itertools import combinations

import pytest

from ultrauniform.core import Carrier, Relation, is_equivalence
from ultrauniform.jsonio import dumps
from ultrauniform.oracle import (
    DEFAULT_SEED,
    SWEEPS,
    SweepReport,
    bell_number,
    enumerate_covers,
    enumerate_equivalences,
    enumerate_preorder_topologies,
    enumerate_relations,
    enumerate_topologies,
    enumerate_uniformities,
    enumerate_valid_cover_bases,
    is_uniformity_filter,
    random_cover_basis,
    random_equivalence,
    random_equivalence_basis,
    random_ultrametric,
    random_valid_basis,
    slow_validate_diagonal,
    theorem_sweep,
)
from ultrauniform.oracle import (
    _check_separation,
    _partial_orders,
    check_pseudometric,
    check_strong_triangle,
)
from ultrauniform.topology import validate_topology
from ultrauniform.uniformity import DiagonalBasis, validate_cover, validate_diagonal


class TestCounts:
    def test_partition_counts_match_bell_recurrence(self):
        # two independent routes: direct enumeration vs the triangle recurrence
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_equivalences(n)) == bell_number(n)

    def test_partitions_are_distinct(self):
        seen = set(enumerate_equivalences(4))
        assert len(seen) == 15

    def test_topology_counts_two_methods_agree(self):
        # the filter over all families against the preorder construction
        for n in range(1, 5):
            direct = {t.opens for t in enumerate_topologies(n)}
            built = [t.opens for t in enumerate_preorder_topologies(n)]
            assert len(built) == len(set(built))
            assert direct == set(built)

    def test_preorder_topologies_n5(self):
        started = time.perf_counter()
        built = list(enumerate_preorder_topologies(5))
        assert len(built) == len({t.opens for t in built}) == 6942
        assert all(validate_topology(t).valid for t in built)
        assert time.perf_counter() - started < 10

    def test_partial_order_counts(self):
        # labelled posets on 0..5 points (OEIS A001035)
        assert [sum(1 for _ in _partial_orders(k)) for k in range(6)] == [1, 1, 3, 19, 219, 4231]

    def test_topology_counts_documented_values(self):
        # labeled topologies on 1..4 points; the external count table is
        # only a cross-check, both in-repo methods derive these numbers
        counts = [sum(1 for _ in enumerate_topologies(n)) for n in range(1, 5)]
        assert counts == [1, 4, 29, 355]

    def test_relation_count(self):
        assert sum(1 for _ in enumerate_relations(2)) == 16

    def test_uniformity_count_matches_direct_filter_check(self):
        # a principal filter of relations on 3 points is a uniformity
        # exactly when the uniformity axioms hold for all its members;
        # count those minima directly and compare with the enumerator
        valid_minima = [r for r in enumerate_relations(3) if is_uniformity_filter(r)]
        assert len(valid_minima) == sum(1 for _ in enumerate_uniformities(3))
        assert all(is_equivalence(r) for r in valid_minima)

    def test_uniformities_n4(self):
        bases = list(enumerate_uniformities(4))
        assert len(bases) == 15
        assert all(validate_diagonal(b).valid for b in bases)

    def test_cover_count_n2(self):
        assert sum(1 for _ in enumerate_covers(2)) == 5

    def test_valid_cover_bases_all_validate(self):
        for cb in enumerate_valid_cover_bases(3, max_covers=2):
            assert validate_cover(cb).valid


class TestEnumerateStructures:
    def test_exhaustive_topology_cap(self):
        with pytest.raises(ValueError, match="capped"):
            list(enumerate_topologies(5))


class TestRandomGenerators:
    def test_valid_bases_are_valid(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            b = random_valid_basis(rng, rng.randint(2, 8))
            assert validate_diagonal(b).valid

    def test_cover_bases_are_valid(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            cb = random_cover_basis(rng, rng.randint(2, 8))
            assert validate_cover(cb).valid

    def test_ultrametrics_are_ultrametrics(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(100):
            d = random_ultrametric(rng, rng.randint(2, 8))
            assert check_pseudometric(d.dist)
            assert check_strong_triangle(d.dist)

    def test_deterministic_given_seed(self):
        a = [random_valid_basis(random.Random(9), 5) for _ in range(5)]
        b = [random_valid_basis(random.Random(9), 5) for _ in range(5)]
        assert a == b

    def test_seeded_draws_and_enumeration_order_are_pinned(self):
        # seeded sweeps and tests draw from these generators, so a draw or an order may not
        # move: each takes the classes of an equivalence in order of their least points
        rng = random.Random(24)
        draws = hashlib.sha256()
        for _ in range(60):
            n = rng.randint(1, 8)
            for draw in (random_equivalence, random_cover_basis, random_equivalence_basis,
                         random_valid_basis):
                draws.update(dumps(draw(rng, n)).encode())
        assert draws.hexdigest() == (
            "9a0ed933d68f093ee5691b7209671959e398e24b8f948ab8b2c7d6bfb7b285b7"
        )
        orders = hashlib.sha256()
        for n in range(1, 5):
            for structure in (*enumerate_equivalences(n), *enumerate_preorder_topologies(n)):
                orders.update(dumps(structure).encode())
        assert orders.hexdigest() == (
            "b4767e8df17ede5042077e227602ea3c0c6d08afb841c808164a403bc3874101"
        )


class TestSweeps:
    def test_separation_sweep_n3(self):
        report = theorem_sweep("T3.2", 3)
        assert report.checked == 29
        assert report.satisfying == 5
        assert report.discrepancies == 0
        assert report.first_counterexample is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_separation_sweep_equals_the_filtered_one(self, n):
        # the sweep enumerates preorders; the filter over all families must
        # give the same report, byte for byte
        checked = satisfying = 0
        for t in enumerate_topologies(n):
            ta, problem = _check_separation(t)
            assert problem is None
            checked += 1
            satisfying += ta
        expected = SweepReport("T3.2", n, checked, satisfying, 0, None, None)
        report = theorem_sweep("T3.2", n)
        assert dumps(report) == dumps(expected)

    def test_separation_check_on_every_preorder_topology_n5(self):
        # the CLI caps the sweep at n = 4; the check itself runs past the cap
        started = time.perf_counter()
        checked = satisfying = 0
        for t in enumerate_preorder_topologies(5):
            holds, problem = SWEEPS["T3.2"].check(t)
            assert problem is None, t.to_json()
            checked += 1
            satisfying += holds
        assert (checked, satisfying) == (6942, bell_number(5)) == (6942, 52)
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("n", [0, 5])
    def test_separation_sweep_cap_and_empty_carrier(self, n):
        message = "capped at n=4" if n else "positive number of points"
        with pytest.raises(ValueError, match=message):
            theorem_sweep("T3.2", n)

    def test_representations_sweep_exhaustive(self):
        report = theorem_sweep("T2.4", 3)
        # every basis of at most three of the 5 equivalences on 3 points
        assert report.checked == 5 + 10 + 10
        assert report.discrepancies == 0

    def test_metrization_sweep_exhaustive(self):
        report = theorem_sweep("T4.1", 3)
        # every valid basis of at most two of the 64 reflexive relations on 3 points
        reflexive = [r for r in enumerate_relations(3) if r.is_reflexive()]
        bases = [[r] for r in reflexive] + [list(pair) for pair in combinations(reflexive, 2)]
        valid = [es for es in bases if slow_validate_diagonal(DiagonalBasis(Carrier(3), es)).valid]
        assert report.checked == report.satisfying == len(valid) == 489
        assert report.discrepancies == 0
        assert any(not all(map(is_equivalence, es)) for es in valid)

    def test_roundtrip_sweep_n2(self):
        report = theorem_sweep("R2.1-roundtrip", 2)
        # 2 uniformities plus the valid cover bases of at most two covers
        assert report.checked == 17
        assert report.satisfying == 17
        assert report.discrepancies == 0

    def test_sampled_sweeps_deterministic(self):
        r1 = theorem_sweep("T2.4", 6, trials=25, seed=11)
        r2 = theorem_sweep("T2.4", 6, trials=25, seed=11)
        assert (r1.checked, r1.satisfying, r1.discrepancies, r1.seed) == (
            r2.checked,
            r2.satisfying,
            r2.discrepancies,
            r2.seed,
        )
        assert r1.discrepancies == 0

    def test_aliases(self):
        report = theorem_sweep("separation", 2)
        assert report.theorem == "T3.2"

    def test_trials_need_a_seed(self):
        with pytest.raises(ValueError, match="only to a seeded sweep"):
            theorem_sweep("T2.4", 3, trials=5)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            theorem_sweep("T9.9", 2)

    def test_report_json_shape(self):
        report = theorem_sweep("T3.2", 2)
        obj = report.to_json()
        assert set(obj) == {
            "theorem",
            "n",
            "checked",
            "satisfying",
            "discrepancies",
            "first_counterexample",
            "seed",
        }


class TestSlowCheckers:
    def test_strong_triangle_rejects_euclidean(self):
        from fractions import Fraction

        dist = [
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(2), Fraction(1), Fraction(0)],
        ]
        assert check_pseudometric(dist)
        assert not check_strong_triangle(dist)

    def test_filter_check_rejects_non_transitive_minimum(self):
        from ultrauniform.core import Carrier

        pseudo = Relation.from_pairs(
            Carrier(3), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
        )
        assert not is_uniformity_filter(pseudo)
