"""Ultrametric checks, ball relations, chains, and metrization."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, or_
from pathlib import Path

import pytest

from ultrauniform.core import (
    Carrier,
    CarrierMismatch,
    Relation,
    ValidationError,
    bits,
    is_equivalence,
)
from ultrauniform.jsonio import dumps
from ultrauniform.oracle import (
    check_pseudometric,
    check_strong_triangle,
    enumerate_relations,
    enumerate_uniformities,
    enumerate_valid_cover_bases,
    eq_closure,
    random_cover_basis,
    random_equivalence,
    random_ultrametric,
    random_valid_basis,
    slow_ball_relation,
    slow_basis_from_system,
    slow_finest_refinement,
    slow_intersection_closure,
)
from ultrauniform.oracle import _metrization_instances
from ultrauniform.pseudometric import (
    Chain,
    Pseudometric,
    PseudometricSystem,
    ball_relation,
    basis_from_system,
    chain_pm,
    descending_chain,
    is_na,
    metrize,
    sup_pm,
    system_from_na_basis,
    thresholds,
)
from ultrauniform.pseudometric import _is_ultrametric, _level_balls, _pack, _triangle_failure
from ultrauniform.uniformity import (
    Cover,
    CoverBasis,
    DiagonalBasis,
    cover_basis_from_diagonal,
    diagonal_from_cover_basis,
    normalize,
    uniformity_equal,
    validate_diagonal,
)

C3 = Carrier(3)
FULL3 = Relation.full(C3)
ID3 = Relation.identity(C3)
E01 = eq_closure(Relation.from_pairs(C3, [(0, 1)]))
ZERO3 = Pseudometric(C3, [[0] * 3 for _ in range(3)])


def union(r, s):
    """The pairs of r or s, on r's carrier."""
    return Relation(r.carrier, map(or_, r.rows, s.rows))


def pm(table, n=3):
    return Pseudometric(Carrier(n), table)


class TestConstruction:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetric"):
            pm([[0, 1, 1], [2, 0, 1], [1, 1, 0]])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="self-distance"):
            pm([[1, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_rejects_triangle_violation(self):
        with pytest.raises(ValueError, match="triangle"):
            pm([[0, 1, 3], [1, 0, 1], [3, 1, 0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^negative distance at \(0,1\)$"):
            pm([[0, -1, 1], [-1, 0, 1], [1, 1, 0]])

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            pm([[0, "1/0"], ["1/0", 0]], n=2)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_booleans(self, flag):
        with pytest.raises(ValueError, match="not an exact rational"):
            pm([[0, flag], [flag, 0]], n=2)

    @pytest.mark.parametrize(
        "text, value",
        [("3", 3), ("+2/4", Fraction(1, 2)), ("-0", 0), ("007/010", Fraction(7, 10))],
    )
    def test_accepts_integer_and_ratio_strings(self, text, value):
        assert pm([[0, text], [text, 0]], n=2).d(0, 1) == value

    @pytest.mark.parametrize(
        "text", ["0.5", "1e3", "1E-2", "1e1000000", " 1/2", "1 / 2", "1_0", "1/-2", "0x10",
                 "\u0661", "1" * 4301]
    )
    def test_refuses_every_other_string(self, text):
        with pytest.raises(ValueError, match="not an exact rational"):
            pm([[0, text], [text, 0]], n=2)

    def test_refused_long_string_is_cut_short_in_the_message(self):
        with pytest.raises(ValueError) as info:
            pm([[0, "7" * 5000], ["7" * 5000, 0]], n=2)
        message = str(info.value)
        assert message.startswith("field 'dist[0][1]' is not an exact rational: '7777")
        assert message.endswith("... (5002 characters)")
        assert len(message) < 120

    def test_digit_bound_holds_without_the_interpreter_limit(self):
        # with int()'s own digit limit switched off, the pattern still refuses
        # a part of more than 4300 digits before int() sees it
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys\n"
            "from ultrauniform.core import Carrier\n"
            "from ultrauniform.pseudometric import Pseudometric\n"
            "assert sys.get_int_max_str_digits() == 0\n"
            "ok = '9' * 4300\n"
            "assert Pseudometric(Carrier(2), [[0, ok], [ok, 0]]).d(0, 1) == 10**4300 - 1\n"
            "for cell in ['9' * 4301, '1/' + '9' * 4301, '9' * 10**6]:\n"
            "    try:\n"
            "        Pseudometric(Carrier(2), [[0, cell], [cell, 0]])\n"
            "    except ValueError as exc:\n"
            "        assert 'not an exact rational' in str(exc) and len(str(exc)) < 120\n"
            "    else:\n"
            "        raise AssertionError(len(cell))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=0", "-c", probe],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_only_the_grid_is_stored(self):
        d = pm([[0, "1/2", "1/3"], ["1/2", 0, "1/2"], ["1/3", "1/2", 0]])
        # the ultrametric verdict is kept from the check, and the level balls
        # are derived from the grid by the first ball_relation
        assert Pseudometric.__slots__ == ("carrier", "scale", "grid", "_na", "_balls")
        assert not hasattr(d, "_balls")
        assert (d.scale, d.grid) == (6, ((0, 3, 2), (3, 0, 3), (2, 3, 0)))
        assert d.dist[0] == (0, Fraction(1, 2), Fraction(1, 3))
        with pytest.raises(AttributeError):
            d.dist = ()

    def test_accepts_strings_and_fractions(self):
        d = pm([[0, "1/2", Fraction(1, 2)], ["1/2", 0, "1/2"], [Fraction(1, 2), "1/2", 0]])
        assert d.d(0, 1) == Fraction(1, 2)
        assert all(isinstance(v, Fraction) for row in d.dist for v in row)


class TestIsNa:
    def test_zero_metric(self):
        assert is_na(ZERO3)

    def test_zero_one_equivalence_metric(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert is_na(d)

    def test_euclidean_chain_fails(self):
        d = pm([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not is_na(d)

    def test_agrees_with_direct_triple_check(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 6)
            d = random_ultrametric(rng, n)
            assert is_na(d) == check_strong_triangle(d.dist)
            assert check_pseudometric(d.dist)


class TestSup:
    def test_idempotent(self):
        d = pm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert sup_pm([d, d]) == d

    def test_zero_is_neutral(self):
        d = pm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert sup_pm([d, ZERO3]) == d

    def test_preserves_na_on_random_pairs(self):
        # oracle: the direct per-triple strong inequality check
        rng = random.Random(5)
        for _ in range(1000):
            n = rng.randint(2, 8)
            d1 = random_ultrametric(rng, n)
            d2 = random_ultrametric(rng, n)
            s = sup_pm([d1, d2])
            assert check_strong_triangle(s.dist)
            assert is_na(s)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sup_pm([])

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            sup_pm([ZERO3, Pseudometric(Carrier(2), [[0, 0], [0, 0]])])


class TestBallRelation:
    def test_huge_radius_gives_full(self):
        d = pm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert ball_relation(d, 2) == FULL3

    def test_zero_metric_any_radius(self):
        assert ball_relation(ZERO3, Fraction(1, 100)) == FULL3

    def test_threshold_reads_off(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert ball_relation(d, Fraction(1, 2)) == E01

    def test_strictness_at_realized_value(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert ball_relation(d, 1) == E01
        assert ball_relation(d, Fraction(3, 2)) == FULL3

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball_relation(ZERO3, 0)
        with pytest.raises(ValueError):
            ball_relation(ZERO3, Fraction(-1, 2))

    def test_equivalence_for_na_metrics(self):
        rng = random.Random(23)
        for _ in range(300):
            d = random_ultrametric(rng, rng.randint(2, 8))
            for eps in thresholds(d):
                assert is_equivalence(ball_relation(d, eps))


class TestBasisFromSystem:
    def test_single_zero_one_ultrametric(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        system = PseudometricSystem(C3, [d])
        assert set(slow_basis_from_system(system).entourages) == {E01, FULL3}
        assert basis_from_system(system).entourages == (E01,)

    def test_zero_metric(self):
        b = basis_from_system(PseudometricSystem(C3, [ZERO3]))
        assert b.entourages == (FULL3,)

    def test_padic_ball_relations_are_congruences(self):
        from ultrauniform.cli import congruence_relation, padic_pseudometric

        system = PseudometricSystem(Carrier(8), [padic_pseudometric(2, 8)])
        expected = {congruence_relation(8, 2**k) for k in range(4)}
        assert set(slow_basis_from_system(system).entourages) == expected
        assert basis_from_system(system).entourages == (congruence_relation(8, 8),)


def line_pm(carrier, f):
    """The line pseudometric |f(x) - f(y)|; points with equal f are at distance 0."""
    return Pseudometric(carrier, [[abs(a - b) for b in f] for a in f])


def relabelled(dist, pi):
    """The table with each point x renamed pi[x]."""
    moved = [[None] * len(dist) for _ in dist]
    for x, row in enumerate(dist):
        for y, v in enumerate(row):
            moved[pi[x]][pi[y]] = v
    return moved


def random_system(rng, n):
    """1-3 metrics, each a random ultrametric or a line pseudometric repeating points."""
    carrier = Carrier(n)
    metrics = [
        random_ultrametric(rng, n) if rng.random() < 0.5
        else line_pm(carrier, [rng.randint(0, n // 2) for _ in range(n)])
        for _ in range(rng.randint(1, 3))
    ]
    return PseudometricSystem(carrier, metrics)


def seeded(draw, count=160):
    """`count` draws of `draw(rng, n)` from one seed, n going round 1..8."""
    rng = random.Random(2022)
    return [draw(rng, 1 + i % 8) for i in range(count)]


def coresidence(u):
    """The pairs lying together in some set of the cover, pair by pair."""
    return Relation.from_pairs(u.carrier, [(x, y) for m in u.sets for x in bits(m) for y in bits(m)])


PRINCIPAL_SOURCES = {
    "diagonal-every-valid-n3": lambda: [
        b for n in (1, 2, 3)
        for b in itertools.chain(enumerate_uniformities(n), _metrization_instances(n))
    ],
    "cover-every-valid-n3": lambda: [
        cb for n in (1, 2, 3) for cb in enumerate_valid_cover_bases(n)
    ],
    "diagonal-seeded-n8": lambda: seeded(random_valid_basis),
    "cover-seeded-n8": lambda: seeded(random_cover_basis),
    "system-seeded-n8": lambda: seeded(random_system),
}


@pytest.mark.parametrize("source", list(PRINCIPAL_SOURCES))
def test_principal_against_the_oracle_and_across_forms(source):
    """D_min, R_F and Z against their brute-force definitions; each form equals the others."""
    instances = PRINCIPAL_SOURCES[source]()
    assert len(instances) >= 60
    for s in instances:
        p = s.principal()
        if isinstance(s, DiagonalBasis):
            assert p == slow_intersection_closure(s.entourages)[0], s.to_json()
            b = s
        elif isinstance(s, CoverBasis):
            assert p == coresidence(slow_finest_refinement(s)), s.to_json()
            b = diagonal_from_cover_basis(s)
        else:
            assert p == reduce(and_, slow_basis_from_system(s).entourages), s.to_json()
            b = basis_from_system(s)
        assert is_equivalence(p) and b.principal() == p
        assert uniformity_equal(s, b) and uniformity_equal(b, s)
        assert uniformity_equal(b, cover_basis_from_diagonal(b))
        assert uniformity_equal(b, system_from_na_basis(b))
        elsewhere = Carrier(s.n + 1)
        for other in (
            DiagonalBasis(elsewhere, [Relation.full(elsewhere)]),
            CoverBasis(elsewhere, [Cover(elsewhere, [elsewhere.points])]),
            PseudometricSystem(elsewhere, [line_pm(elsewhere, [0] * elsewhere.n)]),
        ):
            with pytest.raises(CarrierMismatch):
                uniformity_equal(s, other)


class TestSystemsAgainstOracle:
    """Systems are decided on their zero set; the oracle enumerates every ball relation."""

    def test_seeded_systems_agree_with_ball_bases(self):
        rng = random.Random(2018)
        outcomes = {True: 0, False: 0}
        for i in range(1500):
            n = rng.randint(1, 9)
            s, t = random_system(rng, n), random_system(rng, n)
            if i % 4 == 1:  # one metric with the same zero set
                t = PseudometricSystem(s.carrier, [sup_pm(s.metrics)])
            elif i % 4 == 2:  # more metrics: the zero set can only shrink
                t = PseudometricSystem(s.carrier, s.metrics + t.metrics)
            slow = [slow_basis_from_system(s), slow_basis_from_system(t)]
            assert basis_from_system(s) == normalize(slow[0]), s.to_json()
            assert basis_from_system(t) == normalize(slow[1]), t.to_json()
            equivalent = uniformity_equal(s, t)
            assert equivalent == uniformity_equal(*slow), (s.to_json(), t.to_json())
            outcomes[equivalent] += 1
        assert min(outcomes.values()) >= 500, outcomes

    def test_zero_set_commutes_with_relabelling(self):
        rng = random.Random(2019)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(1, 9)
            pi = rng.sample(range(n), n)

            def moved(system):
                tables = [relabelled(d.dist, pi) for d in system.metrics]
                return PseudometricSystem(system.carrier, [Pseudometric(system.carrier, t) for t in tables])

            s, t = random_system(rng, n), random_system(rng, n)
            z = basis_from_system(s).entourages[0]
            moved_z = Relation.from_pairs(z.carrier, [(pi[x], pi[y]) for x, y in z.pairs()])
            assert basis_from_system(moved(s)).entourages == (moved_z,)
            equivalent = uniformity_equal(s, t)
            assert uniformity_equal(moved(s), moved(t)) == equivalent
            outcomes[equivalent] += 1
        assert min(outcomes.values()) >= 50, outcomes

    def test_three_line_metrics_n96_within_budget(self):
        # distinct points: every metric is a metric, so Z is the identity;
        # the ball bases hold about 3 * 4500 relations each
        rng = random.Random(96)
        c96 = Carrier(96)
        s, t = (
            PseudometricSystem(c96, [line_pm(c96, rng.sample(range(10**4), 96)) for _ in range(3)])
            for _ in range(2)
        )
        started = time.perf_counter()
        assert uniformity_equal(s, t)
        assert basis_from_system(s).entourages == (Relation.identity(c96),)
        elapsed = time.perf_counter() - started
        assert elapsed < 0.05, f"uniformity_equal and basis_from_system took {elapsed:.3f}s at n=96"


class TestSystemOrder:
    def test_metrics_sorted_as_by_dist(self):
        # the system sorts on integer grids at one scale; that must keep the
        # order of the Fraction tables, here across scales 1, 2, 3 and 6
        rng = random.Random(1906)
        mixed = 0
        for _ in range(3000):
            n = rng.randint(2, 8)
            carrier = Carrier(n)
            metrics = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    metrics.append(random_ultrametric(rng, n))
                else:
                    f, scale = [rng.randint(0, 4) for _ in range(n)], rng.choice((1, 2, 3, 6))
                    metrics.append(pm([[Fraction(abs(a - b), scale) for b in f] for a in f], n))
            system = PseudometricSystem(carrier, metrics)
            assert system.metrics == tuple(sorted(set(metrics), key=lambda m: m.dist))
            mixed += len({m.scale for m in system.metrics}) > 1
        assert mixed >= 1500, mixed


class TestSystemsEquivalent:
    def test_self(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        m = PseudometricSystem(C3, [d])
        assert uniformity_equal(m, m)

    def test_scaling_invariance(self):
        d = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        double = pm([[0, 0, 2], [0, 0, 2], [2, 2, 0]])
        assert uniformity_equal(
            PseudometricSystem(C3, [d]), PseudometricSystem(C3, [double])
        )

    def test_zero_vs_discrete(self):
        c2 = Carrier(2)
        zero = Pseudometric(c2, [[0, 0], [0, 0]])
        disc = Pseudometric(c2, [[0, 1], [1, 0]])
        assert not uniformity_equal(
            PseudometricSystem(c2, [zero]), PseudometricSystem(c2, [disc])
        )

    def test_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            uniformity_equal(
                PseudometricSystem(C3, [ZERO3]),
                PseudometricSystem(Carrier(2), [Pseudometric(Carrier(2), [[0, 0], [0, 0]])]),
            )


class TestChain:
    def test_two_step_chain_distance(self):
        d = chain_pm(Chain(C3, [FULL3, E01]))
        assert d.d(0, 1) == 0
        assert d.d(0, 2) == 1 and d.d(1, 2) == 1

    def test_trivial_chain(self):
        assert chain_pm(Chain(C3, [FULL3])) == ZERO3

    def test_three_step_chain(self):
        d = chain_pm(Chain(C3, [FULL3, E01, ID3]))
        assert d.d(0, 1) == Fraction(1, 2)
        assert d.d(0, 2) == 1 and d.d(1, 2) == 1
        assert all(d.d(x, x) == 0 for x in range(3))
        # independent verification of the strong triangle inequality
        assert check_strong_triangle(d.dist)

    def test_chain_values_are_unit_fractions(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(2, 6)
            carrier = Carrier(n)
            steps = [Relation.full(carrier)]
            for _ in range(rng.randint(0, 3)):
                steps.append(steps[-1] & random_equivalence(rng, n))
            d = chain_pm(Chain(carrier, steps))
            for row in d.dist:
                for v in row:
                    assert v == 0 or v.numerator == 1

    def test_distance_bound_implies_membership(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randint(2, 6)
            carrier = Carrier(n)
            steps = [Relation.full(carrier)]
            for _ in range(rng.randint(1, 3)):
                steps.append(steps[-1] & random_equivalence(rng, n))
            kappa = Chain(carrier, steps)
            d = chain_pm(kappa)
            for x in range(n):
                for y in range(n):
                    for m in range(1, len(steps)):
                        if d.d(x, y) < Fraction(1, m):
                            assert kappa.steps[m].has(x, y)

    def test_rejects_bad_first_step(self):
        with pytest.raises(ValueError, match="full"):
            Chain(C3, [E01])

    def test_rejects_non_descending(self):
        with pytest.raises(ValueError, match="contained"):
            Chain(C3, [FULL3, ID3, E01])

    def test_rejects_non_equivalence_step(self):
        bad = Relation.from_pairs(C3, [(0, 0), (1, 1), (2, 2), (0, 1)])
        with pytest.raises(ValueError, match="equivalence"):
            Chain(C3, [FULL3, bad])

    def test_json_round_trip(self):
        kappa = Chain(C3, [FULL3, E01])
        assert Chain.from_json(kappa.to_json()) == kappa


class TestSystemFromNaBasis:
    def test_indiscrete_gives_zero_metric(self):
        system = system_from_na_basis(DiagonalBasis(C3, [FULL3]))
        assert system.metrics == (ZERO3,)

    def test_single_equivalence(self):
        system = system_from_na_basis(DiagonalBasis(C3, [E01]))
        expected = pm([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert expected in system.metrics

    def test_round_trip_on_random_equivalence_bases(self):
        rng = random.Random(99)
        c4 = Carrier(4)
        for _ in range(500):
            b = DiagonalBasis(
                c4, [random_equivalence(rng, 4) for _ in range(rng.randint(1, 2))]
            )
            system = system_from_na_basis(b)
            assert uniformity_equal(basis_from_system(system), b)

    def test_rejects_invalid_basis(self):
        bad = Relation.from_pairs(
            C3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
        )
        with pytest.raises(ValidationError):
            system_from_na_basis(DiagonalBasis(C3, [bad]))


class TestMetrize:
    def test_single_equivalence(self):
        d = metrize([E01])
        assert d.d(0, 1) == 0
        assert d.d(0, 2) == 1 and d.d(1, 2) == 1

    def test_full_gives_zero(self):
        assert metrize([FULL3]) == ZERO3

    def test_two_relations_hand_recursion(self):
        d = metrize([E01, ID3])
        assert d.d(0, 1) == Fraction(1, 2)
        assert d.d(0, 2) == 1 and d.d(1, 2) == 1
        system = PseudometricSystem(C3, [d])
        assert set(slow_basis_from_system(system).entourages) == {FULL3, E01, ID3}
        assert basis_from_system(system).entourages == (ID3,)

    def test_rejects_non_equivalence(self):
        for es in ([Relation.from_pairs(C3, [(0, 1)])], [union(ID3, Relation.from_pairs(C3, [(0, 1)]))]):
            with pytest.raises(ValidationError, match="^invalid diagonal basis: ") as refused:
                metrize(es)
            expected = validate_diagonal(DiagonalBasis(C3, es))
            assert dumps(refused.value.report.to_json()) == dumps(expected.to_json())

    def test_valid_basis_of_non_equivalences(self):
        # neither member is symmetric, but their intersection E01 is an equivalence
        a = union(E01, Relation.from_pairs(C3, [(0, 2)]))
        b = union(E01, Relation.from_pairs(C3, [(2, 0)]))
        assert descending_chain([a, b]).steps == (FULL3, E01)
        d = metrize([a, b])
        assert d == metrize([E01])
        induced = basis_from_system(PseudometricSystem(C3, [d]))
        assert uniformity_equal(induced, DiagonalBasis(C3, [a, b]))

    def test_every_valid_basis_of_one_or_two_reflexive_relations_n3(self):
        reflexive = [r for r in enumerate_relations(3) if r.is_reflexive()]
        bases = [[r] for r in reflexive] + [list(pair) for pair in itertools.combinations(reflexive, 2)]
        valid = 0
        for es in bases:
            b = DiagonalBasis(C3, es)
            if not validate_diagonal(b).valid:
                continue
            valid += 1
            d = metrize(es)
            assert is_na(d)
            assert uniformity_equal(basis_from_system(PseudometricSystem(C3, [d])), b), es
        assert 0 < valid < len(bases)

    def test_induces_input_uniformity_on_random_bases(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(2, 8)
            carrier = Carrier(n)
            es = [random_equivalence(rng, n) for _ in range(rng.randint(1, 3))]
            d = metrize(es)
            assert is_na(d)
            b = DiagonalBasis(carrier, es + [Relation.full(carrier)])
            assert uniformity_equal(basis_from_system(PseudometricSystem(carrier, [d])), b)

    def test_prepends_full_when_absent(self):
        chain = descending_chain([E01])
        assert chain.steps[0] == FULL3
        assert chain.steps[1] == E01


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def seeded_ultrametrics(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n = draw(st.integers(min_value=2, max_value=7))
    rng = random.Random(seed)
    return random_ultrametric(rng, n), random_ultrametric(rng, n), random_ultrametric(rng, n)


@given(seeded_ultrametrics())
@settings(max_examples=100, deadline=None)
def test_sup_lattice_laws(triple):
    d1, d2, d3 = triple
    assert sup_pm([d1, d2]) == sup_pm([d2, d1])
    assert sup_pm([sup_pm([d1, d2]), d3]) == sup_pm([d1, sup_pm([d2, d3])])
    assert sup_pm([d1, d1]) == d1


@given(seeded_ultrametrics())
@settings(max_examples=100, deadline=None)
def test_balls_shrink_with_radius(triple):
    d = triple[0]
    radii = thresholds(d)
    for small, large in zip(radii, radii[1:]):
        assert ball_relation(d, small).issubset(ball_relation(d, large))


class TestJson:
    def test_round_trip(self):
        d = pm([[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]])
        obj = d.to_json()
        assert obj["dist"][0][1] == "1/2"
        assert Pseudometric.from_json(obj) == d

    def test_system_round_trip(self):
        m = PseudometricSystem(C3, [ZERO3, pm([[0, 1, 1], [1, 0, 1], [1, 1, 0]])])
        assert PseudometricSystem.from_json(m.to_json()) == m

    def test_bad_dist_field(self):
        with pytest.raises(ValueError, match="dist"):
            Pseudometric.from_json({"n": 2, "dist": "nope"})


# The triangle check runs on packed grid rows; these tests hold it to the
# oracle and to a plain (z, x, y > x) scan over Fractions, and hold the
# grid-based values(), thresholds() and to_json() to their Fraction forms.


def reference_triangle_message(dist):
    n = len(dist)
    for z in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                if dist[x][y] > dist[x][z] + dist[z][y]:
                    return f"triangle inequality fails at ({x},{y}) via {z}"
    return None


def assert_kernel_matches_reference(table):
    dist = [[Fraction(v) for v in row] for row in table]
    expected = reference_triangle_message(dist)
    assert check_pseudometric(dist) == (expected is None)
    if expected is None:
        assert Pseudometric(Carrier(len(dist)), dist).dist == tuple(map(tuple, dist))
    else:
        with pytest.raises(ValueError) as exc:
            Pseudometric(Carrier(len(dist)), dist)
        assert str(exc.value) == expected


def shortest_path_metric(rng, n, weight):
    """Path metric of the complete graph with random edge weights."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            d[x][y] = d[y][x] = weight(rng)
    for z in range(n):
        for x in range(n):
            for y in range(n):
                if d[x][z] + d[z][y] < d[x][y]:
                    d[x][y] = d[x][z] + d[z][y]
    return d


def small_weight(rng):
    if rng.random() < 0.1:
        return Fraction(0)
    return Fraction(rng.randint(1, 12), rng.choice([1, 2, 3, 4, 6, 9]))


BIG_DENOMINATORS = [2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353]


def big_weight(rng):
    return Fraction(rng.randint(1, 10**6), rng.choice(BIG_DENOMINATORS))


def break_triangle(rng, d):
    """Copy of d with one pair pushed past a two-step path through some z."""
    n = len(d)
    x, y, z = rng.sample(range(n), 3)
    out = [row[:] for row in d]
    out[x][y] = out[y][x] = d[x][z] + d[z][y] + Fraction(1, rng.randint(1, 5))
    return out


def scramble_entry(rng, d):
    """Copy of d with one pair set to a random value; it may stay a metric."""
    n = len(d)
    x, y = rng.sample(range(n), 2)
    out = [row[:] for row in d]
    top = max(map(max, d)) or Fraction(1)
    out[x][y] = out[y][x] = top * Fraction(rng.randint(0, 8), 4)
    return out


class TestTriangleKernel:
    def test_ultrametrics_and_broken_copies(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(3, 12)
            d = [list(row) for row in random_ultrametric(rng, n).dist]
            assert_kernel_matches_reference(d)
            assert_kernel_matches_reference(break_triangle(rng, d))
            assert_kernel_matches_reference(scramble_entry(rng, d))

    def test_path_metrics_and_broken_copies(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(3, 12)
            d = shortest_path_metric(rng, n, small_weight)
            assert_kernel_matches_reference(d)
            assert_kernel_matches_reference(break_triangle(rng, d))
            assert_kernel_matches_reference(scramble_entry(rng, d))

    def test_random_tables_fail_where_the_scan_fails(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(2, 9)
            d = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    d[x][y] = d[y][x] = rng.randint(0, 6)
            assert_kernel_matches_reference(d)

    def test_single_point_and_all_zero(self):
        assert_kernel_matches_reference([[0]])
        for n in (1, 2, 5, 17):
            assert_kernel_matches_reference([[0] * n for _ in range(n)])
            zero = pm([["0/1"] * n for _ in range(n)], n=n)
            assert zero.values() == [] and thresholds(zero) == [Fraction(1)]

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 16, 31, 32, 63, 64, 65])
    @pytest.mark.parametrize("top", ["2^k-1", "2^k"])
    def test_maximum_at_a_field_width_boundary(self, k, top):
        m = 2**k - 1 if top == "2^k-1" else 2**k
        rng = random.Random(k)
        for _ in range(20):
            n = rng.randint(3, 9)
            d = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    d[x][y] = d[y][x] = rng.choice([m, m, m - 1, (m + 1) // 2, m // 2, 0])
            x, y = rng.sample(range(n), 2)
            d[x][y] = d[y][x] = m
            assert_kernel_matches_reference(d)
        # equality at the maximum passes, one below fails
        a = m // 2
        assert_kernel_matches_reference([[0, a, m], [a, 0, m - a], [m, m - a, 0]])
        assert_kernel_matches_reference([[0, a, m], [a, 0, m - a - 1], [m, m - a - 1, 0]])

    def test_scale_above_two_to_the_64(self):
        rng = random.Random(64)
        largest = 0
        for _ in range(40):
            n = rng.randint(3, 10)
            d = shortest_path_metric(rng, n, big_weight)
            largest = max(largest, Pseudometric(Carrier(n), d).scale)
            assert_kernel_matches_reference(d)
            assert_kernel_matches_reference(break_triangle(rng, d))
            assert_kernel_matches_reference(scramble_entry(rng, d))
        assert largest > 2**64


# A table with at most n distinct values first takes the ultrametric test;
# only a table that fails it (or has more values) is scanned.  These tests
# hold both paths to the reference scan and is_na to the oracle.


@lru_cache(maxsize=1)
def small_tables():
    """Every symmetric table with n <= 4, a zero diagonal and entries in {0..3}."""
    tables = []
    for n in range(1, 5):
        cells = [(x, y) for x in range(n) for y in range(x + 1, n)]
        for entries in itertools.product(range(4), repeat=len(cells)):
            d = [[0] * n for _ in range(n)]
            for (x, y), v in zip(cells, entries):
                d[x][y] = d[y][x] = v
            tables.append(d)
    return tables


def assert_is_na_matches_oracle(dist):
    """is_na against the per-triple oracle; None when dist is no pseudo-metric."""
    dist = [[Fraction(v) for v in row] for row in dist]
    if not check_pseudometric(dist):
        return None
    na = is_na(Pseudometric(Carrier(len(dist)), dist))
    assert na == check_strong_triangle(dist)
    return na


def lower_one_cell(rng, d):
    """Copy of d with one positive distance lowered; usually no longer an ultrametric."""
    n = len(d)
    x, y = rng.choice([(x, y) for x in range(n) for y in range(x + 1, n) if d[x][y] > 0])
    out = [row[:] for row in d]
    out[x][y] = out[y][x] = d[x][y] * Fraction(rng.randint(0, 3), 4)
    return out


class TestUltrametricTest:
    def test_every_small_table_is_decided_as_the_scan_decides(self):
        tables = small_tables()
        assert len(tables) == 4165
        for d in tables:
            assert_kernel_matches_reference(d)

    def test_is_na_matches_the_oracle_on_every_small_pseudometric(self):
        verdicts = [assert_is_na_matches_oracle(d) for d in small_tables()]
        assert verdicts.count(True) > 0 and verdicts.count(False) > 0

    def test_is_na_matches_the_oracle_on_path_metrics_and_broken_copies(self):
        rng = random.Random(7)
        verdicts = []
        for _ in range(150):
            n = rng.randint(3, 12)
            for d in (
                shortest_path_metric(rng, n, small_weight),
                [list(row) for row in random_ultrametric(rng, n).dist],
            ):
                for table in (d, break_triangle(rng, d), scramble_entry(rng, d)):
                    verdicts.append(assert_is_na_matches_oracle(table))
        assert verdicts.count(True) > 100 and verdicts.count(False) > 100

    def test_tables_with_more_values_than_points(self):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(200):
            n = rng.randint(2, 9)
            if rng.random() < 0.5:
                d = shortest_path_metric(rng, n, small_weight)
            else:
                d = [[0] * n for _ in range(n)]
                for x in range(n):
                    for y in range(x + 1, n):
                        d[x][y] = d[y][x] = rng.randint(1, 40)
            if len({v for row in d for v in row}) <= n:
                continue
            assert_kernel_matches_reference(d)
            outcomes.add(check_pseudometric([[Fraction(v) for v in row] for row in d]))
        assert outcomes == {True, False}

    def test_ultrametrics_with_one_cell_lowered(self):
        rng = random.Random(13)
        outcomes = []
        for _ in range(300):
            n = rng.randint(3, 12)
            d = [list(row) for row in random_ultrametric(rng, n).dist]
            if not any(map(any, d)):
                continue
            lowered = lower_one_cell(rng, d)
            assert_kernel_matches_reference(lowered)
            na = assert_is_na_matches_oracle(lowered)
            if not check_strong_triangle(lowered):
                outcomes.append(na is not None)
        # the ultrametric test fails on these, so the scan accepts or refuses them
        assert outcomes.count(True) > 20 and outcomes.count(False) > 20


def seeded_tables():
    from ultrauniform.cli import padic_pseudometric

    rng = random.Random(5)
    tables = [pm([[0]], n=1), ZERO3, padic_pseudometric(2, 16), padic_pseudometric(3, 27)]
    for _ in range(40):
        n = rng.randint(2, 10)
        tables.append(random_ultrametric(rng, n))
        tables.append(Pseudometric(Carrier(n), shortest_path_metric(rng, n, small_weight)))
        tables.append(Pseudometric(Carrier(n), shortest_path_metric(rng, n, big_weight)))
        tables.append(sup_pm([random_ultrametric(rng, n), random_ultrametric(rng, n)]))
    return tables


class TestGridReadOuts:
    def test_values_and_thresholds_equal_fraction_forms(self):
        for d in seeded_tables():
            expected = sorted({v for row in d.dist for v in row if v > 0})
            assert d.values() == expected
            assert all(type(v) is Fraction for v in d.values())
            radii = expected + [expected[-1] + 1] if expected else [Fraction(1)]
            assert thresholds(d) == radii

    def test_to_json_equals_fraction_rendering_byte_for_byte(self):
        import json

        from ultrauniform.jsonio import dumps

        for d in seeded_tables():
            dist = [[f"{v.numerator}/{v.denominator}" for v in row] for row in d.dist]
            assert d.to_json() == {"n": d.n, "dist": dist}
            expected = json.dumps({"n": d.n, "dist": dist}, indent=2, sort_keys=True) + "\n"
            assert dumps(d) == expected
            assert Pseudometric.from_json(d.to_json()) == d


# The library's own builders write integer grids; each result must be the
# table that the public constructor builds from Fractions computed here.


def assert_same_table(built, reference):
    import json

    from ultrauniform.jsonio import dumps

    expected = Pseudometric(Carrier(len(reference)), reference)
    assert built == expected and expected == built
    assert hash(built) == hash(expected)
    assert (built.scale, built.grid) == (expected.scale, expected.grid)
    assert built.values() == expected.values()
    assert built.dist == expected.dist == tuple(map(tuple, reference))
    assert dumps(built) == dumps(expected)
    dist = [[f"{v.numerator}/{v.denominator}" for v in row] for row in reference]
    assert dumps(built) == json.dumps({"n": len(dist), "dist": dist}, indent=2, sort_keys=True) + "\n"


def ultrametric_fractions(rng, n):
    return [list(row) for row in random_ultrametric(rng, n).dist]


def reference_chain_distances(steps, n):
    """Distance 0 inside the last step, else 1/m for the largest m with the pair in step m."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and not steps[-1].has(x, y):
                m = max(i for i in range(1, len(steps) + 1) if steps[i - 1].has(x, y))
                dist[x][y] = Fraction(1, m)
    return dist


def random_chain_steps(rng, n, depth):
    carrier = Carrier(n)
    steps = [Relation.full(carrier)]
    for _ in range(depth):
        steps.append(steps[-1] & random_equivalence(rng, n))
    return steps


class TestGridBuilders:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_sup_matches_fraction_maximum(self, count):
        rng = random.Random(40 + count)
        makers = [
            random_ultrametric,
            lambda rng, n: chain_pm(Chain(Carrier(n), random_chain_steps(rng, n, rng.randint(0, 4)))),
            lambda rng, n: pm(shortest_path_metric(rng, n, small_weight), n=n),
            lambda rng, n: pm(shortest_path_metric(rng, n, big_weight), n=n),
        ]
        verdicts = set()
        for _ in range(1000 // (3 * count) + 1):  # about 1000 tables over the three counts
            n = rng.randint(1, 9)
            ds = [rng.choice(makers)(rng, n) for _ in range(count)]
            reference = [[max(d.dist[x][y] for d in ds) for y in range(n)] for x in range(n)]
            s = sup_pm(ds)
            assert_same_table(s, reference)
            # a sup of ultrametrics is one by proof; any other sup keeps the test's verdict
            assert is_na(s) == check_strong_triangle(reference)
            verdicts.add(is_na(s))
        assert verdicts == {True, False}

    def test_sup_keeps_the_scale_of_the_values_it_takes(self):
        halves = [[Fraction(0) if x == y else Fraction(1, 2) for y in range(3)] for x in range(3)]
        thirds = [[Fraction(0) if x == y else Fraction(1, 3) for y in range(3)] for x in range(3)]
        s = sup_pm([pm(halves), pm(thirds)])
        assert s.scale == 2
        assert_same_table(s, halves)
        assert_same_table(sup_pm([pm(thirds), pm(halves)]), halves)
        zero = [[Fraction(0)] * 3 for _ in range(3)]
        assert_same_table(sup_pm([ZERO3, pm(zero)]), zero)

    def test_chain_pm_matches_unit_fractions(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(1, 8)
            steps = random_chain_steps(rng, n, rng.randint(0, 5))
            d = chain_pm(Chain(Carrier(n), steps))
            assert_same_table(d, reference_chain_distances(steps, n))

    def test_chain_pm_skipping_depths_is_in_lowest_terms(self):
        # depths 1 and 2 only, over a chain of length 4: scale 6 reduces to 2
        steps = [FULL3, E01, E01, E01]
        d = chain_pm(Chain(C3, steps))
        assert d.scale == 1
        assert_same_table(d, reference_chain_distances(steps, 3))
        c4 = Carrier(4)
        e = eq_closure(Relation.from_pairs(c4, [(0, 1), (2, 3)]))
        f = eq_closure(Relation.from_pairs(c4, [(0, 1)]))
        steps = [Relation.full(c4), e, e, f, f]
        d = chain_pm(Chain(c4, steps))
        assert d.scale == 3
        assert_same_table(d, reference_chain_distances(steps, 4))

    def test_metrize_matches_cumulative_chain(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 8)
            carrier = Carrier(n)
            es = [random_equivalence(rng, n) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.2:
                es.insert(0, Relation.full(carrier))
            steps = [Relation.full(carrier)]
            for e in es[1:] if es[0] == steps[0] else es:
                steps.append(steps[-1] & e)
            assert_same_table(metrize(es), reference_chain_distances(steps, n))


# Distinct distance cells are parsed once when every cell is an exact str or
# int; every other table is parsed cell by cell.  Both give the same table.


class TestDistinctCellParse:
    def test_string_table_equals_the_fraction_table(self):
        for d in seeded_tables():
            dist = d.to_json()["dist"]
            assert Pseudometric(d.carrier, dist) == d
            ints = [[v.numerator if v.denominator == 1 else f"{v}" for v in row] for row in d.dist]
            assert Pseudometric(d.carrier, ints) == d

    def test_equal_values_in_other_spellings_share_no_parse_yet_agree(self):
        d = pm([[0, "1/2", "2/4"], ["1/2", 0, "+3/6"], ["2/4", "+3/6", "0/7"]])
        assert (d.scale, d.grid) == (2, ((0, 1, 1), (1, 0, 1), (1, 1, 0)))

    @pytest.mark.parametrize("flag, twin", [(True, 1), (False, 0), (True, "1"), (False, "0")])
    def test_a_boolean_next_to_its_integer_twin_is_refused_by_its_cell(self, flag, twin):
        table = [[0, twin, twin], [twin, 0, flag], [twin, flag, 0]]
        with pytest.raises(ValueError, match=r"field 'dist\[1\]\[2\]' is not an exact rational"):
            pm(table)

    def test_first_refused_cell_is_named_in_row_order(self):
        table = [[0, "1", "1"], ["1", 0, "1/0"], ["1", "x", 0]]
        with pytest.raises(ValueError, match=r"field 'dist\[1\]\[2\]' has a zero denominator"):
            pm(table)

    def test_string_subclass_cells_are_parsed_one_by_one(self):
        class Loose(str):
            def __eq__(self, other):
                return True

            def __hash__(self):
                return hash("1/2")

        with pytest.raises(ValueError, match=r"field 'dist\[0\]\[1\]' is not an exact rational"):
            pm([[0, Loose("x"), "1/2"], [Loose("x"), 0, "1/2"], ["1/2", "1/2", 0]])
        d = pm([[0, Loose("1/2"), "1/2"], [Loose("1/2"), 0, "1/2"], ["1/2", "1/2", 0]])
        assert d == pm([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])

    def test_mixed_fraction_and_string_cells(self):
        half = Fraction(1, 2)
        d = pm([[0, half, "1/3"], [half, 0, "1/2"], ["1/3", Fraction(2, 4), 0]])
        assert d.dist == ((0, half, Fraction(1, 3)), (half, 0, half), (Fraction(1, 3), half, 0))


# A table of Fractions or mixed cells is parsed cell by cell, whether its cells
# share Fraction objects or not; the all-string table of the same distances is
# the reference.


def three_spellings(rng, dist):
    """dist with shared Fraction objects, with a fresh Fraction per cell, and with mixed cells."""
    shared = {}
    shared_table = [[shared.setdefault(v, v) for v in row] for row in dist]
    fresh = [[Fraction(v.numerator, v.denominator) for v in row] for row in dist]

    def spelled(v):
        k = rng.randint(1, 3)
        return rng.choice([
            Fraction(v), f"{v.numerator * k}/{v.denominator * k}",
            v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}",
        ])

    mixed = [[spelled(v) for v in row] for row in dist]
    return shared_table, fresh, mixed


def seeded_fraction_tables(rng):
    for _ in range(60):
        n = rng.randint(1, 12)
        yield [list(row) for row in random_ultrametric(rng, n).dist]
        f = [Fraction(rng.randint(0, 20), rng.randint(1, 6)) for _ in range(n)]
        yield [[abs(a - b) for b in f] for a in f]


class TestFractionAndMixedTables:
    def test_three_spellings_give_the_string_table(self):
        rng = random.Random(1989)
        kinds = set()
        for dist in seeded_fraction_tables(rng):
            n = len(dist)
            text = [[f"{v.numerator}/{v.denominator}" for v in row] for row in dist]
            expected = pm(text, n=n)
            shared, fresh, mixed = three_spellings(rng, dist)
            assert len({id(v) for row in shared for v in row}) == len(set().union(*dist))
            assert len({id(v) for row in fresh for v in row}) == n * n
            kinds |= {type(v) for row in mixed for v in row}
            for table in (shared, fresh, mixed):
                d = pm(table, n=n)
                assert (d.scale, d.grid) == (expected.scale, expected.grid)
        assert kinds == {Fraction, int, str}

    def test_a_true_cell_is_refused_by_its_cell(self):
        rng = random.Random(1990)
        for dist in seeded_fraction_tables(rng):
            n = len(dist)
            if n < 2:
                continue
            x, y = sorted(rng.sample(range(n), 2))
            for table in three_spellings(rng, dist):
                table[x][y] = True
                with pytest.raises(ValueError, match=rf"field 'dist\[{x}\]\[{y}\]' is not an"):
                    pm(table, n=n)


# A table of exact Fractions goes straight to the grid, reading each cell's
# slots; every other mix of kinds goes through `_ratio`.  The all-string
# table of the same distances is the reference, refusals included.


def parse_outcome(table, n):
    """(scale, grid) of the parsed table, or the message it is refused with."""
    try:
        d = pm(table, n=n)
    except ValueError as exc:
        return str(exc)
    return d.scale, d.grid


def seeded_parse_tables(rng, count):
    """`count` Fraction tables: ultrametrics, path metrics, and broken, negative or asymmetric copies."""
    makers = [
        ultrametric_fractions,
        lambda rng, n: shortest_path_metric(rng, n, small_weight),
        lambda rng, n: shortest_path_metric(rng, n, big_weight),
    ]
    for _ in range(count):
        n = rng.randint(1, 12)
        dist = rng.choice(makers)(rng, n)
        if n > 1 and rng.random() < 0.3:
            x, y = rng.sample(range(n), 2)
            dist[x][y] = rng.choice([-dist[x][y] - 1, dist[x][y] + Fraction(1, 5), Fraction(10**6)])
        yield dist


class TestFractionGridParse:
    def test_shared_and_fresh_fractions_parse_as_their_strings(self):
        rng = random.Random(2601)
        refused = 0
        for dist in seeded_parse_tables(rng, 1000):
            n = len(dist)
            text = [[f"{v.numerator}/{v.denominator}" for v in row] for row in dist]
            expected = parse_outcome(text, n)
            shared, fresh, _ = three_spellings(rng, dist)
            assert parse_outcome(shared, n) == expected
            assert parse_outcome(fresh, n) == expected
            refused += isinstance(expected, str)
        assert 100 < refused < 500

    def test_the_fraction_parse_reads_the_private_slots(self):
        from ultrauniform.pseudometric import _DEN, _NUM

        assert Fraction.__slots__ == ("_numerator", "_denominator")
        for v in [Fraction(0), Fraction(-3, 6), Fraction(7), Fraction(2**70 + 1, 3**40)]:
            assert (_NUM(v), _DEN(v)) == (v.numerator, v.denominator)

    def test_other_mixes_of_kinds_go_through_ratio(self, monkeypatch):
        import ultrauniform.pseudometric as pseudometric

        calls = []
        ratio = pseudometric._ratio
        monkeypatch.setattr(pseudometric, "_ratio", lambda v: calls.append(v) or ratio(v))

        class Sub(Fraction):
            pass

        half = Fraction(1, 2)
        pm([[Fraction(0), half, half], [half, Fraction(0), half], [half, half, Fraction(0)]])
        assert calls == []
        for zero, far in ([Sub(0), Sub(1, 2)], [0, half], [Sub(0), half], [Fraction(0), 1]):
            table = [[zero, far, far], [far, zero, far], [far, far, zero]]
            outcome = parse_outcome(table, 3)
            assert len(calls) == 9
            assert outcome == parse_outcome([[str(Fraction(v)) for v in row] for row in table], 3)
            calls.clear()

    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0])
    @pytest.mark.parametrize("other", [Fraction(1, 2), 1, "1/2"])
    def test_bools_and_floats_next_to_fractions_are_refused_by_their_cell(self, bad, other):
        table = [[Fraction(0), other, Fraction(1, 2)], [other, Fraction(0), bad], [Fraction(1, 2), bad, 0]]
        with pytest.raises(ValueError, match=rf"field 'dist\[1\]\[2\]' is not an exact rational: {bad!r}$"):
            pm(table)


class TestUltrametricTestMemory:
    def test_line_metric_at_400_points_peaks_under_10_mb(self):
        import tracemalloc

        n = 400
        dist = [[abs(a - b) for b in range(n)] for a in range(n)]
        tracemalloc.start()
        try:
            d = Pseudometric(Carrier(n), dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not is_na(d)
        assert peak < 10 * 10**6

    def test_an_ultrametric_has_at_most_2n_minus_1_distinct_balls(self):
        rng = random.Random(2620)
        for _ in range(200):
            n = rng.randint(1, 16)
            d = random_ultrametric(rng, n)
            balls = {masks for _, masks in _level_balls(d.grid)}
            assert len(set().union(*balls)) <= 2 * n - 1


# Ball relations are read from each table's level balls; these tests hold
# them to the per-cell comparison of the oracle.


def radii_around(d):
    """Radii below, at, between and above the values of d, and off its denominator."""
    values = d.values()
    radii = [Fraction(1, 3 * d.scale), Fraction(1, 7 * d.scale + 1)]
    for lo, hi in zip([Fraction(0)] + values, values):
        radii += [hi, (lo + hi) / 2, hi - Fraction(1, 3 * d.scale), hi + Fraction(1, 3 * d.scale)]
    top = values[-1] if values else Fraction(1)
    radii += [top + 1, top * 3, Fraction(1, 3), Fraction(2, 3), Fraction(5, 3)]
    return [r for r in radii if r > 0]


def assert_balls_match_oracle(d):
    for eps in radii_around(d):
        assert ball_relation(d, eps) == slow_ball_relation(d, eps), (d.to_json(), eps)


def non_ultrametric_table(rng, n):
    """A path metric with a few more distinct values than points, or a sup of ultrametrics."""
    if rng.random() < 0.5:
        return Pseudometric(Carrier(n), shortest_path_metric(rng, n, small_weight))
    return sup_pm([random_ultrametric(rng, n), random_ultrametric(rng, n)])


class TestLevelBalls:
    def test_every_small_table_matches_the_oracle(self):
        metrics = 0
        for table in small_tables():
            try:
                d = pm(table, n=len(table))
                metrics += 1
            except ValueError:  # balls read any symmetric grid; build it unchecked
                d = Pseudometric.__new__(Pseudometric)
                d.carrier, d.scale, d.grid = Carrier(len(table)), 1, tuple(map(tuple, table))
            assert_balls_match_oracle(d)
        assert metrics == 687

    def test_seeded_ultrametrics_and_other_tables_up_to_32_points(self):
        rng = random.Random(32)
        kinds = set()
        for _ in range(60):
            n = rng.choice([1, 2, 3, 5, 8, 13, 21, 32])
            for d in (random_ultrametric(rng, n), non_ultrametric_table(rng, n)):
                kinds.add(is_na(d))
                assert_balls_match_oracle(d)
        assert kinds == {True, False}

    def test_padic_tables_and_radii_off_the_scale(self):
        from ultrauniform.cli import padic_pseudometric

        for p, size in [(2, 16), (2, 32), (3, 27), (5, 30)]:
            d = padic_pseudometric(p, size)
            assert_balls_match_oracle(d)
        d = padic_pseudometric(2, 8)  # scale 4: distances 1/4, 1/2, 1
        assert d.scale == 4
        assert ball_relation(d, Fraction(1, 3)) == slow_ball_relation(d, Fraction(1, 3))
        assert ball_relation(d, Fraction(1, 3)) == ball_relation(d, Fraction(1, 2))

    def test_each_table_keeps_its_own_balls(self):
        rng = random.Random(4)
        tables = [non_ultrametric_table(rng, rng.randint(2, 12)) for _ in range(12)]
        tables += [random_ultrametric(rng, rng.randint(2, 12)) for _ in range(12)]
        kept = {}
        for _ in range(3):  # the tables' radii interleaved, each table read again
            order = list(range(len(tables)))
            rng.shuffle(order)
            for i in order:
                d = tables[i]
                for eps in thresholds(d) + [Fraction(1, 3)]:
                    assert ball_relation(d, eps) == slow_ball_relation(d, eps)
                assert kept.setdefault(i, d._balls) is d._balls  # built once per table
        assert all(d._balls == _level_balls(d.grid) for d in tables)
        fresh = Pseudometric._from_grid(tables[0].carrier, tables[0].grid, tables[0].scale)
        assert fresh == tables[0]
        assert not hasattr(fresh, "_balls")

    def test_level_balls_grow_and_end_at_the_carrier(self):
        rng = random.Random(6)
        for _ in range(40):
            d = non_ultrametric_table(rng, rng.randint(1, 10))
            for x, (values, masks) in enumerate(_level_balls(d.grid)):
                assert list(values) == sorted(set(d.grid[x])) and values[0] == 0
                assert all(a & ~b == 0 for a, b in zip(masks, masks[1:]))
                assert masks[-1] == (1 << d.n) - 1 and masks[0] >> x & 1


# Rows are packed in fields of 8, 16, 32 or 64 bits from bytes or an array;
# only larger entries take the string of binary digits.  The string packer
# at the least width is the reference for widths, verdicts and messages.


def string_pack(grid, values, w=None):
    """Rows packed through strings of binary digits, column 0 in the lowest field."""
    if w is None:
        w = (2 * max(values)).bit_length() + 1
    spec = f"0{w}b"
    return w, [int("".join(format(v, spec) for v in reversed(row)), 2) for row in grid]


def string_packed_message(grid):
    """The constructor's verdict on a nonnegative symmetric grid, from the string packer."""
    values = set().union(*grid)
    w, packed = string_pack(grid, values)
    if len(values) <= len(grid) and _is_ultrametric(grid, w, packed):
        return None
    failure = _triangle_failure(grid, w, packed)
    if failure is None:
        return None
    z, x, y = failure
    return f"triangle inequality fails at ({x},{y}) via {z}"


# (largest entry, field width it packs in)
FIELD_EDGES = [
    (1, 8), (63, 8), (64, 16), (2**14 - 1, 16), (2**14, 32), (2**30 - 1, 32), (2**30, 64),
    (2**62 - 1, 64), (2**62, 65), (2**64, 67), (2**100 + 1, 103),
]


class TestPacking:
    @pytest.mark.parametrize("top, width", FIELD_EDGES, ids=[f"{top:#x}" for top, _ in FIELD_EDGES])
    def test_widths_verdicts_and_messages_match_the_string_packer(self, top, width):
        rng = random.Random(top)
        verdicts = set()
        for _ in range(40):
            n = rng.randint(2, 9)
            grid = [[0] * n for _ in range(n)]
            for x in range(n):
                for y in range(x + 1, n):
                    v = rng.choice([top, top, top - 1, top // 2, (top + 1) // 2, 1, 0])
                    grid[x][y] = grid[y][x] = max(v, 0)
            grid[0][1] = grid[1][0] = top
            grid = tuple(map(tuple, grid))
            values = set().union(*grid)
            w, packed = _pack(grid, values)
            assert w == width
            assert packed == string_pack(grid, values, w)[1]
            ref_w, ref = string_pack(grid, values)
            assert _is_ultrametric(grid, w, packed) == _is_ultrametric(grid, ref_w, ref)
            assert _triangle_failure(grid, w, packed) == _triangle_failure(grid, ref_w, ref)
            expected = string_packed_message(grid)
            verdicts.add(expected is None)
            if expected is None:
                assert Pseudometric._from_grid(Carrier(n), grid, 1).grid == grid
            else:
                with pytest.raises(ValueError) as exc:
                    Pseudometric._from_grid(Carrier(n), grid, 1)
                assert str(exc.value) == expected
            if top < 2**20:
                assert_kernel_matches_reference([list(row) for row in grid])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("top, width", FIELD_EDGES, ids=[f"{top:#x}" for top, _ in FIELD_EDGES])
    def test_ultrametrics_at_the_edge_pass_and_is_na_holds(self, top, width):
        # two clusters at distance top, inside each at top - 1 or 0
        n = 6
        grid = tuple(
            tuple(0 if x == y else top - 1 if x // 3 == y // 3 else top for y in range(n))
            for x in range(n)
        )
        assert _pack(grid, set().union(*grid))[0] == width
        d = Pseudometric._from_grid(Carrier(n), grid, 1)
        assert is_na(d) and d.grid == grid
        if top >= 2:  # one pair across the clusters lowered: a metric, no ultrametric
            lowered = [list(row) for row in grid]
            lowered[0][3] = lowered[3][0] = top - 1
            assert not is_na(Pseudometric._from_grid(Carrier(n), lowered, 1))


# The ultrametric test packs its fields one bit narrower than the triangle
# scan: a field must hold the largest entry m below its guard bit, and the
# scan's sums need one bit more.  The widths differ for m from 2**(w-2) to
# 2**(w-1) - 1, and both widths grow past w at m = 2**(w-1).


def field_width(need):
    return next(w for w in (8, 16, 32, 64) if need <= w)


def dendrogram_grid(rng, n, heights):
    """An ultrametric grid merging clusters at the ascending heights, the last at heights[-1]."""
    grid = [[0] * n for _ in range(n)]
    clusters = [[x] for x in range(n)]
    levels = sorted(rng.choice(heights) for _ in range(n - 2)) + [heights[-1]]
    for h in levels:
        i, j = rng.sample(range(len(clusters)), 2)
        for x in clusters[i]:
            for y in clusters[j]:
                grid[x][y] = grid[y][x] = h
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return grid


class TestPackingWidths:
    @pytest.mark.parametrize("w", [8, 16, 32])
    @pytest.mark.parametrize("shift, less", [(2, 1), (2, 0), (1, 1), (1, 0)],
                             ids=["2^(w-2)-1", "2^(w-2)", "2^(w-1)-1", "2^(w-1)"])
    def test_verdicts_and_first_failures_match_the_per_triple_oracle(self, w, shift, less):
        m = 2 ** (w - shift) - less
        test_width, scan_width = field_width(m.bit_length() + 1), field_width((2 * m).bit_length() + 1)
        assert (test_width, scan_width) == {
            (2, 1): (w, w), (2, 0): (w, 2 * w), (1, 1): (w, 2 * w), (1, 0): (2 * w, 2 * w)
        }[shift, less]
        rng = random.Random(m)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(3, 9)
            heights = [0, 1, m // 2, m - 1, m]
            kind = rng.randrange(3)
            if kind < 2:
                grid = dendrogram_grid(rng, n, heights)
                if kind == 1:  # one pair lowered: mostly a metric, no longer an ultrametric
                    x, y = rng.sample(range(n), 2)
                    grid[x][y] = grid[y][x] = rng.choice(heights[:-1])
            else:
                grid = [[0] * n for _ in range(n)]
                for x in range(n):
                    for y in range(x + 1, n):
                        grid[x][y] = grid[y][x] = rng.choice(heights + [(m + 1) // 2])
                grid[0][n - 1] = grid[n - 1][0] = m
            values = set().union(*grid)
            assert _pack(grid, values, 0)[0] == test_width and _pack(grid, values)[0] == scan_width
            dist = [[Fraction(v) for v in row] for row in grid]
            expected = reference_triangle_message(dist)
            assert check_pseudometric(dist) == (expected is None)
            if expected is None:
                d = Pseudometric._from_grid(Carrier(n), grid, 1)
                outcomes.add(is_na(d))
                assert is_na(d) == check_strong_triangle(dist)
            else:
                outcomes.add(None)
                with pytest.raises(ValueError) as exc:
                    Pseudometric._from_grid(Carrier(n), grid, 1)
                assert str(exc.value) == expected
        assert outcomes == {True, False, None}


# ball_relation finds each row's level ball by bisection; the oracle compares
# every cell with the radius.


def test_ball_relation_matches_the_oracle_at_thresholds_values_and_midpoints():
    for d in seeded_tables():
        values = d.values()
        midpoints = [(a + b) / 2 for a, b in zip([Fraction(0)] + values, values)]
        for eps in thresholds(d) + values + midpoints:
            assert ball_relation(d, eps) == slow_ball_relation(d, eps), (d.to_json(), eps)


# chain_pm writes each depth into the rows over the mask of the pairs in one
# step and not the next; the per-pair loop it replaced is the reference.


def per_pair_chain_grid(steps, n):
    """(scale, grid) in lowest terms: 0 inside the last step, else scale // i, i the deepest step."""
    k = len(steps)
    scale = math.lcm(*range(1, k))
    grid = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            if steps[-1].has(x, y):
                continue
            depth = 1
            for i in range(k - 1, 0, -1):
                if steps[i - 1].has(x, y):
                    depth = i
                    break
            grid[x][y] = grid[y][x] = scale // depth
    c = math.gcd(scale, *(v for row in grid for v in row))
    return scale // c, tuple(tuple(v // c for v in row) for row in grid)


def test_chain_pm_grid_matches_the_per_pair_loop():
    rng = random.Random(616)
    depths = set()
    for _ in range(300):
        n = rng.randint(1, 16)
        steps = random_chain_steps(rng, n, rng.randint(0, 5))
        depths.add(len(steps))
        d = chain_pm(Chain(Carrier(n), steps))
        assert (d.scale, d.grid) == per_pair_chain_grid(steps, n)
    assert depths == {1, 2, 3, 4, 5, 6}


# chain_pm, a sup of ultrametrics and the p-adic table pass `_from_grid`
# na=True, which skips every test; a sup with another input is tested like
# a parsed table.  Rebuilt through the public constructor, which tests
# everything, each table must come back the same.


def assert_equals_its_public_rebuild(d):
    rebuilt = Pseudometric(d.carrier, d.dist)
    assert (rebuilt.grid, rebuilt.scale, is_na(rebuilt)) == (d.grid, d.scale, is_na(d))
    assert rebuilt == d and hash(rebuilt) == hash(d)
    for eps in thresholds(d):
        assert ball_relation(d, eps) == ball_relation(rebuilt, eps) == slow_ball_relation(d, eps)


def assert_builder_table_agrees_with_the_oracle(d):
    assert_equals_its_public_rebuild(d)
    assert is_na(d) == check_strong_triangle(d.dist)


class TestBuilderTablesEqualTheirRebuild:
    def test_sup_of_ultrametrics(self):
        rng = random.Random(2101)
        for _ in range(150):
            n = rng.randint(1, 12)
            d = sup_pm([random_ultrametric(rng, n) for _ in range(rng.randint(1, 3))])
            assert is_na(d)
            assert_builder_table_agrees_with_the_oracle(d)

    def test_sup_with_a_line_metric(self):
        rng = random.Random(2102)
        verdicts = set()
        for _ in range(150):
            n = rng.randint(1, 12)
            ds = [random_ultrametric(rng, n) for _ in range(rng.randint(0, 2))]
            f = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
            ds.insert(rng.randint(0, len(ds)), line_pm(Carrier(n), f))  # a fresh Fraction per cell
            d = sup_pm(ds)
            verdicts.add(is_na(d))
            assert_builder_table_agrees_with_the_oracle(d)
        assert verdicts == {True, False}

    def test_chain_pm_metrize_and_system_from_na_basis(self):
        from ultrauniform.oracle import random_valid_basis

        rng = random.Random(2103)
        for _ in range(150):
            n = rng.randint(1, 12)
            steps = random_chain_steps(rng, n, rng.randint(0, 5))
            assert_builder_table_agrees_with_the_oracle(chain_pm(Chain(Carrier(n), steps)))
            basis = random_valid_basis(rng, n)
            assert_builder_table_agrees_with_the_oracle(metrize(basis.entourages))
            (d,) = system_from_na_basis(basis).metrics
            assert_builder_table_agrees_with_the_oracle(d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_padic_tables_of_every_size_to_130(self, p):
        from ultrauniform.cli import padic_pseudometric

        for size in range(1, 131):
            d = padic_pseudometric(p, size)
            assert is_na(d)
            # the per-triple oracle is cubic in the size; the rebuild's own
            # test, held to that oracle above, decides the larger tables
            if size <= 24:
                assert_builder_table_agrees_with_the_oracle(d)
            else:
                assert_equals_its_public_rebuild(d)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the calls to the ultrametric test and the triangle scan."""
    import ultrauniform.pseudometric as module

    calls = {"_is_ultrametric": 0, "_triangle_failure": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


class TestProvedTablesSkipTheirTests:
    def test_sup_of_ultrametrics_runs_neither(self, kernel_calls):
        rng = random.Random(2111)
        inputs = [[random_ultrametric(rng, n) for _ in range(2)] for n in range(1, 13)]
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))
        for ds in inputs:
            sup_pm(ds)
        assert kernel_calls == {"_is_ultrametric": 0, "_triangle_failure": 0}

    def test_chains_and_padic_tables_run_neither(self, kernel_calls):
        from ultrauniform.cli import padic_pseudometric
        from ultrauniform.oracle import random_valid_basis

        rng = random.Random(2112)
        for n in range(1, 13):
            chain_pm(Chain(Carrier(n), random_chain_steps(rng, n, 3)))
            basis = random_valid_basis(rng, n)
            metrize(basis.entourages)
            system_from_na_basis(basis)
        for p, size in [(2, 64), (3, 128), (5, 100), (7, 49)]:
            padic_pseudometric(p, size)
        assert kernel_calls == {"_is_ultrametric": 0, "_triangle_failure": 0}

    @pytest.mark.parametrize(
        "table, calls, error",
        [
            ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], (1, 0), None),  # an ultrametric: the test passes it
            ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], (1, 1), None),  # a metric with n values: both run
            ([[0, 1, 3], [1, 0, 2], [3, 2, 0]], (0, 1), None),  # more values than points: the scan
            ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], (1, 1),  # a failing table: both, then refused
             "triangle inequality fails at (0,2) via 1"),
        ],
    )
    def test_the_public_constructor_runs_them_as_before(self, kernel_calls, table, calls, error):
        if error is None:
            pm(table)
        else:
            with pytest.raises(ValueError, match=re.escape(error)):
                pm(table)
        assert (kernel_calls["_is_ultrametric"], kernel_calls["_triangle_failure"]) == calls
