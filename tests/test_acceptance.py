"""Acceptance suite: one test per criterion, exact checks, timed budgets.

Each test prints a single PASS line with its elapsed time (visible with
pytest -s, or in the captured output section on failure).  All checks use
exact rational or bit-level comparisons; there are no tolerances.
"""

import json
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from ultrauniform.cli import congruence_relation, main, padic_pseudometric
from ultrauniform.core import Carrier, Relation, is_equivalence
from ultrauniform.oracle import (
    bell_number,
    enumerate_equivalence_bases,
    enumerate_topologies,
    enumerate_uniformities,
    random_cover_basis,
    random_equivalence_basis,
    random_ultrametric,
    random_valid_basis,
)
from ultrauniform.pseudometric import (
    Pseudometric,
    PseudometricSystem,
    ball_relation,
    basis_from_system,
    chain_pm,
    descending_chain,
    is_na,
    sup_pm,
    system_from_na_basis,
    thresholds,
)
from ultrauniform.topology import (
    chain_topology,
    is_uniformizable_na,
    is_zero_dimensional,
    satisfies_TA,
    sierpinski_topology,
)
from ultrauniform.uniformity import (
    DiagonalBasis,
    cover_basis_from_diagonal,
    has_partition_basis,
    is_non_archimedean,
    roundtrip,
    uniformity_equal,
    validate_diagonal,
)

SEED = 20260808


def budget(name, started, limit_s):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {limit_s}s)")
    assert elapsed < limit_s, f"{name} exceeded its {limit_s}s budget: {elapsed:.2f}s"


@lru_cache(maxsize=1)
def exhaustive_equivalence_bases():
    out = []
    for n in range(1, 5):
        out.extend(enumerate_equivalence_bases(n, max_generators=3))
    return out


@lru_cache(maxsize=1)
def random_equivalence_bases():
    rng = random.Random(SEED)
    return [random_equivalence_basis(rng, rng.randint(2, 8)) for _ in range(1000)]


def test_criterion_1_conversions_invert_each_other():
    started = time.perf_counter()
    exhaustive = list(enumerate_uniformities(4))
    assert len(exhaustive) == 15
    rng = random.Random(SEED)
    instances = exhaustive + [
        random_valid_basis(rng, rng.randint(2, 8)) for _ in range(1000)
    ]
    failures = 0
    for b in instances:
        if not roundtrip(b):
            failures += 1
        if not roundtrip(cover_basis_from_diagonal(b)):
            failures += 1
    # cover-side starts that were not produced by a diagonal conversion
    for _ in range(100):
        if not roundtrip(random_cover_basis(rng, rng.randint(2, 8))):
            failures += 1
    assert failures == 0
    budget("criterion 1 (conversion round trips)", started, 5)


def test_criterion_2_three_representations_agree():
    started = time.perf_counter()
    instances = exhaustive_equivalence_bases() + random_equivalence_bases()
    assert len(instances) == 604 + 1000
    failures = []
    for b in instances:
        na, witness = is_non_archimedean(b)
        if not na:
            failures.append(("not-NA", b))
            continue
        system = system_from_na_basis(b)
        if not uniformity_equal(basis_from_system(system), b):
            failures.append(("system-roundtrip", b))
        if not has_partition_basis(cover_basis_from_diagonal(b))[0]:
            failures.append(("no-partition-basis", b))
        if not is_non_archimedean(basis_from_system(system))[0]:
            failures.append(("system-basis-not-NA", b))
    assert not failures, failures[:3]
    budget("criterion 2 (three equivalent representations)", started, 30)


def test_criterion_3_sup_and_balls():
    started = time.perf_counter()
    rng = random.Random(SEED)
    failures = 0
    for _ in range(10_000):
        n = rng.randint(2, 8)
        d1 = random_ultrametric(rng, n)
        d2 = random_ultrametric(rng, n)
        s = sup_pm([d1, d2])
        if not is_na(s):
            failures += 1
        for d in (d1, s):
            for eps in thresholds(d):
                if not is_equivalence(ball_relation(d, eps)):
                    failures += 1
    assert failures == 0
    budget("criterion 3 (sup closure and ball equivalences)", started, 10)


def test_criterion_4_separation_equivalence_exhaustive():
    started = time.perf_counter()
    per_n_counts = []
    discrepancies = 0
    for n in range(1, 5):
        checked = satisfying = 0
        for t in enumerate_topologies(n):
            checked += 1
            ta, _ = satisfies_TA(t)
            zd = is_zero_dimensional(t)
            un, _ = is_uniformizable_na(t)
            if not (ta == zd == un):
                discrepancies += 1
            elif ta:
                satisfying += 1
        per_n_counts.append((checked, satisfying))
    assert discrepancies == 0
    assert [c for c, _ in per_n_counts] == [1, 4, 29, 355]
    assert [s for _, s in per_n_counts] == [bell_number(n) for n in range(1, 5)]
    assert [s for _, s in per_n_counts] == [1, 2, 5, 15]
    budget("criterion 4 (separation axiom equivalence, n <= 4)", started, 60)


def test_criterion_5_single_ultrametric_metrization():
    started = time.perf_counter()
    instances = exhaustive_equivalence_bases() + random_equivalence_bases()
    failures = []
    half = Fraction(1, 2)
    for b in instances:
        chain = descending_chain(b.entourages)
        d = chain_pm(chain)
        if not is_na(d):
            failures.append(("not-ultrametric", b))
        induced = basis_from_system(PseudometricSystem(b.carrier, [d]))
        if not uniformity_equal(induced, b):
            failures.append(("different-uniformity", b))
        steps = chain.steps
        for x in range(b.n):
            for y in range(b.n):
                v = d.d(x, y)
                if len(steps) >= 2 and v < half and not steps[1].has(x, y):
                    failures.append(("half-bound", b))
                for m in range(1, len(steps)):
                    if v < Fraction(1, m) and not steps[m].has(x, y):
                        failures.append(("chain-bound", b))
    assert not failures, failures[:3]
    budget("criterion 5 (metrization and chain bounds)", started, 30)


def test_criterion_6_counterexamples_exact():
    started = time.perf_counter()
    for t in (sierpinski_topology(), chain_topology(3)):
        assert satisfies_TA(t)[0] is False
        assert is_zero_dimensional(t) is False
        assert is_uniformizable_na(t)[0] is False
    assert satisfies_TA(sierpinski_topology()) == (False, ((0,), 1))

    c3 = Carrier(3)
    pseudo = Relation.from_pairs(
        c3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)]
    )
    report = validate_diagonal(DiagonalBasis(c3, [pseudo]))
    assert report.valid is False
    assert [axiom for axiom, _ in report.violations] == ["composition"]
    assert report.violations[0][1] == pseudo.to_json()
    budget("criterion 6 (connected and half-axiom counterexamples)", started, 1)


def test_criterion_7_generators_agree(capsys):
    started = time.perf_counter()
    cases = [(2, 3), (3, 3), (5, 2)]  # (p, depth) with p**depth <= 64
    for p, depth in cases:
        size = p**depth
        code = main(["gen", "padic", "--p", str(p), "--size", str(size)])
        padic_obj = json.loads(capsys.readouterr().out)
        assert code == 0
        d = Pseudometric.from_json(padic_obj)
        assert is_na(d)
        padic_basis = basis_from_system(PseudometricSystem(d.carrier, [d]))
        code = main([
            "gen", "ideal-chain",
            "--modulus", str(size), "--ideal", str(p), "--depth", str(depth),
        ])
        chain_obj = json.loads(capsys.readouterr().out)
        assert code == 0
        ideal_basis = DiagonalBasis.from_json(chain_obj)
        assert uniformity_equal(padic_basis, ideal_basis)
        expected = {congruence_relation(size, p**k) for k in range(depth + 1)}
        assert set(ideal_basis.entourages) == expected
    # ultrametricity also at sizes that are not prime powers, up to 64
    for p, size in ((2, 64), (3, 40), (5, 64)):
        assert is_na(padic_pseudometric(p, size))
    with capsys.disabled():
        budget("criterion 7 (number-theoretic generators)", started, 5)
