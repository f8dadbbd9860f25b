"""Seeded inputs, library calls and answer checks for the four workloads.

Every input is built here from stdlib `random` and the library's public
constructors; no generator or enumerator of `ultrauniform.oracle` is used,
so a change to the oracle cannot change a workload.  Each input carries the
answer it must produce, known from how it was built: a diagonal basis is
valid iff its minimum entourage D_min is an equivalence, and a topology of
up-sets is uniformizable iff its preorder is symmetric.

Answers are checked by meaning, with this file's own bitmask arithmetic,
never by bytes: verdicts, that witnesses are equivalences meeting in D_min,
that cover witnesses are partitions, that metrics are ultrametrics whose
zero sets give back D_min, and, for the command line, exit codes and JSON
on stdout.  A witness of another shape that means the same passes.

An op is one timed call (or one command-line request).  `check(value,
exc)` returns None when the answer is right, ("wrong", why) when an answer
was given and is wrong, and ("crash", why) when the library raised where it
should not or the command printed no JSON.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object, Optional[BaseException]], Optional[tuple[str, str]]]


# ---------------------------------------------------------------------------
# bitmask arithmetic on relation rows, independent of the library


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meet(rows_list) -> list[int]:
    out = list(rows_list[0])
    for rows in rows_list[1:]:
        out = [a & b for a, b in zip(out, rows)]
    return out


def transpose(rows) -> list[int]:
    out = [0] * len(rows)
    for x, row in enumerate(rows):
        for y in bits(row):
            out[y] |= 1 << x
    return out


def square(rows) -> list[int]:
    out = []
    for row in rows:
        acc = 0
        for z in bits(row):
            acc |= rows[z]
        out.append(acc)
    return out


def subset(a, b) -> bool:
    return all(x & ~y == 0 for x, y in zip(a, b))


def is_symmetric(rows) -> bool:
    return list(rows) == transpose(rows)


def is_transitive(rows) -> bool:
    return subset(square(rows), rows)


def is_equivalence(rows) -> bool:
    return (
        all(row >> x & 1 for x, row in enumerate(rows))
        and is_symmetric(rows)
        and is_transitive(rows)
    )


def is_partition(masks, n: int) -> bool:
    union = 0
    for m in masks:
        if m == 0 or m & union:
            return False
        union |= m
    return union == (1 << n) - 1


def partition_rows(blocks, n: int) -> list[int]:
    rows = [0] * n
    for block in blocks:
        mask = sum(1 << x for x in block)
        for x in block:
            rows[x] = mask
    return rows


def coresidence_rows(sets, n: int) -> list[int]:
    """Pairs lying together in some set of a cover given as lists or masks."""
    rows = [0] * n
    for s in sets:
        mask = s if isinstance(s, int) else sum(1 << x for x in s)
        for x in bits(mask):
            rows[x] |= mask
    return rows


def rows_of_pairs(obj: dict) -> list[int]:
    rows = [0] * obj["n"]
    for x, y in obj["pairs"]:
        rows[x] |= 1 << y
    return rows


def zero_rows(table) -> list[int]:
    return [sum(1 << y for y, v in enumerate(row) if v == 0) for row in table]


def is_ultrametric(table) -> bool:
    n = len(table)
    for x in range(n):
        if table[x][x] != 0:
            return False
        for y in range(n):
            if table[x][y] < 0 or table[x][y] != table[y][x]:
                return False
    for z in range(n):
        tz = table[z]
        for x in range(n):
            txz = table[x][z]
            tx = table[x]
            for y in range(n):
                if tx[y] > max(txz, tz[y]):
                    return False
    return True


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


# ---------------------------------------------------------------------------
# seeded inputs


def two_block(rng: random.Random, n: int) -> list[int]:
    """Rows of a random equivalence with exactly two classes."""
    full = (1 << n) - 1
    a = 0
    while a in (0, full):
        a = rng.getrandbits(n)
    b = full & ~a
    return [a if a >> x & 1 else b for x in range(n)]


def diagonal_rows(rng: random.Random, n: int, k: int, valid: bool) -> list[list[int]]:
    """k generators: two-block equivalences, some widened to reflexive supersets.

    Extra pairs go only to generators after the first and only outside the
    first, so they cancel in the meet and D_min stays the meet of the
    equivalences.  An invalid basis gets one more pair outside that meet in
    every generator; it survives into D_min, which is then not symmetric.
    """
    eqs = [two_block(rng, n) for _ in range(k)]
    gens = [list(e) for e in eqs]
    for g in gens[1:]:
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, n)):
                x, y = rng.randrange(n), rng.randrange(n)
                if not eqs[0][x] >> y & 1:
                    g[x] |= 1 << y
    if not valid:
        m = meet(eqs)
        x, y = rng.randrange(n), rng.randrange(n)
        while m[x] >> y & 1:
            x, y = rng.randrange(n), rng.randrange(n)
        for g in gens:
            g[x] |= 1 << y
    return gens


def random_blocks(rng: random.Random, n: int, max_blocks: int) -> list[list[int]]:
    k = rng.randint(1, min(n, max_blocks))
    blocks: list[list[int]] = [[] for _ in range(k)]
    points = list(range(n))
    rng.shuffle(points)
    for i, x in enumerate(points):
        blocks[i if i < k else rng.randrange(k)].append(x)
    return blocks


def cover_sets(rng: random.Random, n: int) -> tuple[list[list[list[int]]], list[int]]:
    """Partitions plus coarsenings of them, and the rows of their meet.

    A coarsening unites each block with some other blocks, so the
    partition refines it and the meet of the partitions is the finest
    member of the generated covering uniformity.
    """
    parts = [random_blocks(rng, n, 5) for _ in range(rng.randint(1, 2))]
    covers = [list(p) for p in parts]
    for p in parts:
        if len(p) > 1 and rng.random() < 0.8:
            grown = [set(b).union(*(o for o in p if o is not b and rng.random() < 0.4)) for b in p]
            covers.append([sorted(s) for s in grown])
    return covers, meet([partition_rows(p, n) for p in parts])


def ultrametric_table(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Dendrogram distances: merge clusters at nondecreasing rational heights."""
    table = [[Fraction(0)] * n for _ in range(n)]
    clusters = [[x] for x in range(n)]
    height = Fraction(0)
    while len(clusters) > 1:
        i, j = rng.sample(range(len(clusters)), 2)
        if rng.random() < 0.7:
            height += Fraction(rng.randint(1, 5), rng.randint(1, 7))
        for x in clusters[i]:
            for y in clusters[j]:
                table[x][y] = table[y][x] = height
        clusters[i] += clusters[j]
        del clusters[j]
    return table


def preorder(rng: random.Random, n: int, comps: int, symmetric: bool):
    """Rows of a random preorder with `comps` connected components.

    Returns (up, components): up[x] is the mask of points above x, and the
    component masks.  A symmetric preorder makes each component one class.
    """
    while True:
        points = list(range(n))
        rng.shuffle(points)
        cuts = sorted(rng.sample(range(1, n), comps - 1))
        groups = [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        up = [1 << x for x in range(n)]
        for group in groups:
            for i in range(1, len(group)):
                x, y = group[i], group[rng.randrange(i)]
                if symmetric or rng.random() < 0.15:
                    up[x] |= 1 << y
                    up[y] |= 1 << x
                elif rng.random() < 0.5:
                    up[x] |= 1 << y
                else:
                    up[y] |= 1 << x
            for _ in range(rng.randint(0, len(group) // 2)):
                x, y = rng.choice(group), rng.choice(group)
                up[x] |= 1 << y
                if symmetric:
                    up[y] |= 1 << x
        for z in range(n):  # transitive closure
            for x in range(n):
                if up[x] >> z & 1:
                    up[x] |= up[z]
        if is_symmetric(up) == symmetric:
            return up, [sum(1 << x for x in g) for g in groups]


def up_sets(up: list[int]) -> list[int]:
    n = len(up)
    return [
        u for u in range(1 << n) if all(up[x] & ~u == 0 for x in bits(u))
    ]


def component_of(components, x: int) -> int:
    return next(c for c in components if c >> x & 1)


@functools.lru_cache(maxsize=None)
def padic_row(p: int, size: int) -> tuple[Fraction, ...]:
    """p-adic distance by difference: the distance of x and y is row[|x - y|].

    One row per table keeps the expected answers small next to the tables
    the library builds.
    """
    def dist(d):
        if d == 0:
            return Fraction(0)
        v = 0
        while d % p == 0:
            v += 1
            d //= p
        return Fraction(1, p ** v)

    return tuple(dist(d) for d in range(size))


def is_padic(table, p: int) -> bool:
    row = padic_row(p, len(table))
    return all(
        len(r) == len(table) and all(v == row[abs(x - y)] for y, v in enumerate(r))
        for x, r in enumerate(table)
    )


# ---------------------------------------------------------------------------
# answer checks

OK = None


def wrong(why: str):
    return ("wrong", why)


def crashed(exc: BaseException):
    return ("crash", f"{type(exc).__name__}: {exc}")


def check_na_witness(entourage_rows: list[list[int]], dmin: list[int]):
    if not entourage_rows:
        return wrong("empty witness")
    if not all(is_equivalence(r) for r in entourage_rows):
        return wrong("witness member is not an equivalence")
    if meet(entourage_rows) != dmin:
        return wrong("witness does not meet in D_min")
    return OK


def check_violations(violations, dmin: list[int]):
    """Axiom names equal those D_min violates; each witness really violates.

    `violations` holds (axiom, witness relation as JSON) pairs.
    """
    expected = set()
    if not is_symmetric(dmin):
        expected.add("symmetry")
    if not is_transitive(dmin):
        expected.add("composition")
    names = {axiom for axiom, _ in violations}
    if names != expected:
        return wrong(f"violated axioms {sorted(names)}, expected {sorted(expected)}")
    for axiom, witness in violations:
        rows = rows_of_pairs(witness)
        if not subset(dmin, rows):
            return wrong("violation witness outside the filter")
        needed = transpose(dmin) if axiom == "symmetry" else square(dmin)
        if subset(needed, rows):
            return wrong(f"{axiom} witness does not violate it")
    return OK


def check_rendered(text, key: str):
    try:
        obj = json.loads(text)
    except (TypeError, ValueError):
        return wrong("rendering is not JSON")
    if not isinstance(obj, dict) or key not in obj:
        return wrong(f"rendering lacks {key!r}")
    return OK


def first_problem(*checks):
    for problem in checks:
        if problem is not None:
            return problem
    return OK


# ---------------------------------------------------------------------------
# closure: verdicts on diagonal bases, deciding on the diagonal side

CLOSURE_N = (10, 12, 14, 16)
CLOSURE_K = (3, 4, 5, 6, 7)


def closure_pool(lib, rng: random.Random, cycles: int, ns=CLOSURE_N, ks=CLOSURE_K) -> list[Op]:
    """Each cycle holds one valid and one invalid basis per (n, k), shuffled."""
    core, unif = lib.core, lib.uniformity
    ops = []
    for _ in range(cycles):
        grid = [(n, k, v) for n in ns for k in ks for v in (True, False)]
        rng.shuffle(grid)
        for n, k, valid in grid:
            gens = diagonal_rows(rng, n, k, valid)
            carrier = core.Carrier(n)
            b = unif.DiagonalBasis(carrier, [core.Relation(carrier, g) for g in gens])
            order = list(gens)
            rng.shuffle(order)
            copy = unif.DiagonalBasis(
                carrier,
                [core.Relation(carrier, g) for g in order]
                + [core.Relation(carrier, meet(order[:2]))],
            )
            ops.extend(closure_ops(lib, b, copy, meet(gens), valid))
    return ops


def closure_ops(lib, b, copy, dmin, valid) -> list[Op]:
    unif = lib.uniformity
    invalid_error = lib.core.ValidationError

    def check_validate(report, exc):
        if exc is not None:
            return crashed(exc)
        if report.valid != valid:
            return wrong(f"validity {report.valid}, expected {valid}")
        return check_violations(report.violations, dmin)

    def check_na(result, exc):
        if not valid:
            return OK if isinstance(exc, invalid_error) else wrong("invalid basis not refused")
        if exc is not None:
            return crashed(exc)
        ok, witness = result
        if not ok:
            return wrong("valid basis reported not non-Archimedean")
        return check_na_witness([list(e.rows) for e in witness.entourages], dmin)

    def check_equal(result, exc):
        if not valid:
            return OK if isinstance(exc, invalid_error) else wrong("invalid basis not refused")
        if exc is not None:
            return crashed(exc)
        return OK if result is True else wrong("re-presented copy judged different")

    return [
        Op("validate_diagonal", lambda: unif.validate_diagonal(b), check_validate),
        Op("is_non_archimedean", lambda: unif.is_non_archimedean(b), check_na),
        Op("uniformity_equal", lambda: unif.uniformity_equal(b, copy), check_equal),
    ]


# ---------------------------------------------------------------------------
# certify: certificates built on the cover and metric side, rendered as JSON

PAIR_SIZES = (8, 16, 24, 32)
PADIC_SIZES = (64, 80, 96, 112, 128)
PADIC_BASES = (2, 3, 5)


def certify_pool(
    lib, rng: random.Random, cycles: int, pair_sizes=PAIR_SIZES, padic_sizes=PADIC_SIZES
) -> list[Op]:
    """Each cycle: two of each cover-side certificate, one sup per pair size, one p-adic.

    Sizes and p-adic bases go round in turn rather than at random, so that
    every seed has the same mix of sizes and keeps the same tables in memory.
    """
    small = itertools.cycle(range(8, 17))
    padic = itertools.cycle(itertools.product(PADIC_BASES, padic_sizes))
    ops = []
    for _ in range(cycles):
        for _ in range(2):
            ops.append(convert_op(lib, rng, next(small)))
            ops.append(partition_basis_op(lib, rng, next(small)))
            ops.append(pm_system_op(lib, rng, next(small)))
            ops.append(metrize_op(lib, rng, next(small)))
        for n in pair_sizes:
            ops.append(sup_op(lib, rng, n))
        ops.append(padic_op(lib, *next(padic)))
    return ops


def _valid_small_basis(lib, rng, n):
    gens = diagonal_rows(rng, n, rng.randint(1, 3), True)
    carrier = lib.core.Carrier(n)
    return lib.uniformity.DiagonalBasis(
        carrier, [lib.core.Relation(carrier, g) for g in gens]
    ), meet(gens)


def convert_op(lib, rng, n) -> Op:
    b, dmin = _valid_small_basis(lib, rng, n)
    unif, jsonio = lib.uniformity, lib.jsonio

    def call():
        cb = unif.cover_basis_from_diagonal(b)
        back = unif.diagonal_from_cover_basis(cb)
        return cb, back, jsonio.dumps(cb), jsonio.dumps(back)

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        cb, back, cb_text, back_text = result
        if meet([coresidence_rows(c.sets, n) for c in cb.covers]) != dmin:
            return wrong("covers do not meet in D_min")
        return first_problem(
            OK if meet([list(e.rows) for e in back.entourages]) == dmin
            else wrong("converted back, the basis moved its D_min"),
            check_rendered(cb_text, "covers"),
            check_rendered(back_text, "entourages"),
        )

    return Op("diagonal_cover_diagonal", call, check)


def partition_basis_op(lib, rng, n) -> Op:
    sets, finest = cover_sets(rng, n)
    carrier = lib.core.Carrier(n)
    unif = lib.uniformity
    cb = unif.CoverBasis(carrier, [unif.Cover(carrier, s) for s in sets])
    input_masks = [[sum(1 << x for x in s) for s in c] for c in sets]

    def call():
        ok, witness = unif.has_partition_basis(cb)
        return ok, witness, lib.jsonio.dumps(witness) if ok else None

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        ok, witness, text = result
        if not ok:
            return wrong("partition-generated basis has no partition basis")
        parts = [list(c.sets) for c in witness.covers]
        for p in parts:
            if not is_partition(p, n):
                return wrong("witness cover is not a partition")
            if not subset(finest, coresidence_rows(p, n)):
                return wrong("witness partition outside the uniformity")
        for cover in input_masks:
            if not any(all(any(s & ~c == 0 for c in cover) for s in p) for p in parts):
                return wrong("an input cover is refined by no witness partition")
        return check_rendered(text, "covers")

    return Op("has_partition_basis", call, check)


def pm_system_op(lib, rng, n) -> Op:
    b, dmin = _valid_small_basis(lib, rng, n)

    def call():
        system = lib.pseudometric.system_from_na_basis(b)
        return system, lib.jsonio.dumps(system)

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        system, text = result
        tables = [m.dist for m in system.metrics]
        if not all(is_ultrametric(t) for t in tables):
            return wrong("system metric is not an ultrametric")
        if meet([zero_rows(t) for t in tables]) != dmin:
            return wrong("system balls do not give back D_min")
        return check_rendered(text, "metrics")

    return Op("system_from_na_basis", call, check)


def metrize_op(lib, rng, n) -> Op:
    eqs = [two_block(rng, n) for _ in range(rng.randint(1, 3))]
    carrier = lib.core.Carrier(n)
    rels = [lib.core.Relation(carrier, e) for e in eqs]
    dmin = meet(eqs)

    def call():
        d = lib.pseudometric.metrize(rels)
        return d, lib.jsonio.dumps(d)

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        d, text = result
        if not is_ultrametric(d.dist):
            return wrong("metrization is not an ultrametric")
        if zero_rows(d.dist) != dmin:
            return wrong("metrization balls do not give back D_min")
        return check_rendered(text, "dist")

    return Op("metrize", call, check)


def sup_op(lib, rng, n) -> Op:
    t1, t2 = ultrametric_table(rng, n), ultrametric_table(rng, n)
    carrier = lib.core.Carrier(n)
    pm = lib.pseudometric
    expected = [[max(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(t1, t2)]
    values = sorted({v for row in expected for v in row if v > 0})

    def call():
        d = pm.sup_pm([pm.Pseudometric(carrier, t1), pm.Pseudometric(carrier, t2)])
        radii = pm.thresholds(d)
        balls = [pm.ball_relation(d, eps) for eps in radii]
        return d, radii, balls, lib.jsonio.dumps(d)

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        d, radii, balls, text = result
        if [list(r) for r in d.dist] != expected:
            return wrong("sup is not the pointwise maximum")
        if radii[:-1] != values or (values and radii[-1] <= values[-1]):
            return wrong("thresholds miss a ball relation")
        for eps, ball in zip(radii, balls):
            want = [sum(1 << y for y, v in enumerate(row) if v < eps) for row in expected]
            if list(ball.rows) != want:
                return wrong(f"ball of radius {eps} is wrong")
        return check_rendered(text, "dist")

    return Op("sup_balls", call, check)


def padic_op(lib, p: int, size: int) -> Op:
    padic_row(p, size)  # built at set-up, not in the run

    def call():
        d = lib.cli.padic_pseudometric(p, size)
        return d, lib.jsonio.dumps(d)

    def check(result, exc):
        if exc is not None:
            return crashed(exc)
        d, text = result
        if not is_padic(d.dist, p):
            return wrong("p-adic distances differ from the valuation")
        return check_rendered(text, "dist")

    return Op("padic_pseudometric", call, check)


# ---------------------------------------------------------------------------
# topology: the three verdicts on up-set topologies of random preorders

TOPOLOGY_N = (5, 6, 7, 8)
TOPOLOGY_COMPONENTS = (1, 2, 3)


def topology_pool(lib, rng: random.Random, cycles: int, ns=TOPOLOGY_N) -> list[Op]:
    """Each cycle holds one symmetric and two other preorders per (n, components).

    The verdicts cost about the square of the number of open sets, which
    varies tenfold between preorders of one size and falls as the preorder
    relates more pairs.  So each stratum draws six preorders per slot,
    sorts them by the number of related pairs and keeps every sixth: a
    systematic sample that gives every seed nearly the same mix of sizes.
    """
    strata = [(n, c, s) for n in ns for c in TOPOLOGY_COMPONENTS for s in (True, False, False)]
    picked = []
    for n, comps, symmetric in strata:
        drawn = [preorder(rng, n, comps, symmetric) for _ in range(6 * cycles)]
        drawn.sort(key=lambda d: sum(row.bit_count() for row in d[0]))
        chosen = drawn[3::6]
        rng.shuffle(chosen)
        picked.append([(n, symmetric, up, components) for up, components in chosen])
    ops = []
    for cycle in range(cycles):
        order = [stratum[cycle] for stratum in picked]
        rng.shuffle(order)
        for n, symmetric, up, components in order:
            t = lib.topology.FiniteTopology(lib.core.Carrier(n), up_sets(up))
            ops.extend(topology_ops(lib, t, n, components, symmetric))
    return ops


def topology_ops(lib, t, n, components, expected) -> list[Op]:
    topo = lib.topology
    full = (1 << n) - 1

    def check_ta(result, exc):
        if exc is not None:
            return crashed(exc)
        ok, counterexample = result
        if ok != expected:
            return wrong(f"T_A {ok}, expected {expected}")
        if not ok:
            closed, x = counterexample
            a = sum(1 << y for y in closed)
            if (full & ~a) not in t.opens or a >> x & 1:
                return wrong("counterexample is not a closed set and an outside point")
            if component_of(components, x) & a == 0:
                return wrong("counterexample point is separable by a clopen set")
        return OK

    def check_zero_dim(result, exc):
        if exc is not None:
            return crashed(exc)
        return OK if result == expected else wrong(f"zero_dim {result}, expected {expected}")

    def check_uniformizable(result, exc):
        if exc is not None:
            return crashed(exc)
        ok, witness = result
        if ok != expected:
            return wrong(f"uniformizable {ok}, expected {expected}")
        if ok:
            return check_na_witness(
                [list(e.rows) for e in witness.entourages],
                partition_rows([list(bits(c)) for c in components], n),
            )
        return OK

    return [
        Op("satisfies_TA", lambda: topo.satisfies_TA(t), check_ta),
        Op("is_zero_dimensional", lambda: topo.is_zero_dimensional(t), check_zero_dim),
        Op("is_uniformizable_na", lambda: topo.is_uniformizable_na(t), check_uniformizable),
    ]


# ---------------------------------------------------------------------------
# cli: one client, one command at a time, every verb, some malformed input

# The first four are the inputs that crash with a traceback and exit 1
# instead of being refused with exit 2; they stay in the mix so that the
# failed share records the defect until it is fixed.
MALFORMED = (
    ("validate", '{"n": 2, "pairs": [[0.5, 1]]}'),
    ("validate", '{"n": 2, "dist": [["0", "1/0"], ["1/0", "0"]]}'),
    ("check-na", '{"n": 2, "entourages": [{"n": 2, "pairs": [[0, 0], [1, "1"]]}]}'),
    ("validate", '{"n": 2, "blocks": [[0, 1.0]]}'),
    ("validate", '{"n": 2, "pairs": [[0, 1]'),
    ("convert", '{"n": 2, "points": [0, 1]}'),
    ("pm-system", '{"n": 3, "entourages": [{"n": 3, "pairs": [[0, 3]]}]}'),
    ("topo-check", '{"n": 2, "opens": [[], [-1], [0, 1]]}'),
)
KNOWN_CRASHES = 4

CLI_KINDS = (
    "validate-diagonal", "validate-cover", "validate-topology", "convert-cover",
    "convert-diagonal", "check-na", "metrize", "pm-system", "topo-check",
    "uniformize", "roundtrip-diagonal", "roundtrip-cover", "gen-padic",
    "sweep-T3.2-n3", "sweep-T3.2-n4", "sweep-T2.4-sampled",
)
SWEEP_T32 = {3: 29, 4: 355}  # labelled topologies (OEIS A000798)


class Request(NamedTuple):
    kind: str
    argv: list[str]
    check: Callable[[int, Optional[dict]], Optional[tuple[str, str]]]


def cli_pool(lib, rng: random.Random, cycles: int) -> list[Request]:
    """Each cycle: the sixteen kinds, shuffled, and two malformed requests.

    The malformed pair is one input that crashes and one that is refused,
    so one request in nine is malformed and one in eighteen crashes.
    """
    crashing, refused = list(MALFORMED[:KNOWN_CRASHES]), list(MALFORMED[KNOWN_CRASHES:])
    rng.shuffle(crashing)
    rng.shuffle(refused)
    requests = []
    for c in range(cycles):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        half = len(kinds) // 2
        bad = [crashing[c % len(crashing)], refused[c % len(refused)]]
        if c % 2:
            bad.reverse()
        for chunk, malformed in zip((kinds[:half], kinds[half:]), bad):
            requests.extend(cli_request(lib, rng, kind) for kind in chunk)
            requests.append(malformed_request(*malformed))
    return requests


def expect(code: int, check=None):
    def judge(got: int, payload: Optional[dict]):
        if payload is None:
            return ("crash", f"exit {got} without JSON on stdout")
        if got != code:
            return wrong(f"exit {got}, expected {code}")
        return check(payload) if check is not None else OK

    return judge


def malformed_request(verb: str, text: str) -> Request:
    argv = [verb, "--in", text] + (["--to", "cover"] if verb == "convert" else [])
    return Request(
        "malformed", argv, expect(2, lambda p: OK if "error" in p else wrong("no error message"))
    )


def cli_request(lib, rng: random.Random, kind: str) -> Request:
    n = rng.randint(4, 8)
    if kind == "gen-padic":
        p = rng.choice((2, 3, 5))
        padic_row(p, 64)

        def padic(payload):
            got = [[Fraction(v) for v in row] for row in payload["dist"]]
            return OK if len(got) == 64 and is_padic(got, p) else wrong("p-adic table differs")

        return Request(kind, ["gen", "padic", "--p", str(p), "--size", "64"], expect(0, padic))
    if kind.startswith("sweep-T3.2"):
        m = int(kind[-1])

        def t32(payload):
            if payload["discrepancies"] or payload["checked"] != SWEEP_T32[m]:
                return wrong("T3.2 sweep miscounted or disagreed")
            return OK if payload["satisfying"] == bell(m) else wrong("T3.2 satisfying count")

        return Request(kind, ["sweep", "--theorem", "T3.2", "--n", str(m)], expect(0, t32))
    if kind == "sweep-T2.4-sampled":
        trials = 10

        def t24(payload):
            if payload["discrepancies"] or not payload["checked"] == payload["satisfying"] == trials:
                return wrong("T2.4 sampled sweep")
            return OK

        argv = ["sweep", "--theorem", "T2.4", "--n", str(rng.randint(4, 6)),
                "--trials", str(trials), "--seed", str(rng.randrange(10**6))]
        return Request(kind, argv, expect(0, t24))
    if kind in ("validate-cover", "convert-diagonal", "roundtrip-cover"):
        sets, finest = cover_sets(rng, n)
        text = json.dumps({"n": n, "covers": sets})
        if kind == "validate-cover":
            return Request(
                kind, ["validate", "--in", text],
                expect(0, lambda p: OK if p["valid"] else wrong("cover basis invalid")),
            )
        if kind == "roundtrip-cover":
            return Request(kind, ["roundtrip", "--in", text], expect(0))

        def back(payload):
            rows = meet([rows_of_pairs(e) for e in payload["entourages"]])
            return OK if rows == finest else wrong("converted basis has the wrong D_min")

        return Request(kind, ["convert", "--in", text, "--to", "diagonal"], expect(0, back))
    if kind in ("validate-topology", "topo-check", "uniformize"):
        symmetric = rng.random() < 1 / 3
        up, components = preorder(rng, n, rng.randint(1, 3), symmetric)
        opens = [list(bits(u)) for u in up_sets(up)]
        text = json.dumps({"n": n, "opens": opens})
        if kind == "validate-topology":
            return Request(kind, ["validate", "--in", text], expect(0))
        if kind == "topo-check":
            want = {"T_A": symmetric, "zero_dim": symmetric, "uniformizable": symmetric}
            return Request(
                kind, ["topo-check", "--in", text],
                expect(0 if symmetric else 1, lambda p: OK if p == want else wrong("verdicts")),
            )
        classes = partition_rows([list(bits(c)) for c in components], n)

        def uniformize(payload):
            if payload["uniformizable"] != symmetric:
                return wrong("uniformizable verdict")
            if not symmetric:
                return OK
            witness = [rows_of_pairs(e) for e in payload["witness"]["entourages"]]
            return check_na_witness(witness, classes)

        return Request(kind, ["uniformize", "--in", text], expect(0 if symmetric else 1, uniformize))
    # diagonal-basis verbs
    equivalences = kind == "metrize"
    # roundtrip and convert need a valid basis; the others see invalid ones too
    valid = equivalences or kind in ("roundtrip-diagonal", "convert-cover") or rng.random() < 0.7
    k = rng.randint(2, 4)
    gens = [two_block(rng, n) for _ in range(k)] if equivalences else diagonal_rows(rng, n, k, valid)
    dmin = meet(gens)
    entourages = [
        {"n": n, "pairs": [[x, y] for x, row in enumerate(g) for y in bits(row)]} for g in gens
    ]
    text = json.dumps({"n": n, "entourages": entourages})
    if kind == "validate-diagonal":
        def verdict(payload):
            if payload["valid"] != valid:
                return wrong("validity")
            pairs = [(v["axiom"], v["witness"]) for v in payload["violations"]]
            return OK if valid else check_violations(pairs, dmin)

        return Request(kind, ["validate", "--in", text], expect(0 if valid else 1, verdict))
    if kind == "roundtrip-diagonal":
        return Request(
            kind, ["roundtrip", "--in", text],
            expect(0, lambda p: OK if p["roundtrip"] else wrong("roundtrip moved")),
        )
    if kind == "convert-cover":
        def covers(payload):
            if meet([coresidence_rows(c, n) for c in payload["covers"]]) != dmin:
                return wrong("covers do not meet in D_min")
            return OK

        return Request(kind, ["convert", "--in", text, "--to", "cover"], expect(0, covers))
    if not valid:  # check-na and pm-system refuse an invalid basis
        return Request(kind, [kind, "--in", text], expect(2))
    if kind == "check-na":
        def na(payload):
            if not payload["non_archimedean"]:
                return wrong("valid basis not non-Archimedean")
            witness = [rows_of_pairs(e) for e in payload["witness"]["entourages"]]
            return check_na_witness(witness, dmin)

        return Request(kind, ["check-na", "--in", text], expect(0, na))

    def metrics(payload):
        # pm-system prints a system of metrics, metrize a single one
        found = payload["metrics"] if "metrics" in payload else [payload]
        tables = [[[Fraction(v) for v in row] for row in m["dist"]] for m in found]
        if not all(is_ultrametric(t) for t in tables):
            return wrong("metric is not an ultrametric")
        if meet([zero_rows(t) for t in tables]) != dmin:
            return wrong("balls do not give back D_min")
        return OK

    return Request(kind, [kind, "--in", text], expect(0, metrics))
