"""Payload detection and deterministic rendering."""

import gc
import json
import random

import pytest

from ultrauniform.cli import main, padic_pseudometric
from ultrauniform.core import Carrier, Relation
from ultrauniform.jsonio import detect, dumps, loads, structure_from_json
from ultrauniform.oracle import random_equivalence, random_ultrametric, theorem_sweep
from ultrauniform.pseudometric import (
    Chain,
    Pseudometric,
    PseudometricSystem,
    chain_pm,
    descending_chain,
    metrize,
    sup_pm,
)
from ultrauniform.topology import FiniteTopology
from ultrauniform.uniformity import Cover, CoverBasis, DiagonalBasis, validate_diagonal


def test_detection_table():
    cases = [
        ({"n": 2, "pairs": []}, Relation),
        ({"n": 2, "blocks": [[0], [1]]}, Relation),
        ({"n": 2, "entourages": [{"n": 2, "pairs": [[0, 0], [1, 1]]}]}, DiagonalBasis),
        ({"n": 2, "covers": [[[0, 1]]]}, CoverBasis),
        ({"n": 2, "opens": [[], [0, 1]]}, FiniteTopology),
        ({"n": 2, "dist": [["0/1", "0/1"], ["0/1", "0/1"]]}, Pseudometric),
        ({"n": 2, "metrics": [{"n": 2, "dist": [["0/1", "0/1"], ["0/1", "0/1"]]}]}, PseudometricSystem),
        ({"n": 2, "steps": [{"n": 2, "pairs": [[0, 0], [0, 1], [1, 0], [1, 1]]}]}, Chain),
    ]
    for obj, cls in cases:
        assert detect(obj) is cls
        assert isinstance(structure_from_json(obj), cls)


def test_detect_rejects_unknown():
    with pytest.raises(ValueError, match="cannot detect"):
        detect({"n": 2})


def test_detect_rejects_non_object():
    with pytest.raises(ValueError):
        detect([1, 2, 3])


def test_loads_round_trip():
    c = Carrier(3)
    structure = DiagonalBasis(c, [Relation.identity(c), Relation.full(c)])
    assert loads(dumps(structure)) == structure


def test_dumps_is_deterministic_and_sorted():
    cover = CoverBasis(Carrier(2), [Cover(Carrier(2), [[0], [0, 1]])])
    assert dumps(cover) == dumps(cover)
    assert dumps(cover).startswith("{\n  \"covers\"")


def test_missing_n_named():
    with pytest.raises(ValueError, match="'n'"):
        structure_from_json({"pairs": [[0, 1]], "n": "three"})


# -- the renderer against json.dumps(indent=2, sort_keys=True) ---------------


def reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def readme_structures():
    """One value of every JSON format that README lists and some verb prints (not blocks)."""
    c3 = Carrier(3)
    e01 = Relation.from_pairs(c3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    basis = DiagonalBasis(c3, [e01, Relation.full(c3)])
    d = Pseudometric(c3, [[0, "1/2", 1], ["1/2", 0, 1], [1, 1, 0]])
    return [
        e01,
        basis,
        CoverBasis(c3, [Cover(c3, [[0, 1], [1, 2]]), Cover(c3, [[0], [1, 2]])]),
        d,
        PseudometricSystem(c3, [d, chain_pm(Chain(c3, [Relation.full(c3), e01]))]),
        Chain(c3, [Relation.full(c3), e01]),
        FiniteTopology(Carrier(2), [0, 0b10, 0b11]),
        validate_diagonal(basis),
        validate_diagonal(DiagonalBasis(c3, [Relation.from_pairs(c3, [(0, 0), (1, 1), (2, 2), (0, 1)])])),
        theorem_sweep("T3.2", 2),
        padic_pseudometric(3, 27),
    ]


@pytest.mark.parametrize("structure", readme_structures(), ids=lambda s: type(s).__name__)
def test_dumps_matches_stdlib_on_every_format(structure):
    assert dumps(structure) == reference(structure.to_json())


BASIS = '{"n": 4, "entourages": [{"n": 4, "pairs": [[0, 0], [1, 1], [2, 2], [3, 3], [0, 1], [1, 0]]}]}'
BAD_BASIS = '{"n": 3, "entourages": [{"n": 3, "pairs": [[0, 0], [1, 1], [2, 2], [0, 1]]}]}'
COVERS = '{"n": 4, "covers": [[[0, 1], [2, 3]], [[0, 1, 2], [3]]]}'
TOPOLOGY = '{"n": 3, "opens": [[], [0], [0, 1], [2], [0, 2], [0, 1, 2]]}'
VERB_ARGVS = [
    ["validate", "--in", BASIS],
    ["validate", "--in", BAD_BASIS],
    ["validate", "--in", COVERS],
    ["validate", "--in", TOPOLOGY],
    ["validate", "--in", '{"n": 2, "dist": [[0, "1/3"], ["1/3", 0]]}'],
    ["convert", "--in", BASIS, "--to", "cover"],
    ["convert", "--in", COVERS, "--to", "diagonal"],
    ["check-na", "--in", BASIS],
    ["metrize", "--in", BASIS],
    ["pm-system", "--in", BASIS],
    ["topo-check", "--in", TOPOLOGY],
    ["uniformize", "--in", TOPOLOGY],
    ["uniformize", "--in", '{"n": 2, "opens": [[], [1], [0, 1]]}'],
    ["roundtrip", "--in", BASIS],
    ["roundtrip", "--in", BAD_BASIS],
    ["sweep", "--theorem", "T3.2", "--n", "3"],
    ["sweep", "--theorem", "T2.4", "--n", "4", "--trials", "3", "--seed", "2"],
    ["gen", "padic", "--p", "5", "--size", "30"],
    ["gen", "ideal-chain", "--modulus", "9", "--ideal", "3", "--depth", "2"],
    ["validate", "--in", '{"n": 2, "dist": [[0, "\\u00e9\\n\\"x"], [0, 0]]}'],
    ["validate", "--in", "{not json"],
]


@pytest.mark.parametrize("argv", VERB_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_dumps_matches_stdlib_on_every_verb(capsys, argv):
    main(argv)
    out = capsys.readouterr().out
    assert out == reference(json.loads(out))


def seeded_library_payloads():
    """Relations, equivalences, covers, opens and reports drawn from a seed."""
    from ultrauniform.oracle import (
        enumerate_preorder_topologies,
        random_cover_basis,
        random_equivalence,
    )

    rng = random.Random(2026)
    topologies = list(enumerate_preorder_topologies(3))
    for _ in range(60):
        n = rng.randint(1, 12)
        carrier = Carrier(n)
        rows = [rng.getrandbits(n) | 1 << x for x in range(n)]
        r = Relation(carrier, rows)
        yield r
        yield random_equivalence(rng, n)
        yield random_cover_basis(rng, n)
        yield rng.choice(topologies)
        extra = Relation(carrier, [rng.getrandbits(n) | 1 << x for x in range(n)])
        yield validate_diagonal(DiagonalBasis(carrier, [r, extra]))


def test_dumps_matches_stdlib_on_seeded_library_payloads():
    reports = 0
    for structure in seeded_library_payloads():
        assert dumps(structure) == reference(structure.to_json())
        reports += bool(getattr(structure, "violations", ()))
    assert reports >= 10


@pytest.mark.parametrize(
    "payload",
    [[1, True], [True, 1], [True, False], [0, False, 2], [[0, 1], [True, 0]], [2**70, -3, 0],
     {"pairs": [[0, 1]], "valid": False}, [None, 1], ["1", 1]],
    ids=["int then bool", "bool then int", "bools", "ints around a bool", "pairs with a bool",
         "big and negative ints", "pairs and a verdict", "null and int", "str and int"],
)
def test_dumps_matches_stdlib_on_mixed_int_and_bool_lists(payload):
    assert dumps(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [[[0, 1], [2, 3]], [[0, 1], [2]], [[], []], [[], [0]], [[0, 1], (2, 3)], [[2**70, -1]],
     [["0", "1/2"], ["1/2", "0"]], [["a"], []], [["a", 1], [2, "b"]], [[True, 1], [1, 1]],
     [[[0, 1]], [[2]]], [[0, 1], [None, 1]]],
    ids=["pairs", "unequal lengths", "empty rows", "empty and int rows", "list and tuple rows",
         "big ints", "str rows", "str and empty rows", "mixed cells", "a bool cell",
         "rows of lists", "a null cell"],
)
def test_dumps_matches_stdlib_on_rows(payload):
    assert dumps(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [[["0", "a\"b", "c\\d"], ["\n\t\x00\x1f", "0", "\x7f"]],
     [["é", "€"], ["\U0001d11e", "\ud800"], ["é", "1/2"]],
     [["0", "1/2"], ["1/2", 0]], [["0", "1/2"], ["1/2", None]], [["0", "1/2"], ["1/2", ["0"]]],
     [["0", "1/2"], ["1/2", True]], [["0", "1/2"], []], [["0"], [], ["0"]], [["0"], ("1/2",)]],
    ids=["escapes", "non-ASCII", "a later int cell", "a later null cell", "a later list cell",
         "a later bool cell", "an empty last row", "an empty middle row", "a tuple row"],
)
def test_dumps_matches_stdlib_on_string_tables(payload):
    assert dumps(payload) == reference(payload)
    assert dumps({"n": len(payload), "dist": payload}) == reference({"n": len(payload), "dist": payload})


def test_dumps_matches_stdlib_on_seeded_string_tables():
    rng = random.Random(1871)
    alphabet = ["0", "1/2", "a\"b", "\\", "é", "\U0001d11e", "\n", ""]
    for _ in range(300):
        n = rng.randint(1, 6)
        table = [[rng.choice(alphabet) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            table[rng.randrange(n)][rng.randrange(n)] = rng.choice([7, None, False, ["x"], (1,)])
        if rng.random() < 0.2:
            table[rng.randrange(n)] = []
        assert dumps(table) == reference(table)


def test_dumps_matches_stdlib_on_seeded_rows():
    rng = random.Random(1519)
    for _ in range(300):
        width = rng.randrange(4)
        rows = [[rng.choice([0, 7, -3, 2**65]) for _ in range(width or rng.randrange(3))]
                for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.3:
            rows = [[str(cell) + "/2" for cell in row] for row in rows]
        if rng.random() < 0.2:
            rows[rng.randrange(len(rows))] = tuple(rows[0])
        assert dumps(rows) == reference(rows)


def random_payload(rng: random.Random, depth: int):
    kind = rng.randrange(9 if depth else 6)
    if kind == 0:
        return rng.choice([0, 1, -1, 7, 2**70, -(3**50)])
    if kind == 1:
        return rng.choice([True, False, None])
    if kind <= 5:
        alphabet = "ab/0\"\\\n\t\x00\x1f\x7f é€\U0001d11e\ud800"
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
    if kind <= 7:
        items = [random_payload(rng, depth - 1) for _ in range(rng.randrange(5))]
        return tuple(items) if rng.random() < 0.2 else items
    keys = [random_payload(rng, 0) for _ in range(rng.randrange(5))]
    return {k if isinstance(k, str) else str(k): random_payload(rng, depth - 1) for k in keys}


def test_dumps_matches_stdlib_on_seeded_payloads():
    rng = random.Random(20211)
    for _ in range(3000):
        payload = random_payload(rng, rng.randrange(5))
        assert dumps(payload) == reference(payload)


# A Pseudometric renders its `dist` straight from its grid, through the row
# writer of string tables; the stdlib's rendering of `to_json()` is the reference.


def grid_tables():
    """p-adic, metrize, chain and sup tables, and tables parsed from every cell kind."""
    from fractions import Fraction

    for p in (2, 3, 5):
        for size in (1, 2, 64, 128):
            yield padic_pseudometric(p, size)
    rng = random.Random(2630)
    for _ in range(40):
        n = rng.randint(1, 12)
        carrier = Carrier(n)
        es = [random_equivalence(rng, n) for _ in range(rng.randint(1, 4))]
        yield metrize(es)
        yield chain_pm(descending_chain(es))
        u = random_ultrametric(rng, n)
        yield u
        # mixed scales: a power of p, the lcm of the chain depths and the dendrogram's heights
        yield sup_pm([padic_pseudometric(rng.choice([2, 3, 5]), n), metrize(es)])
        yield sup_pm([u, random_ultrametric(rng, n), chain_pm(descending_chain(es))])
        yield Pseudometric(carrier, u.to_json()["dist"])
        yield Pseudometric(carrier, [[abs(a - b) * 3 for b in range(n)] for a in range(n)])
        yield Pseudometric(carrier, [[Fraction(abs(a - b), 7) for b in range(n)] for a in range(n)])
    for cell in (0, "0", "0/5", Fraction(0)):
        yield Pseudometric(Carrier(1), [[cell]])


def test_dumps_matches_stdlib_on_grid_tables():
    for d in grid_tables():
        assert dumps(d) == reference(d.to_json())


def test_dumps_matches_stdlib_on_systems_of_grid_tables():
    tables = list(grid_tables())
    for n in {d.n for d in tables}:
        system = PseudometricSystem(Carrier(n), [d for d in tables if d.n == n])
        assert dumps(system) == reference(system.to_json())


def test_dumps_renders_a_table_without_its_to_json(monkeypatch):
    tables = list(grid_tables())
    expected = [reference(d.to_json()) for d in tables]

    def refused(self):
        raise AssertionError("to_json called")

    monkeypatch.setattr(Pseudometric, "to_json", refused)
    assert [dumps(d) for d in tables] == expected


Text = type("Text", (str,), {})


@pytest.mark.parametrize(
    "payload",
    [
        {"x": 0.5},
        [1, [2, float("inf")]],
        {2: "int key", 1: None},
        {"s": Text("sub")},
        [Text("sub")],
        ["a", Text("sub")],
        [["a"], [Text("sub")]],
        [[0, 1], [0.5, 1]],
        {"set": {1, 2}},
    ],
    ids=["float", "nested float", "int keys", "str subclass", "str subclass in a list",
         "str subclass after a str", "str subclass in a row", "float in a row", "set"],
)
def test_dumps_refuses_values_outside_the_library_shapes(payload):
    with pytest.raises(TypeError):
        dumps(payload)


def test_a_str_subclass_cell_equal_to_a_str_cell_of_a_table_renders_as_the_stdlib_does():
    # the type test sees the distinct cells, where the subclass cell is the str cell
    for payload in ([["a", Text("a")]], [["0", "1/2"], [Text("1/2"), "0"]]):
        assert dumps(payload) == reference(payload)


def test_dumps_leaves_no_garbage():
    payloads = [s.to_json() for s in readme_structures()] + list(grid_tables())
    gc.collect()
    gc.disable()
    try:
        for payload in payloads:
            dumps(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
