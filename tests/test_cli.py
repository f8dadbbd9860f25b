"""The command-line surface: verbs, exit codes, and determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import and_
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrauniform.cli import (
    GEN_CAPS,
    _STRUCTURE_VERBS,
    congruence_relation,
    ideal_chain_basis,
    main,
    padic_pseudometric,
    padic_valuation,
)
from ultrauniform.core import N_CAP, Carrier, Relation, ValidationError, is_equivalence
from ultrauniform.jsonio import _DETECTORS, dumps
from ultrauniform.oracle import check_strong_triangle, eq_closure
from ultrauniform.pseudometric import Pseudometric, PseudometricSystem, basis_from_system
from ultrauniform.topology import sierpinski_topology
from ultrauniform.uniformity import MEET_CAP, CoverBasis, DiagonalBasis, uniformity_equal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


C3 = Carrier(3)
E01 = eq_closure(Relation.from_pairs(C3, [(0, 1)]))
BASIS_JSON = json.dumps(DiagonalBasis(C3, [E01]).to_json())
SIERPINSKI_JSON = json.dumps(sierpinski_topology().to_json())
NA_BASIS_JSON = json.dumps(
    {"n": 4, "entourages": [
        {"n": 4, "pairs": [[x, y] for x in range(4) for y in range(4) if x // 2 == y // 2]},
        {"n": 4, "pairs": [[x, y] for x in range(4) for y in range(4) if x % 3 == y % 3]},
    ]}
)
COVERS_JSON = json.dumps({"n": 4, "covers": [[[0, 1], [2, 3]], [[0, 1, 2], [3]], [[0], [1, 2, 3]]]})
TOPOLOGY_JSON = json.dumps({"n": 4, "opens": [[], [0, 1], [2], [3], [0, 1, 2], [0, 1, 3], [2, 3],
                                              [0, 1, 2, 3]]})
PSEUDO_JSON = json.dumps(
    DiagonalBasis(
        C3,
        [Relation.from_pairs(C3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)])],
    ).to_json()
)


class TestGenPadic:
    def test_values_and_ultrametricity(self, capsys):
        code, obj = run(capsys, "gen", "padic", "--p", "2", "--size", "8")
        assert code == 0
        d = Pseudometric.from_json(obj)
        # spot values straight from the valuation definition
        for x in range(8):
            for y in range(8):
                if x == y:
                    assert d.d(x, y) == 0
                else:
                    v = padic_valuation(x - y, 2)
                    assert d.d(x, y).denominator == 2**v and d.d(x, y).numerator == 1
        assert check_strong_triangle(d.dist)

    def test_n_alias(self, capsys):
        code1, obj1 = run(capsys, "gen", "padic", "--p", "3", "--size", "9")
        code2, obj2 = run(capsys, "gen", "padic", "--p", "3", "--n", "9")
        assert code1 == code2 == 0
        assert obj1 == obj2

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_grid_equals_fraction_reference(self, capsys, p):
        for size in range(1, 41):
            reference = [[Fraction(0)] * size for _ in range(size)]
            for x in range(size):
                for y in range(size):
                    if x != y:
                        v, gap = 0, abs(x - y)
                        while gap % p == 0:
                            v, gap = v + 1, gap // p
                        reference[x][y] = Fraction(1, p**v)
            built = padic_pseudometric(p, size)
            expected = Pseudometric(Carrier(size), reference)
            assert built == expected and hash(built) == hash(expected)
            assert built.values() == expected.values()
            assert built.dist == expected.dist == tuple(map(tuple, reference))
            assert main(["gen", "padic", "--p", str(p), "--size", str(size)]) == 0
            assert capsys.readouterr().out == dumps(expected)

    def test_missing_size(self, capsys):
        code, obj = run(capsys, "gen", "padic", "--p", "2")
        assert code == 2
        assert "size" in obj["error"]


class TestGenIdealChain:
    def test_congruence_entourages(self, capsys):
        code, obj = run(
            capsys, "gen", "ideal-chain", "--modulus", "27", "--ideal", "3", "--depth", "3"
        )
        assert code == 0
        basis = DiagonalBasis.from_json(obj)
        assert basis.n == 27
        assert len(basis.entourages) == 4
        for e in basis.entourages:
            assert is_equivalence(e)
        expected = {congruence_relation(27, 3**k) for k in range(4)}
        assert set(basis.entourages) == expected

    def test_check_na_on_generated_basis(self, capsys):
        _, obj = run(
            capsys, "gen", "ideal-chain", "--modulus", "27", "--ideal", "3", "--depth", "3"
        )
        code, verdict = run(capsys, "check-na", "--in", json.dumps(obj))
        assert code == 0
        assert verdict["non_archimedean"] is True


class TestGenCaps:
    # only cap + 1 is run: each refusal comes before anything is built
    @pytest.mark.parametrize("kind, option", [
        ("padic", "--size"), ("padic", "--n"), ("ideal-chain", "--modulus"),
        ("ideal-chain", "--depth"),
    ])
    def test_one_over_a_cap_exits_two_naming_it(self, capsys, kind, option):
        cap = GEN_CAPS[option]
        code, obj = run(capsys, "gen", kind, option, str(cap + 1))
        assert code == 2
        assert obj == {"error": f"gen: {option} {cap + 1} is over its cap of {cap}"}

    @pytest.mark.parametrize("kind, args, option", [
        ("padic", ["--size", "3"], "--modulus"), ("padic", ["--size", "3"], "--depth"),
        ("padic", ["--size", "3"], "--n"), ("ideal-chain", [], "--size"),
        ("ideal-chain", [], "--n"),
    ])
    def test_an_option_the_kind_does_not_read_is_not_capped(self, capsys, kind, args, option):
        code, obj = run(capsys, "gen", kind, *args, option, str(GEN_CAPS[option] + 1))
        assert code == 0
        expected = run(capsys, "gen", kind, *args)
        assert (code, obj) == expected


class TestJsonSizeCap:
    """One helper reads every JSON structure's "n" and refuses one over N_CAP."""

    over = N_CAP + 1
    message = f"field 'n' {N_CAP + 1} is over its cap of {N_CAP}"

    def test_every_gen_output_reads_back(self):
        assert N_CAP >= max(GEN_CAPS["--size"], GEN_CAPS["--n"], GEN_CAPS["--modulus"])

    def test_the_entry_point_reads_the_cap_without_loading_cli_again(self):
        # run as `python -m`, cli is __main__, so reading the cap from cli would import it twice
        probe = fresh_python("-X", "importtime", "-m", "ultrauniform.cli", "validate", "--in",
                             BASIS_JSON)
        assert probe.returncode == 0, probe.stderr
        assert "| ultrauniform.core\n" in probe.stderr
        assert "| ultrauniform.cli\n" not in probe.stderr

    def test_a_structure_at_the_cap_is_read(self, capsys):
        assert run(capsys, "validate", "--in", json.dumps({"n": N_CAP, "pairs": []})) == (
            0, {"valid": True, "violations": []}
        )

    @pytest.mark.parametrize("field, value", [
        ("pairs", []), ("blocks", [[0]]), ("entourages", [{"n": 1, "pairs": [[0, 0]]}]),
        ("covers", [[[0]]]), ("opens", [[], [0]]), ("dist", [[0]]),
        ("metrics", [{"n": 1, "dist": [[0]]}]), ("steps", [{"n": 1, "pairs": [[0, 0]]}]),
    ])
    def test_one_over_the_cap_exits_two_naming_it(self, capsys, field, value):
        code, obj = run(capsys, "validate", "--in", json.dumps({"n": self.over, field: value}))
        assert (code, obj) == (2, {"error": self.message})

    @pytest.mark.parametrize("field, member", [
        ("entourages", {"pairs": []}), ("metrics", {"dist": []}), ("steps", {"pairs": []}),
    ])
    def test_a_member_over_the_cap_is_named(self, capsys, field, member):
        payload = {"n": 1, field: [{"n": self.over, **member}]}
        code, obj = run(capsys, "validate", "--in", json.dumps(payload))
        assert (code, obj) == (2, {"error": f"{field}[0]: {self.message}"})


def pinched_covers(k, extra=0):
    """The covers {X - {i}, X - {i + k}} of X = 2k + extra points.

    R_F is not transitive, and F has 2^k sets, each holding the extra points.
    """
    full = range(2 * k + extra)
    return {"n": len(full), "covers": [[[x for x in full if x != i], [x for x in full if x != i + k]]
                                       for i in range(k)]}


class TestCoverMeetCap:
    """An invalid cover basis builds its meet F only while each step stays under MEET_CAP."""

    def test_the_largest_meet_under_the_cap_keeps_its_report(self, capsys):
        assert MEET_CAP == 2**18  # F of 18 covers reaches it exactly
        code = main(["validate", "--in", json.dumps(pinched_covers(18))])
        out = capsys.readouterr().out
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "590882eaa7bef1867f7d48fe04e54ce91823ec3d1ff310a6e3920eb69376e279"
        )

    def test_stars_take_no_longer_as_the_sets_grow(self, capsys):
        # 200 more points in every set of F leave the distinct rows of R_F at 2k + 1
        payload = json.dumps(pinched_covers(14, extra=200))
        started = time.perf_counter()
        code = main(["validate", "--in", payload])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "882a3d7bc6886b17d11631b9b3de500c045c684c4e374c447769816bf9c82b02"
        )
        assert elapsed < 0.5, elapsed

    @pytest.mark.parametrize("argv", [["validate"], ["convert", "--to", "diagonal"], ["roundtrip"]],
                             ids=["validate", "convert", "roundtrip"])
    def test_one_step_over_the_cap_exits_two_naming_it(self, capsys, argv):
        code, obj = run(capsys, *argv, "--in", json.dumps(pinched_covers(19)))
        message = f"the meet of the covers is over its cap of {MEET_CAP} sets"
        assert (code, obj) == (2, {"error": message})


class TestTopoCheck:
    def test_sierpinski_all_false_exit_one(self, capsys):
        code, obj = run(capsys, "topo-check", "--in", SIERPINSKI_JSON)
        assert code == 1
        assert obj == {"T_A": False, "zero_dim": False, "uniformizable": False}

    def test_discrete_all_true(self, capsys):
        topo = json.dumps({"n": 2, "opens": [[], [0], [1], [0, 1]]})
        code, obj = run(capsys, "topo-check", "--in", topo)
        assert code == 0
        assert obj == {"T_A": True, "zero_dim": True, "uniformizable": True}


class TestValidate:
    def test_validate_table_covers_every_detected_type(self):
        for _, module, name, validator in _DETECTORS:
            layer = importlib.import_module(f"ultrauniform.{module}")
            assert isinstance(getattr(layer, name), type)
            assert validator is None or callable(getattr(layer, validator))

    def test_validate_refuses_a_type_it_does_not_know(self):
        renamed = type("RenamedBasis", (DiagonalBasis,),
                       {"__module__": "ultrauniform.uniformity", "__slots__": ()})
        structure = DiagonalBasis.from_json(json.loads(NA_BASIS_JSON))
        structure.__class__ = renamed
        kinds, _, validate = _STRUCTURE_VERBS["validate"]
        assert kinds is None
        with pytest.raises(KeyError):
            validate(structure)

    def test_valid_basis(self, capsys):
        code, obj = run(capsys, "validate", "--in", BASIS_JSON)
        assert code == 0
        assert obj == {"valid": True, "violations": []}

    def test_invalid_basis_exit_one(self, capsys):
        code, obj = run(capsys, "validate", "--in", PSEUDO_JSON)
        assert code == 1
        assert obj["valid"] is False
        assert obj["violations"][0]["axiom"] == "composition"

    def test_malformed_json_exit_two(self, capsys):
        code, obj = run(capsys, "validate", "--in", "{not json")
        assert code == 2
        assert "malformed JSON" in obj["error"]

    def test_unknown_shape_exit_two(self, capsys):
        code, obj = run(capsys, "validate", "--in", '{"n": 3}')
        assert code == 2
        assert "cannot detect" in obj["error"]

    def test_zero_denominator_exit_two(self, capsys):
        payload = '{"n": 2, "dist": [["0", "1/0"], ["1/0", "0"]]}'
        code, obj = run(capsys, "validate", "--in", payload)
        assert code == 2
        assert "zero denominator" in obj["error"]

    def test_bad_field_named(self, capsys):
        code, obj = run(capsys, "validate", "--in", '{"n": 3, "pairs": [[0]]}')
        assert code == 2
        assert "pairs" in obj["error"]

    @pytest.mark.parametrize(
        "verb, payload, field",
        [
            ("validate", '{"n": 2, "pairs": [[0.5, 1]]}', "pairs[0][0]"),
            ("check-na", '{"n": 2, "entourages": [{"n": 2, "pairs": [[0, 0], [1, "1"]]}]}',
             "pairs[1][1]"),
            ("validate", '{"n": 2, "blocks": [[0, 1.0]]}', "blocks[0][1]"),
            ("validate", '{"n": 2, "pairs": [[true, 1]]}', "pairs[0][0]"),
            ("topo-check", '{"n": 2, "opens": [[], [-1], [0, 1]]}', "opens[1][0]"),
            ("validate", '{"n": 2, "covers": [[[0], [1, 2]]]}', "covers[0][1][1]"),
        ],
    )
    def test_bad_point_index_exit_two(self, capsys, verb, payload, field):
        code, obj = run(capsys, verb, "--in", payload)
        assert code == 2
        assert f"field '{field}' must be a point index in 0..1" in obj["error"]

    @pytest.mark.parametrize(
        "payload, message",
        [
            ('{"n": 2, "metrics": [5]}', "field 'metrics[0]' must be a pseudo-metric object"),
            ('{"n": 2, "steps": [5]}', "field 'steps[0]' must be a relation object"),
        ],
    )
    def test_non_object_member_exit_two(self, capsys, payload, message):
        code, obj = run(capsys, "validate", "--in", payload)
        assert code == 2
        assert obj == {"error": message}

    @pytest.mark.parametrize(
        "payload, member, field",
        [
            ('{"n": 2, "entourages": [{"n": 2, "pairs": [[0, 0], [1, "1"]]}]}',
             "entourages[0]", "pairs[1][1]"),
            ('{"n": 2, "steps": [{"n": 2, "pairs": [[0, 1], [1, 0], [0, 0], [1, 1]]},'
             ' {"n": 2, "pairs": [[0, 0], [true, 1]]}]}', "steps[1]", "pairs[1][0]"),
            ('{"n": 2, "metrics": [{"n": 2, "dist": "nope"}]}', "metrics[0]", "dist"),
        ],
    )
    def test_nested_error_names_member_and_field(self, capsys, payload, member, field):
        code, obj = run(capsys, "validate", "--in", payload)
        assert code == 2
        assert obj["error"].startswith(f"{member}: field '{field}' must be ")

    def test_boolean_distance_exit_two(self, capsys):
        code, obj = run(capsys, "validate", "--in", '{"n": 2, "dist": [[0, true], [true, 0]]}')
        assert code == 2
        assert obj == {"error": "field 'dist[0][1]' is not an exact rational: True"}

    @pytest.mark.parametrize(
        "dist, message",
        [
            ('[[0, "1/2"], ["1/0", 0]]', "field 'dist[1][0]' has a zero denominator: '1/0'"),
            ('[[0, "half"], ["1/2", 0]]', "field 'dist[0][1]' is not an exact rational: 'half'"),
            ('[[0, "0.5"], ["0.5", 0]]', "field 'dist[0][1]' is not an exact rational: '0.5'"),
            ('[[0, "1/2"], ["1e3", 0]]', "field 'dist[1][0]' is not an exact rational: '1e3'"),
        ],
    )
    def test_bad_distance_names_its_cell(self, capsys, dist, message):
        code, obj = run(capsys, "validate", "--in", f'{{"n": 2, "dist": {dist}}}')
        assert code == 2
        assert obj == {"error": message}

    def test_huge_exponent_refused_before_any_work(self):
        # Fraction("1e1000000000") would build a 415 MB integer: the child
        # runs under a 512 MB address-space limit and a 20 s timeout
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        cell = '"1e1000000000"'
        proc = subprocess.run(
            [sys.executable, "-m", "ultrauniform.cli", "metrize", "--in",
             f'{{"n": 2, "dist": [[0, {cell}], [{cell}, 0]]}}'],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=20, preexec_fn=limit_memory,
        )
        assert proc.returncode == 2, proc.stderr[-500:]
        message = "field 'dist[0][1]' is not an exact rational: '1e1000000000'"
        assert json.loads(proc.stdout) == {"error": message}

    @pytest.mark.parametrize("source", ["stdin", "file"])
    def test_deeply_nested_json_exit_two(self, capsys, monkeypatch, tmp_path, source):
        text = "[" * 100000
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            where = "-"
        else:
            where = str(tmp_path / "deep.json")
            Path(where).write_text(text)
        code, obj = run(capsys, "validate", "--in", where)
        assert code == 2
        assert obj == {"error": "JSON input nests too deeply"}

    def test_inline_json_array_is_read_as_json(self, capsys):
        code, obj = run(capsys, "validate", "--in", "[1, 2]")
        assert code == 2
        assert obj == {"error": "expected a JSON object"}


class TestConvertAndRoundtrip:
    def test_convert_both_ways_through_files(self, capsys, tmp_path):
        basis_path = tmp_path / "basis.json"
        cover_path = tmp_path / "covers.json"
        basis_path.write_text(BASIS_JSON)
        code, cover_obj = run(
            capsys, "convert", "--in", str(basis_path), "--to", "cover",
            "--out", str(cover_path),
        )
        assert code == 0
        assert json.loads(cover_path.read_text()) == cover_obj
        code, back = run(capsys, "convert", "--in", str(cover_path), "--to", "diagonal")
        assert code == 0
        assert uniformity_equal(
            DiagonalBasis.from_json(back), DiagonalBasis(C3, [E01])
        )

    @pytest.mark.parametrize(
        "argv",
        [["gen", "ideal-chain", "--modulus", "4", "--depth", "1"], ["validate", "--in", "{"]],
        ids=["result", "error"],
    )
    def test_unwritable_out_exits_two_with_one_document(self, capsys, tmp_path, argv):
        where = tmp_path / "missing" / "x.json"
        assert main([*argv, "--out", str(where)]) == 2
        out = capsys.readouterr().out
        assert json.loads(out) == {"error": f"[Errno 2] No such file or directory: {str(where)!r}"}
        assert not where.exists()

    def test_convert_wrong_direction(self, capsys):
        code, obj = run(capsys, "convert", "--in", BASIS_JSON, "--to", "diagonal")
        assert code == 2
        assert "expects a cover basis" in obj["error"]

    def test_roundtrip_verb(self, capsys):
        code, obj = run(capsys, "roundtrip", "--in", BASIS_JSON)
        assert code == 0
        assert obj == {"roundtrip": True}

    def test_roundtrip_invalid_basis(self, capsys):
        code, obj = run(capsys, "roundtrip", "--in", PSEUDO_JSON)
        assert code == 2
        assert obj["report"]["violations"][0]["axiom"] == "composition"


# one basis failing each axiom first: a member off the diagonal, an asymmetric
# D_min, and a symmetric D_min that is not transitive
REFUSED_BASES = {
    "reflexivity": json.dumps({"n": 3, "entourages": [
        {"n": 3, "pairs": [[0, 0], [1, 1], [0, 1]]},
        {"n": 3, "pairs": [[x, y] for x in range(3) for y in range(3)]},
    ]}),
    "symmetry": json.dumps({"n": 3, "entourages": [
        {"n": 3, "pairs": [[0, 0], [1, 1], [2, 2], [0, 1], [0, 2]]},
        {"n": 3, "pairs": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2], [2, 1]]},
    ]}),
    "composition": PSEUDO_JSON,
}


class TestRefusalReport:
    """Every verb that needs a valid basis prints the report `validate` prints."""

    @pytest.mark.parametrize("axiom", sorted(REFUSED_BASES))
    @pytest.mark.parametrize(
        "verb",
        [["check-na"], ["pm-system"], ["convert", "--to", "cover"], ["roundtrip"], ["metrize"]],
        ids=["check-na", "pm-system", "convert-cover", "roundtrip", "metrize"],
    )
    def test_refusal_bytes(self, capsys, verb, axiom):
        basis = REFUSED_BASES[axiom]
        assert main(["validate", "--in", basis]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["violations"][0]["axiom"] == axiom
        assert main([*verb, "--in", basis]) == 2
        expected = {"error": f"invalid diagonal basis: {axiom}", "report": report}
        assert capsys.readouterr().out == dumps(expected)


class TestInternalError:
    """A fault of the program exits 3 with its type and message, never 1."""

    @pytest.mark.parametrize(
        "error, message",
        [(RuntimeError("boom"), "RuntimeError: boom"), (MemoryError(), "MemoryError: ")],
        ids=["RuntimeError", "MemoryError"],
    )
    def test_fault_in_a_verb(self, capsys, monkeypatch, error, message):
        def verb(structure):
            raise error

        monkeypatch.setitem(_STRUCTURE_VERBS, "check-na", (("DiagonalBasis",), "", verb))
        assert main(["check-na", "--in", BASIS_JSON]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"error": f"internal error: {message}"}
        assert captured.err.startswith("Traceback") and type(error).__name__ in captured.err

    def test_fault_while_building_a_refusal_report(self, capsys, monkeypatch):
        def report():
            raise MemoryError("report too large")

        def verb(structure):
            raise ValidationError("invalid diagonal basis: symmetry", report=report)

        monkeypatch.setitem(_STRUCTURE_VERBS, "check-na", (("DiagonalBasis",), "", verb))
        code, obj = run(capsys, "check-na", "--in", BASIS_JSON)
        assert code == 3
        assert obj == {"error": "internal error: MemoryError: report too large"}

    @pytest.mark.parametrize("error", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, capsys, monkeypatch, error):
        def verb(structure):
            raise error

        monkeypatch.setitem(_STRUCTURE_VERBS, "check-na", (("DiagonalBasis",), "", verb))
        with pytest.raises(error):
            main(["check-na", "--in", BASIS_JSON])
        assert capsys.readouterr().out == ""


class TestMetrizeAndSystem:
    def test_metrize(self, capsys):
        code, obj = run(capsys, "metrize", "--in", BASIS_JSON)
        assert code == 0
        d = Pseudometric.from_json(obj)
        assert d.d(0, 1) == 0 and d.d(0, 2) == 1

    def test_metrize_rejects_non_equivalence(self, capsys):
        bad = json.dumps({"n": 2, "entourages": [{"n": 2, "pairs": [[0, 0], [1, 1], [0, 1]]}]})
        code, obj = run(capsys, "metrize", "--in", bad)
        assert code == 2
        assert obj["error"] == "invalid diagonal basis: symmetry"

    def test_metrize_refuses_input_that_is_not_a_diagonal_basis(self, capsys):
        for text in ('{"n": 2, "dist": [[0, 1], [1, 0]]}', '{"n": 2, "pairs": [[0, 0]]}'):
            assert run(capsys, "metrize", "--in", text) == (
                2, {"error": "metrize expects a diagonal basis"}
            )

    def test_metrize_accepts_valid_basis_of_non_equivalences(self, capsys):
        # {0,1 | 2} with (0,2), and with (2,0): neither is symmetric, their meet is
        block = [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]
        basis = json.dumps({"n": 3, "entourages": [
            {"n": 3, "pairs": block + [[0, 2]]}, {"n": 3, "pairs": block + [[2, 0]]},
        ]})
        assert run(capsys, "validate", "--in", basis)[0] == 0
        assert run(capsys, "metrize", "--in", basis) == run(capsys, "metrize", "--in", BASIS_JSON)

    def test_pm_system_round_trips_uniformity(self, capsys):
        code, obj = run(capsys, "pm-system", "--in", BASIS_JSON)
        assert code == 0
        system = PseudometricSystem.from_json(obj)
        assert uniformity_equal(basis_from_system(system), DiagonalBasis(C3, [E01]))


CONGRUENCE_BASIS_JSON = json.dumps(
    {"n": 12, "entourages": [
        {"n": 12, "pairs": [[x, y] for x in range(12) for y in range(12) if (x - y) % m == 0]}
        for m in (2, 4, 12)
    ] + [{"n": 12, "pairs": [[x, x] for x in range(12)] + [[0, 1]]}]}
)


class TestMetricOutputIsPinned:
    """Exit code and stdout sha256 of the verbs that build distance tables, taken before
    those tables skipped the tests their builders prove."""

    @pytest.mark.parametrize("argv, digest", [
        (["gen", "padic", "--p", "2", "--size", "64"],
         "8d76f5e04a095b45214b985b497e3e05ed51367814b69e2253c13ddb7c8510ed"),
        (["gen", "padic", "--p", "3", "--size", "128"],
         "51d7c3b5722a6ac98ff59859f8a3bb4737e9dc8a881596e6b095d903d78f0a98"),
        (["gen", "padic", "--p", "5", "--size", "100"],
         "c7b6cfe77196eb89e14ed857afc14f57c3c457cacbf7851b584afe039416b707"),
        (["metrize", "--in", NA_BASIS_JSON],
         "e619c26c5fc5197cfa442bfe62fa6fa4c55ceeb8d7c71456fc212b511477cea1"),
        (["metrize", "--in", CONGRUENCE_BASIS_JSON],
         "fd4ba1593241068e1dabbcdfb0318197245d292f92addba7083a6f6cd864570a"),
        (["pm-system", "--in", NA_BASIS_JSON],
         "7b432ecc10dd5b98a3845ec27c12506c2b230e0137c37e73255046f3d651ad6e"),
        (["pm-system", "--in", CONGRUENCE_BASIS_JSON],
         "b09c6f61e7aa299ef7383d524fccdde0bd7e43badc97921dbbd0516a4b073b8a"),
    ], ids=["padic 2 64", "padic 3 128", "padic 5 100", "metrize na", "metrize congruences",
            "pm-system na", "pm-system congruences"])
    def test_stdout_digest(self, capsys, argv, digest):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# one valid input of each detected type, in `_DETECTORS` order, then an invalid
# diagonal basis and an invalid cover basis (R_F not transitive, so F is built)
STRUCTURE_INPUTS = [
    NA_BASIS_JSON,
    COVERS_JSON,
    TOPOLOGY_JSON,
    json.dumps({"n": 3, "dist": [["0", "1/2", "1"], ["1/2", "0", "1"], ["1", "1", "0"]]}),
    json.dumps({"n": 3, "metrics": [
        {"n": 3, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        {"n": 3, "dist": [[0, 0, "1/3"], [0, 0, "1/3"], ["1/3", "1/3", 0]]},
    ]}),
    json.dumps({"n": 3, "steps": [
        {"n": 3, "pairs": [[x, y] for x in range(3) for y in range(3)]},
        {"n": 3, "pairs": [[0, 0], [0, 1], [1, 0], [1, 1], [2, 2]]},
    ]}),
    json.dumps({"n": 3, "pairs": [[0, 0], [0, 2], [1, 1], [2, 2]]}),
    json.dumps({"n": 4, "blocks": [[0, 3], [1], [2]]}),
    REFUSED_BASES["symmetry"],
    json.dumps({"n": 4, "covers": [[[0, 1], [1, 2], [2, 3]], [[0, 1, 2], [3]]]}),
]


class TestStructureVerbOutputIsPinned:
    """Per structure verb form, the sha256 of its exit codes and stdout on every input of
    `STRUCTURE_INPUTS` in turn: every result, wrong-kind refusal and refusal report."""

    @pytest.mark.parametrize("argv, digest", [
        (["validate"],
         "d8e1f7c75997452194b41b8253a04ed03920e1be34ec28e25c08491aedbd5a3f"),
        (["convert", "--to", "cover"],
         "cf1aa41100c2590d557d7ed8eae98edb56909c38e6ad61c91683342481a1573a"),
        (["convert", "--to", "diagonal"],
         "45a6620ce2d069c6170b148e7df075587857c7372a2b5a63e51beb8a8ab717b4"),
        (["check-na"],
         "a893662f7e544cacff9b890539601bb3e8cc568bafe19134b4d94febfe2958f3"),
        (["metrize"],
         "94e71240ccbdeff61f2914dcd511d4b56e1c1eb648e34c9db72823cfe473807c"),
        (["pm-system"],
         "f0081c4c975372116713508c7f7b303b043ef905c8e8899bb7a7ca6b8411304a"),
        (["topo-check"],
         "595f2cf7409ee38eb5899bf25fe3c66e82861dfa04352cc05fd5b2683e07546b"),
        (["uniformize"],
         "fcef29d420129d35605ce8dba6a254bebf5786ef3136b5eacd272f71e21c74fc"),
        (["roundtrip"],
         "fff1a1cf5898c4e3f85e2699deeaf706c15cd2209303f3bfb4d3ba4a9bba8ce7"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_outputs_digest(self, capsys, argv, digest):
        sha = hashlib.sha256()
        for text in STRUCTURE_INPUTS:
            code = main([*argv, "--in", text])
            sha.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert sha.hexdigest() == digest


class TestUniformize:
    def test_sierpinski(self, capsys):
        code, obj = run(capsys, "uniformize", "--in", SIERPINSKI_JSON)
        assert code == 1
        assert obj == {"uniformizable": False, "witness": None}

    def test_partition_topology(self, capsys):
        topo = json.dumps({"n": 3, "opens": [[], [0, 1], [2], [0, 1, 2]]})
        code, obj = run(capsys, "uniformize", "--in", topo)
        assert code == 0
        witness = DiagonalBasis.from_json(obj["witness"])
        assert uniformity_equal(witness, DiagonalBasis(C3, [E01]))

    def test_discrete_n9_within_budget(self, capsys):
        # the witness is {Q}, the identity here; the whole closure of the
        # clopen agreement relations would have Bell(9) = 21147 members
        c9 = Carrier(9)
        opens = [[x for x in range(9) if m >> x & 1] for m in range(1 << 9)]
        text = json.dumps({"n": 9, "opens": opens})
        started = time.perf_counter()
        code = main(["uniformize", "--in", text])
        elapsed = time.perf_counter() - started
        obj = json.loads(capsys.readouterr().out)
        assert code == 0 and obj["uniformizable"] is True
        assert obj["witness"] == DiagonalBasis(c9, [Relation.identity(c9)]).to_json()
        assert elapsed < 1.0, f"uniformize took {elapsed:.2f}s on the discrete 9-point topology"


# Sweep stdout recorded before the sweeps were folded into one table, as
# (theorem, arguments after --theorem, checked, satisfying, seed); every one
# had no discrepancy and exited 0.  Each row runs under the id and its alias.
# The exhaustive T4.1 rows for n <= 3 were recorded again when that sweep was
# widened from equivalence bases to every valid basis of at most two
# reflexive relations; its seeded rows keep their counts with the new draws.
PINNED_SWEEPS = [
    ("T2.4", "--n 1", 1, 1, None),
    ("T2.4", "--n 2", 3, 3, None),
    ("T2.4", "--n 3", 25, 25, None),
    ("T2.4", "--n 4", 575, 575, None),
    ("T2.4", "--n 5 --trials 7 --seed 3", 7, 7, 3),
    ("T2.4", "--n 4 --seed 11", 100, 100, 11),
    ("T2.4", "--n 6 --trials 20", 20, 20, 1729),
    ("T3.2", "--n 1", 1, 1, None),
    ("T3.2", "--n 2", 4, 2, None),
    ("T3.2", "--n 3", 29, 5, None),
    ("T3.2", "--n 4", 355, 15, None),
    ("T4.1", "--n 1", 1, 1, None),
    ("T4.1", "--n 2", 6, 6, None),
    ("T4.1", "--n 3", 489, 489, None),
    ("T4.1", "--n 4", 575, 575, None),
    ("T4.1", "--n 5 --trials 7 --seed 3", 7, 7, 3),
    ("T4.1", "--n 4 --seed 11", 100, 100, 11),
    ("T4.1", "--n 6 --trials 20", 20, 20, 1729),
    ("R2.1-roundtrip", "--n 1", 2, 2, None),
    ("R2.1-roundtrip", "--n 2", 17, 17, None),
    ("R2.1-roundtrip", "--n 3", 3616, 3616, None),
    ("R2.1-roundtrip", "--n 4", 30, 30, None),
    ("R2.1-roundtrip", "--n 5 --trials 7 --seed 3", 14, 14, 3),
    ("R2.1-roundtrip", "--n 4 --seed 11", 200, 200, 11),
    ("R2.1-roundtrip", "--n 6 --trials 20", 40, 40, 1729),
]
# the largest inputs inside the caps, recorded the same way, under the id only
PINNED_SWEEPS_AT_CAPS = [
    ("R2.1-roundtrip", "--n 8", 8280, 8280, None),
    ("R2.1-roundtrip", "--n 8 --trials 1000", 2000, 2000, 1729),
]
SWEEP_ALIASES = {
    "T2.4": "representations", "T3.2": "separation", "T4.1": "metrization",
    "R2.1-roundtrip": "roundtrip",
}
SWEEP_REPORT = (
    '{{\n  "checked": {},\n  "discrepancies": 0,\n  "first_counterexample": null,\n'
    '  "n": {},\n  "satisfying": {},\n  "seed": {},\n  "theorem": "{}"\n}}\n'
)


def sweep_params():
    for rows, aliased in ((PINNED_SWEEPS, True), (PINNED_SWEEPS_AT_CAPS, False)):
        for theorem, args, checked, satisfying, seed in rows:
            n = args.split()[1]
            stdout = SWEEP_REPORT.format(
                checked, n, satisfying, "null" if seed is None else seed, theorem
            )
            for name in [theorem] + [SWEEP_ALIASES[theorem]] * aliased:
                yield pytest.param(["--theorem", name, *args.split()], stdout, id=f"{name} {args}")


def fails_on_a_cover_basis(structure):
    """A stub of `roundtrip` that holds on every diagonal basis, so a sweep first fails on
    the cover side."""
    return not isinstance(structure, CoverBasis)


class TestSweepVerb:
    @pytest.mark.parametrize("argv, stdout", sweep_params())
    def test_output_is_pinned(self, capsys, monkeypatch, argv, stdout):
        monkeypatch.delenv("ULTRAUNIFORM_SEED", raising=False)
        assert main(["sweep", *argv]) == 0
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize(
        "argv, error",
        [
            ("T2.4 --n 3 --trials 0", "trials must be between 1 and 1000, got 0"),
            ("T2.4 --n 3 --trials -1", "trials must be between 1 and 1000, got -1"),
            ("T4.1 --n 3 --trials 1001", "trials must be between 1 and 1000, got 1001"),
            ("T2.4 --n 60 --trials 1", "sampled enumeration capped at n=8"),
            ("roundtrip --n 9 --seed 1", "sampled enumeration capped at n=8"),
            ("T3.2 --n 3 --trials 5", "the T3.2 sweep is exhaustive only: no trials or seed"),
            ("separation --n 3 --seed 5", "the T3.2 sweep is exhaustive only: no trials or seed"),
            ("T2.4 --n 5", "exhaustive equivalence basis enumeration capped at n=4"),
            ("metrization --n 5", "exhaustive equivalence basis enumeration capped at n=4"),
            ("R2.1-roundtrip --n 9", "exhaustive uniformity enumeration capped at n=8"),
            ("T3.2 --n 5", "exhaustive topology enumeration capped at n=4"),
            ("T2.4 --n 0", "carrier needs a positive number of points"),
        ],
    )
    def test_input_over_a_cap_is_refused(self, capsys, argv, error):
        theorem, *rest = argv.split()
        code, obj = run(capsys, "sweep", "--theorem", theorem, *rest)
        assert code == 2
        assert obj == {"error": error}

    @pytest.mark.parametrize(
        "patched, stub, argv, first",
        [
            (
                "roundtrip", lambda structure: False, ["roundtrip", "--n", "2"],
                {"basis": {"n": 2, "entourages": [
                    {"n": 2, "pairs": [[0, 0], [0, 1], [1, 0], [1, 1]]}
                ]}, "problem": "diagonal round trip moved the uniformity"},
            ),
            (
                "roundtrip", fails_on_a_cover_basis, ["roundtrip", "--n", "2"],
                {"cover_basis": {"n": 2, "covers": [[[0, 1]]]},
                 "problem": "covering round trip moved the uniformity"},
            ),
            (
                "roundtrip", fails_on_a_cover_basis, ["roundtrip", "--n", "4"],
                {"cover_basis": {"n": 4, "covers": [[[0, 1, 2, 3]]]},
                 "problem": "covering round trip moved the uniformity"},
            ),
            (
                "is_zero_dimensional", lambda structure: False, ["T3.2", "--n", "2"],
                {"topology": {"n": 2, "opens": [[], [0, 1]]},
                 "problem": "verdicts differ: separation=True zero_dim=False uniformizable=True"},
            ),
        ],
        ids=["basis", "cover_basis", "cover_basis n=4", "topology"],
    )
    def test_first_counterexample(self, capsys, monkeypatch, patched, stub, argv, first):
        # a check made to fail reports its first instance, keyed by the instance's type
        monkeypatch.setattr(f"ultrauniform.oracle.{patched}", stub)
        code, obj = run(capsys, "sweep", "--theorem", *argv)
        assert code == 1
        assert obj["first_counterexample"] == first

    def test_bad_env_seed_is_named(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAUNIFORM_SEED", "abc")
        code, obj = run(capsys, "sweep", "--theorem", "T2.4", "--n", "3", "--trials", "2")
        assert code == 2
        assert obj == {"error": "ULTRAUNIFORM_SEED must be an integer, got 'abc'"}

    def test_exhaustive_separation(self, capsys):
        code, obj = run(capsys, "sweep", "--theorem", "T3.2", "--n", "3")
        assert code == 0
        assert (obj["checked"], obj["satisfying"], obj["discrepancies"]) == (29, 5, 0)
        assert obj["seed"] is None

    def test_sampled_with_seed_flag(self, capsys):
        code, obj = run(
            capsys, "sweep", "--theorem", "T2.4", "--n", "6", "--trials", "20", "--seed", "5"
        )
        assert code == 0
        assert obj["checked"] == 20
        assert obj["seed"] == 5

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ULTRAUNIFORM_SEED", "777")
        code, obj = run(capsys, "sweep", "--theorem", "T4.1", "--n", "5", "--trials", "10")
        assert code == 0
        assert obj["seed"] == 777

    def test_unknown_theorem(self, capsys):
        code, obj = run(capsys, "sweep", "--theorem", "T0.0", "--n", "2")
        assert code == 2
        assert "unknown sweep" in obj["error"]


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        main(["gen", "padic", "--p", "5", "--size", "25"])
        first = capsys.readouterr().out
        main(["gen", "padic", "--p", "5", "--size", "25"])
        second = capsys.readouterr().out
        assert first == second

    def test_convert_deterministic(self, capsys):
        main(["convert", "--in", BASIS_JSON, "--to", "cover"])
        first = capsys.readouterr().out
        main(["convert", "--in", BASIS_JSON, "--to", "cover"])
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--in", NA_BASIS_JSON],
            ["check-na", "--in", NA_BASIS_JSON],
            ["convert", "--in", COVERS_JSON, "--to", "diagonal"],
            ["metrize", "--in", NA_BASIS_JSON],
            ["pm-system", "--in", NA_BASIS_JSON],
            ["topo-check", "--in", TOPOLOGY_JSON],
            ["uniformize", "--in", TOPOLOGY_JSON],
            ["roundtrip", "--in", COVERS_JSON],
            ["gen", "ideal-chain", "--modulus", "12", "--ideal", "2", "--depth", "2"],
            pytest.param(["sweep", "--theorem", "roundtrip", "--n", "3"], id="sweep exhaustive"),
            pytest.param(
                ["sweep", "--theorem", "roundtrip", "--n", "6", "--trials", "30", "--seed", "4"],
                id="sweep seeded",
            ),
        ],
        ids=lambda argv: " ".join(argv[:2] if argv[0] == "gen" else argv[:1]),
    )
    def test_verb_output_is_byte_identical_across_processes(self, argv):
        # distinct hash seeds, so set and dict order cannot leak into stdout
        runs = [
            fresh_python("-m", "ultrauniform.cli", *argv, env={"PYTHONHASHSEED": seed})
            for seed in ("1", "2")
        ]
        assert all(run.returncode == 0 for run in runs), [run.stdout for run in runs]
        assert runs[0].stdout == runs[1].stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--theorem", "T2.4", "--n", "4", "--trials", "5", "--seed", "7"],
            ["sweep", "--theorem", "T3.2", "--n", "3"],
        ],
    )
    def test_sweep_deterministic(self, capsys, argv):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


def relabelled_cover(cover, pi):
    return tuple(sorted(tuple(sorted(pi[x] for x in s)) for s in cover))


def relabelled_pairs(relation, pi):
    return tuple(sorted((pi[x], pi[y]) for x, y in relation["pairs"]))


def relabelled_member(witness, pi):
    """A report's failing member: a relation, or a cover as lists of points."""
    return relabelled_pairs(witness, pi) if isinstance(witness, dict) else relabelled_cover(witness, pi)


def relabelled_dist(dist, pi):
    moved = [[None] * len(dist) for _ in dist]
    for x, row in enumerate(dist):
        for y, v in enumerate(row):
            moved[pi[x]][pi[y]] = v
    return moved


def relabelled_payload(payload, pi):
    """A verb's payload with each point x renamed pi[x], in canonical order.

    Entourages, covers and metrics are sorted as the JSON format sorts them,
    the failing members of a report are a set, and a lone distance table
    (metrize's chain follows the entourage order) is taken by its zero set.
    """
    out = dict(payload)
    for key in ("report", "witness"):
        if isinstance(out.get(key), dict):
            out[key] = relabelled_payload(out[key], pi)
    if "violations" in out:
        out["violations"] = {(v["axiom"], relabelled_member(v["witness"], pi)) for v in out["violations"]}
    if "entourages" in out:
        out["entourages"] = sorted(relabelled_pairs(e, pi) for e in out["entourages"])
    if "covers" in out:
        out["covers"] = sorted(relabelled_cover(c, pi) for c in out["covers"])
    if "metrics" in out:
        out["metrics"] = sorted(relabelled_dist(m["dist"], pi) for m in out["metrics"])
    if "dist" in out:
        out["dist"] = sorted(
            (pi[x], pi[y]) for x, row in enumerate(out["dist"]) for y, v in enumerate(row) if v == "0/1"
        )
    return out


def run_each(capsys, verb, payloads):
    """(exit code, payload) of `verb` on each JSON input."""
    outputs = []
    for payload in payloads:
        code = main([*verb, "--in", json.dumps(payload)])
        outputs.append((code, json.loads(capsys.readouterr().out)))
    return outputs


class TestCoverRelabelling:
    """The cover verbs commute with renaming the points, shuffling and duplicating covers."""

    @staticmethod
    def cover_bases(rng):
        from ultrauniform.oracle import random_cover_basis, random_equivalence

        for i in range(150):
            n = rng.randint(2, 7)
            if i % 3 == 0:
                yield random_cover_basis(rng, n).to_json()["covers"]
            elif i % 3 == 1:  # a partition, and a cover of each block B by B - {a}, B - {b}, B - {c}
                classes = dict.fromkeys(random_equivalence(rng, n).rows)  # by least point
                blocks = [[x for x in range(n) if c >> x & 1] for c in classes]
                triangles = [
                    [x for x in b if x != y] for b in blocks if len(b) > 2 for y in rng.sample(b, 3)
                ]
                yield [blocks, triangles + [b for b in blocks if len(b) < 3]]  # invalid iff len(b) > 2
            else:  # random sets plus the rest of the carrier: mostly invalid
                full = (1 << n) - 1
                covers = []
                for _ in range(rng.randint(1, 3)):
                    sets = [rng.randint(1, full) for _ in range(rng.randint(1, n))]
                    sets.append(full & ~sets[0] or full)
                    covers.append([[x for x in range(n) if m >> x & 1] for m in sets])
                yield covers

    def test_validate_convert_roundtrip_commute_with_relabelling(self, capsys):
        rng = random.Random(20261022)
        verbs = (["validate"], ["convert", "--to", "diagonal"], ["roundtrip"])
        codes = {0: 0, 1: 0, 2: 0}
        for covers in self.cover_bases(rng):
            n = 1 + max(x for c in covers for s in c for x in s)
            pi = rng.sample(range(n), n)
            moved = [[[pi[x] for x in s] for s in c] for c in covers for _ in range(rng.randint(1, 2))]
            rng.shuffle(moved)
            for verb in verbs:
                (code, out), (moved_code, moved_out) = run_each(
                    capsys, verb, [{"n": n, "covers": basis} for basis in (covers, moved)]
                )
                assert moved_code == code, (verb, covers, pi)
                assert relabelled_payload(moved_out, range(n)) == relabelled_payload(out, pi)
                codes[code] += 1
        assert min(codes.values()) >= 20, codes


class TestDiagonalRelabelling:
    """The diagonal verbs commute with renaming the points, shuffling and duplicating entourages."""

    @staticmethod
    def diagonal_bases(rng):
        """150 bases on 2-8 points; each odd one is spoiled, so that about half are invalid."""
        from ultrauniform.oracle import random_equivalence_basis, random_valid_basis

        for i in range(150):
            n = rng.randint(2, 8)
            draw = random_valid_basis if i % 4 < 2 else random_equivalence_basis
            rows = [list(e.rows) for e in draw(rng, n).entourages]
            d_min = [reduce(and_, column) for column in zip(*rows)]
            outside = [(x, y) for x in range(n) for y in range(n) if not d_min[x] >> y & 1]
            x, y = rng.choice(outside) if outside else (0, 1)
            if i % 6 == 1:  # (x, y) joins every member, so D_min is asymmetric
                rows = [r[:x] + [r[x] | 1 << y] + r[x + 1:] for r in rows]
            elif i % 6 == 3:  # x and y meet in every member: transitive only if both were alone
                rows = [[r[u] | 1 << (x + y - u) if u in (x, y) else r[u] for u in range(n)] for r in rows]
            elif i % 6 == 5:  # one member misses (x, x)
                rows[0][x] &= ~(1 << x)
            yield n, [[(u, v) for u in range(n) for v in range(n) if r[u] >> v & 1] for r in rows]

    def test_diagonal_verbs_commute_with_relabelling(self, capsys):
        rng = random.Random(20261023)
        verbs = (["validate"], ["check-na"], ["convert", "--to", "cover"], ["pm-system"],
                 ["roundtrip"], ["metrize"])
        codes = {0: 0, 1: 0, 2: 0}
        valid = 0
        for n, entourages in self.diagonal_bases(rng):
            pi = rng.sample(range(n), n)
            moved = [[[pi[x], pi[y]] for x, y in pairs] for pairs in entourages
                     for _ in range(rng.randint(1, 2))]
            for pairs in moved:
                rng.shuffle(pairs)
            rng.shuffle(moved)
            payloads = [
                {"n": n, "entourages": [{"n": n, "pairs": pairs} for pairs in basis]}
                for basis in (entourages, moved)
            ]
            for verb in verbs:
                (code, out), (moved_code, moved_out) = run_each(capsys, verb, payloads)
                assert moved_code == code, (verb, entourages, pi)
                assert relabelled_payload(moved_out, range(n)) == relabelled_payload(out, pi)
                codes[code] += 1
            valid += code == 0
        assert 50 <= valid <= 100 and min(codes.values()) >= 50, (valid, codes)


class TestTopologyRelabelling:
    def test_topo_check_and_uniformize_commute_with_relabelling_n4(self, capsys):
        from ultrauniform.oracle import enumerate_preorder_topologies

        rng = random.Random(20261024)
        codes = {0: 0, 1: 0}
        for t in enumerate_preorder_topologies(4):
            opens = t.to_json()["opens"]
            pi = rng.sample(range(4), 4)
            moved = [[pi[x] for x in o] for o in opens]
            rng.shuffle(moved)
            for verb in (["topo-check"], ["uniformize"]):
                (code, out), (moved_code, moved_out) = run_each(
                    capsys, verb, [{"n": 4, "opens": family} for family in (opens, moved)]
                )
                assert moved_code == code, (verb, opens, pi)
                assert relabelled_payload(moved_out, range(4)) == relabelled_payload(out, pi)
                codes[code] += 1
        assert codes == {0: 2 * 15, 1: 2 * (355 - 15)}, codes


SRC = str(Path(__file__).resolve().parents[1] / "src")


def fresh_python(*args, env=()):
    """Run a new interpreter with only the package's src/ on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=SRC, **dict(env))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def loaded_modules(statement):
    """Modules a fresh interpreter has loaded after running `statement`."""
    probe = fresh_python("-c", f"import sys\n{statement}\nprint('\\n'.join(sys.modules))")
    assert probe.returncode == 0, probe.stderr
    return set(probe.stdout.split())


class TestStartup:
    def test_cli_import_skips_oracle_and_dataclasses(self):
        bare = loaded_modules("pass")
        loaded = loaded_modules("import ultrauniform.cli") - bare
        assert "ultrauniform.cli" in loaded
        assert "ultrauniform.oracle" not in loaded
        assert "dataclasses" not in loaded

    def test_oracle_import_skips_dataclasses(self):
        bare = loaded_modules("pass")
        loaded = loaded_modules("import ultrauniform.oracle") - bare
        assert "ultrauniform.oracle" in loaded
        assert "dataclasses" not in loaded

    def test_cli_import_loads_no_layer(self):
        bare = loaded_modules("pass")
        loaded = loaded_modules("import ultrauniform.cli") - bare
        assert loaded >= {"ultrauniform", "ultrauniform.cli", "ultrauniform.jsonio"}
        layers = ("core", "uniformity", "pseudometric", "topology", "oracle")
        assert not loaded & ({f"ultrauniform.{m}" for m in layers} | {"fractions", "decimal"})

    @pytest.mark.parametrize(
        "argv, skipped",
        [
            (["validate", "--in", NA_BASIS_JSON], {"topology", "pseudometric", "oracle"}),
            (["check-na", "--in", NA_BASIS_JSON], {"topology", "pseudometric", "oracle"}),
            (["convert", "--in", COVERS_JSON, "--to", "diagonal"], {"topology", "pseudometric"}),
            (["roundtrip", "--in", NA_BASIS_JSON], {"topology", "pseudometric", "oracle"}),
            (["topo-check", "--in", TOPOLOGY_JSON], {"pseudometric", "oracle"}),
            (["gen", "padic", "--p", "2", "--size", "8"], {"topology", "oracle"}),
            (["gen", "ideal-chain"], {"topology", "pseudometric", "oracle"}),
        ],
        ids=["validate", "check-na", "convert", "roundtrip", "topo-check", "gen padic",
             "gen ideal-chain"],
    )
    def test_each_verb_loads_only_its_layers(self, argv, skipped):
        statement = (
            "import contextlib, io\n"
            "from ultrauniform.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main({argv!r})"
        )
        loaded = loaded_modules(statement)
        assert {"ultrauniform.core", "ultrauniform.uniformity"} <= loaded
        assert not loaded & {f"ultrauniform.{m}" for m in skipped}
        if "pseudometric" in skipped:
            assert not loaded & {"fractions", "decimal"}

    @pytest.mark.parametrize("payload", [
        {"n": 4, "blocks": [[0, 3], [1], [2]]},
        {"n": 3, "pairs": [[0, 0], [0, 2], [1, 1], [2, 2]]},
    ], ids=["blocks", "pairs"])
    def test_validate_on_a_relation_loads_only_core(self, payload):
        statement = (
            "import contextlib, io\n"
            "from ultrauniform.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['validate', '--in', {json.dumps(payload)!r}]) == 0"
        )
        loaded = loaded_modules(statement)
        assert "ultrauniform.core" in loaded
        assert not loaded & {"ultrauniform.uniformity", "fractions"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "padic", "--p", "3", "--size", "27"],
            ["metrize", "--in", NA_BASIS_JSON],
        ],
        ids=["gen padic", "metrize"],
    )
    def test_metric_verbs_add_only_array_to_the_modules_of_their_layers(self, argv):
        def running(argv):
            return (
                "import contextlib, io\n"
                "import fractions, functools, itertools, math, re, typing\n"  # pseudometric's
                "from ultrauniform.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    main({argv!r})"
            )

        # `gen ideal-chain` runs the same front end on core and uniformity
        added = loaded_modules(running(argv)) - loaded_modules(running(["gen", "ideal-chain"]))
        assert "ultrauniform.pseudometric" in added
        assert added <= {"ultrauniform.pseudometric", "array"}

    def test_sweep_runs_in_a_subprocess(self):
        proc = fresh_python("-m", "ultrauniform.cli", "sweep", "--theorem", "T3.2", "--n", "2")
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert (obj["checked"], obj["satisfying"], obj["discrepancies"]) == (4, 2, 0)


class TestGeneratorHelpers:
    def test_padic_valuation(self):
        assert padic_valuation(8, 2) == 3
        assert padic_valuation(12, 2) == 2
        assert padic_valuation(5, 3) == 0

    def test_padic_requires_base_at_least_two(self):
        with pytest.raises(ValueError):
            padic_pseudometric(1, 4)

    def test_ideal_chain_bad_args(self):
        with pytest.raises(ValueError):
            ideal_chain_basis(0, 3, 2)
        with pytest.raises(ValueError):
            ideal_chain_basis(9, 3, -1)

    def test_congruence_relation_matches_the_per_pair_definition(self):
        for modulus in range(1, 25):
            carrier = Carrier(modulus)
            for step in range(1, 60):  # steps above the modulus leave only the identity
                pairs = [(x, y) for x in range(modulus) for y in range(modulus) if (x - y) % step == 0]
                assert congruence_relation(modulus, step) == Relation.from_pairs(carrier, pairs)


FIELDS = ["n"] + [row[0] for row in _DETECTORS]
STRUCTURE_VERB_FORMS = [
    ["validate"], ["convert", "--to", "cover"], ["convert", "--to", "diagonal"], ["check-na"],
    ["metrize"], ["pm-system"], ["topo-check"], ["uniformize"], ["roundtrip"],
]
# any JSON value: small numbers, the cap + 1, rational strings and junk, nested
# lists and objects keyed by the known field names
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.just(N_CAP + 1), st.floats(),
    st.sampled_from(["0", "1", "1/2", "2/3", "-1", "1/0", "0.5", "x", ""]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(FIELDS), inner, max_size=3
    ),
    max_leaves=12,
)


def rarely(draw, one_in=6) -> bool:
    """True for about one draw in `one_in`."""
    return draw(st.integers(1, one_in)) == one_in


@st.composite
def fuzzed_inputs(draw):
    """A JSON object shaped like one of the structures, a part of it now and then junk.

    The declared "n" is mostly 1..6, else 0, N_CAP + 1 or any JSON value.  Points
    may stray outside the carrier; relations are equivalences, with stray pairs
    now and then; covers hold a partition, topologies are often valid, and tables
    mostly symmetric, so that many inputs pass the reader and reach the verbs.  One
    input in eight is any JSON list or object.
    """
    if rarely(draw, 8):
        return draw(st.lists(json_values, max_size=3) | st.dictionaries(
            st.sampled_from(FIELDS), json_values, max_size=3
        ))
    n = draw(st.integers(1, 6))
    if rarely(draw, 12):
        n = draw(st.sampled_from([0, N_CAP + 1]) | json_values)
    size = n if isinstance(n, int) and not isinstance(n, bool) and 0 <= n <= 6 else 3
    full = list(range(size))
    point = st.integers(0, size - 1) if size else st.just(0)
    if rarely(draw):
        point = point | st.integers(-1, size) | json_leaves
    points = st.lists(point, min_size=1, max_size=size + 1)
    # a partition of the carrier, as one label per point
    labels = st.lists(st.integers(0, size), min_size=size, max_size=size)
    blocks = labels.map(lambda ls: [[x for x in full if ls[x] == b] for b in sorted(set(ls))])

    def part(strategy):
        return json_values if rarely(draw) else strategy

    def relation():  # an equivalence, often with stray pairs
        extra = st.lists(st.lists(point, min_size=2, max_size=2), max_size=size + 1)
        pairs = st.tuples(labels, st.booleans(), extra).map(lambda t: [
            [x, y] for x in full for y in full if t[0][x] == t[0][y]
        ] + t[1] * t[2])
        return st.fixed_dictionaries({"n": st.just(n), "pairs": part(pairs)})

    def family():  # a partition and point lists, often with the carrier among them
        return st.tuples(blocks, st.booleans(), st.lists(points, max_size=3)).map(
            lambda t: t[0] + [full] * t[1] + t[2]
        )

    def topology():  # the unions of a partition's blocks, a chain of prefixes, or a family
        unions = blocks.map(lambda bs: [
            [x for i, b in enumerate(bs) if k >> i & 1 for x in b] for k in range(1 << len(bs))
        ])
        prefixes = st.just([full[:k] for k in range(size + 1)])
        return unions | prefixes | family().map(lambda opens: [[]] + opens)

    cell = st.integers(0, 3) | st.sampled_from(["1/2", "1/3", "2/3", "0"])
    if rarely(draw):
        cell = cell | json_leaves

    def table():  # symmetric with a zero diagonal, now and then as drawn
        grid = st.lists(st.lists(cell, min_size=size, max_size=size), min_size=size, max_size=size)
        if rarely(draw):
            return grid
        return grid.map(lambda g: [
            [0 if x == y else g[min(x, y)][max(x, y)] for y in full] for x in full
        ])

    def metric():
        return st.fixed_dictionaries({"n": st.just(n), "dist": part(table())})

    def chain_steps():  # often the full relation first
        first = {"n": n, "pairs": [[x, y] for x in full for y in full]}
        return st.tuples(st.booleans(), st.lists(relation(), min_size=1, max_size=3)).map(
            lambda t: [first] * t[0] + t[1]
        )

    field = draw(st.sampled_from(FIELDS[1:]))
    obj = {"n": n, field: draw(part({
        "entourages": st.lists(relation(), min_size=1, max_size=3),
        "covers": st.lists(family(), min_size=1, max_size=3),
        "opens": topology(),
        "dist": table(),
        "metrics": st.lists(metric(), min_size=1, max_size=3),
        "steps": chain_steps(),
        "pairs": relation().map(lambda r: r["pairs"]),
        "blocks": blocks | st.lists(points, max_size=size + 1),
    }[field]))}
    if rarely(draw, 12):  # a second discriminating field, or "n" as any JSON value
        obj[draw(st.sampled_from(FIELDS))] = draw(json_values)
    return obj


class TestExitContractFuzz:
    """Every structure verb on any JSON input exits 0, 1 or 2 with one JSON document."""

    @settings(max_examples=160, derandomize=True, deadline=None, database=None)
    @given(obj=fuzzed_inputs())
    def test_exit_code_and_one_document(self, obj):
        text = json.dumps(obj)
        for argv in STRUCTURE_VERB_FORMS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--in", text])
            assert code in (0, 1, 2), (argv, text, err.getvalue())
            json.loads(out.getvalue())  # exactly one document: trailing text fails
