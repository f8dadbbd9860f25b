"""Command-line front end: validate, convert, check, generate, and sweep.

Every command reads and writes JSON only.  Exit codes: 0 when the command
succeeds and any checked property holds, 1 when a checked property fails,
2 on malformed input or violated preconditions, 3 on an internal error.

Each verb imports the layers it calls when it runs, so that a command
compiles and loads only those: `import ultrauniform.cli` loads none.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .jsonio import _DETECTORS, dumps, structure_from_json

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# the largest value `gen` takes per option, checked before anything is built (README)
GEN_CAPS = {"--size": 2000, "--n": 2000, "--modulus": 640, "--depth": 64}


def padic_valuation(x: int, p: int) -> int:
    """Exponent of the largest power of p dividing x (x must be nonzero)."""
    v = 0
    x = abs(x)
    while x % p == 0:
        v += 1
        x //= p
    return v


def padic_pseudometric(p: int, size: int) -> Pseudometric:
    """d(x,y) = p**(-v_p(x-y)) on the carrier {0..size-1}, d(x,x) = 0.

    Over the denominator scale = p**e, the largest power of p below size,
    every distance is the integer scale // p**v_p(gap), one per gap |x-y|.
    """
    from .core import Carrier
    from .pseudometric import Pseudometric

    if p < 2:
        raise ValueError("base must be at least 2")
    if size < 1:
        raise ValueError("size must be positive")
    scale = 1
    while scale * p < size:
        scale *= p
    by_gap = [0] + [scale // p ** padic_valuation(gap, p) for gap in range(1, size)]
    grid = [by_gap[x:0:-1] + by_gap[: size - x] for x in range(size)]
    return Pseudometric._from_grid(Carrier(size), grid, scale, na=True)


def congruence_relation(modulus: int, step: int) -> Relation:
    """x ~ y iff step divides x - y, restricted to {0..modulus-1}: row x is the class of x % step."""
    from .core import Carrier, Relation, mask_of

    classes = [mask_of(range(r, modulus, step)) for r in range(min(step, modulus))]
    return Relation(Carrier(modulus), [classes[x % step] for x in range(modulus)])


def ideal_chain_basis(modulus: int, ideal: int, depth: int) -> DiagonalBasis:
    """Congruences modulo ideal**k for k = 0..depth on {0..modulus-1}."""
    from .uniformity import DiagonalBasis

    if modulus < 1:
        raise ValueError("modulus must be positive")
    if ideal < 1:
        raise ValueError("ideal generator must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rels = [congruence_relation(modulus, ideal**k) for k in range(depth + 1)]
    return DiagonalBasis(rels[0].carrier, rels)


def _read_input(raw: str) -> dict:
    if raw.lstrip().startswith(("{", "[")):
        text = raw
    elif raw == "-":
        text = sys.stdin.read()
    else:
        with open(raw, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("JSON input nests too deeply") from None


def _validate(structure) -> tuple[int, dict]:
    # the detected type's row of jsonio's table, found by module and class name, not
    # by isinstance tests, which would load the topology layer only to answer no for
    # a basis; a type missing from it is a KeyError, not a pass
    kind = type(structure)
    validator = {(f"{__package__}.{module}", name): validator
                 for _, module, name, validator in _DETECTORS}[kind.__module__, kind.__name__]
    if validator is None:
        return EXIT_OK, {"valid": True, "violations": []}
    report = getattr(sys.modules[kind.__module__], validator)(structure)
    return (EXIT_OK if report.valid else EXIT_FALSE), report.to_json()


def _to_cover(b) -> tuple[int, dict]:
    from .uniformity import cover_basis_from_diagonal

    return EXIT_OK, cover_basis_from_diagonal(b).to_json()


def _to_diagonal(cb) -> tuple[int, dict]:
    from .uniformity import diagonal_from_cover_basis

    return EXIT_OK, diagonal_from_cover_basis(cb).to_json()


def _check_na(b) -> tuple[int, dict]:
    from .uniformity import is_non_archimedean

    ok, witness = is_non_archimedean(b)
    return EXIT_OK, {"non_archimedean": ok, "witness": witness.to_json()}


def _metrize(b) -> tuple[int, Pseudometric]:
    from .pseudometric import metrize

    return EXIT_OK, metrize(b.entourages)


def _pm_system(b) -> tuple[int, dict]:
    from .pseudometric import system_from_na_basis

    return EXIT_OK, system_from_na_basis(b).to_json()


def _topo_check(t) -> tuple[int, dict]:
    from .topology import is_uniformizable_na, is_zero_dimensional, satisfies_TA

    ta, _ = satisfies_TA(t)
    zd = is_zero_dimensional(t)
    un, _ = is_uniformizable_na(t)
    payload = {"T_A": ta, "zero_dim": zd, "uniformizable": un}
    return (EXIT_OK if ta and zd and un else EXIT_FALSE), payload


def _uniformize(t) -> tuple[int, dict]:
    from .topology import is_uniformizable_na

    ok, witness = is_uniformizable_na(t)
    payload = {"uniformizable": ok, "witness": witness.to_json() if witness is not None else None}
    return (EXIT_OK if ok else EXIT_FALSE), payload


def _roundtrip(s) -> tuple[int, dict]:
    from .uniformity import roundtrip

    ok = roundtrip(s)
    return (EXIT_OK if ok else EXIT_FALSE), {"roundtrip": ok}


# verb -> (names of the structure types it accepts, None for every type,
# what its refusal of another type says it expects, handler); `convert`
# has one row per target
_STRUCTURE_VERBS = {
    "validate": (None, None, _validate),
    "convert --to cover": (("DiagonalBasis",), "a diagonal basis", _to_cover),
    "convert --to diagonal": (("CoverBasis",), "a cover basis", _to_diagonal),
    "check-na": (("DiagonalBasis",), "a diagonal basis", _check_na),
    "metrize": (("DiagonalBasis",), "a diagonal basis", _metrize),
    "pm-system": (("DiagonalBasis",), "a diagonal basis", _pm_system),
    "topo-check": (("FiniteTopology",), "a topology", _topo_check),
    "uniformize": (("FiniteTopology",), "a topology", _uniformize),
    "roundtrip": (("DiagonalBasis", "CoverBasis"), "a diagonal or cover basis", _roundtrip),
}


def _cmd_sweep(args) -> tuple[int, dict]:
    # the brute-force oracle is loaded only here, so the other verbs start faster
    from .oracle import DEFAULT_SEED, theorem_sweep

    seed = args.seed
    if seed is None and args.trials is not None:
        env = os.environ.get("ULTRAUNIFORM_SEED")
        try:
            seed = int(env) if env else DEFAULT_SEED
        except ValueError:
            raise ValueError(f"ULTRAUNIFORM_SEED must be an integer, got {env!r}") from None
    report = theorem_sweep(args.theorem, args.n, args.trials, seed)
    return (EXIT_OK if report.discrepancies == 0 else EXIT_FALSE), report.to_json()


def _capped(option: str, value):
    """value, refused when it is over the cap of `option` in GEN_CAPS."""
    if value is not None and value > GEN_CAPS[option]:
        raise ValueError(f"gen: {option} {value} is over its cap of {GEN_CAPS[option]}")
    return value


def _cmd_gen(args) -> tuple[int, dict | Pseudometric]:
    # each kind checks only the options it reads
    if args.kind == "padic":
        size = _capped("--size", args.size) if args.size is not None else _capped("--n", args.n)
        if size is None:
            raise ValueError("gen padic needs --size (or --n)")
        return EXIT_OK, padic_pseudometric(args.p, size)
    if args.kind == "ideal-chain":
        modulus, depth = _capped("--modulus", args.modulus), _capped("--depth", args.depth)
        return EXIT_OK, ideal_chain_basis(modulus, args.ideal, depth).to_json()
    raise ValueError(f"unknown generator {args.kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrauniform",
        description="Finite uniform structures: validate, convert, check, generate, sweep.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_io(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="input", default="-",
                           help="input path, '-' for stdin, or inline JSON")
        p.add_argument("--out", dest="out", default=None, help="also write output here")

    add_io(sub.add_parser("validate", help="axiom-check a structure"))
    convert = sub.add_parser("convert", help="convert between basis representations")
    add_io(convert)
    convert.add_argument("--to", dest="target", required=True, choices=["cover", "diagonal"])
    add_io(sub.add_parser("check-na", help="decide the non-Archimedean property"))
    add_io(sub.add_parser("metrize", help="single ultrametric for a diagonal basis"))
    add_io(sub.add_parser("pm-system", help="pseudo-metric system for a basis"))
    add_io(sub.add_parser("topo-check", help="separation/zero-dim/uniformizability verdicts"))
    add_io(sub.add_parser("uniformize", help="witness basis inducing a topology"))
    add_io(sub.add_parser("roundtrip", help="convert there and back, compare"))

    sweep = sub.add_parser("sweep", help="run a built-in law sweep")
    add_io(sweep, needs_in=False)
    sweep.add_argument("--theorem", required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--trials", type=int, default=None,
                       help="sample this many random instances instead of enumerating")
    sweep.add_argument("--seed", type=int, default=None)

    gen = sub.add_parser("gen", help="generate a ready-made instance")
    add_io(gen, needs_in=False)
    gen.add_argument("kind", choices=["padic", "ideal-chain"])
    gen.add_argument("--p", type=int, default=2)
    gen.add_argument("--size", type=int, default=None)
    gen.add_argument("--n", type=int, default=None, help="alias for --size")
    gen.add_argument("--modulus", type=int, default=27)
    gen.add_argument("--ideal", type=int, default=3)
    gen.add_argument("--depth", type=int, default=3)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # a fault of the program, MemoryError included, is never exit 1
        import traceback

        traceback.print_exc()  # to stderr; stdout keeps one JSON document
        sys.stdout.write(dumps({"error": f"internal error: {type(exc).__name__}: {exc}"}))
        return EXIT_INTERNAL


def _run(args) -> int:
    try:
        if args.verb == "sweep":
            code, payload = _cmd_sweep(args)
        elif args.verb == "gen":
            code, payload = _cmd_gen(args)
        else:
            verb = f"convert --to {args.target}" if args.verb == "convert" else args.verb
            kinds, what, handler = _STRUCTURE_VERBS[verb]
            structure = structure_from_json(_read_input(args.input))
            if kinds is not None and type(structure).__name__ not in kinds:
                raise ValueError(f"{verb} expects {what}")
            code, payload = handler(structure)
    except json.JSONDecodeError as exc:
        code, payload = EXIT_INPUT, {"error": f"malformed JSON: {exc}"}
    except (ValueError, OSError) as exc:  # core's ValidationError and CarrierMismatch included
        code, payload = EXIT_INPUT, {"error": str(exc)}
        report = getattr(exc, "report", None)  # a ValidationError's, when it has one
        if report is not None:
            payload["report"] = report.to_json()
    text = dumps(payload)
    if args.out:  # written first, so that an unwritable --out prints only its own error
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            code, text = EXIT_INPUT, dumps({"error": str(exc)})
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
