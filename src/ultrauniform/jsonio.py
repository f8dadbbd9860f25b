"""JSON encoding, decoding, and type detection for all structures.

Detection imports only the module of the structure it finds, so reading a
payload loads no other layer.  `dumps` renders the library's payload shapes
(str-keyed dicts, lists, tuples, ints, bools, None and strings) with a small
writer of its own, byte for byte as `json.dumps(payload, indent=2,
sort_keys=True)` would; that call selects the stdlib's pure-Python encoder,
which is slower and leaves a reference cycle behind on every call.  Any
other value is a TypeError, save the str subclass cells of `_render_rows`;
a `Pseudometric`'s `dist` is rendered from its grid, not its `to_json()`.
"""

from __future__ import annotations

import json
from importlib import import_module
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote

# discriminating field -> (layer module, class, the name of its validator in that
# module, None where the class enforces its invariants at construction), tried in
# this order
_DETECTORS = (
    ("entourages", "uniformity", "DiagonalBasis", "validate_diagonal"),
    ("covers", "uniformity", "CoverBasis", "validate_cover"),
    ("opens", "topology", "FiniteTopology", "validate_topology"),
    ("dist", "pseudometric", "Pseudometric", None),
    ("metrics", "pseudometric", "PseudometricSystem", None),
    ("steps", "pseudometric", "Chain", None),
    ("pairs", "core", "Relation", None),
    ("blocks", "core", "Relation", None),  # an equivalence, read from its classes
)


def detect(obj: dict) -> type:
    """Pick the structure type from the discriminating field of a payload."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for field, module, name, _ in _DETECTORS:
        if field in obj:
            return getattr(import_module(f".{module}", __package__), name)
    fields = ", ".join(row[0] for row in _DETECTORS)
    raise ValueError(f"cannot detect structure: expected one of the fields {fields}")


def structure_from_json(obj: dict):
    return detect(obj).from_json(obj)


def loads(text: str):
    return structure_from_json(json.loads(text))


def _render_rows(rows, nl: str, cells=None):
    """Rendered rows, or None for rows that need the general renderer.

    Given `cells`, each row is one join of its cells' texts.  Without it,
    str rows (distance tables) are quoted once per distinct cell; another
    cell fails the set, the quote or the type test of the distinct cells (a
    str subclass cell equal to a str cell renders as json.dumps renders it).
    Int rows of one length (pairs) share one %-format after a type pass.
    """
    inner = nl + "  "
    sep = "," + inner
    if cells is None and rows[0] and type(rows[0][0]) is str:
        try:
            distinct = set().union(*rows)
            cells = dict(zip(distinct, map(_quote, distinct)))
        except TypeError:
            return None
        if set(map(type, cells)) != {str} or not all(rows):
            return None
    elif cells is None:
        if set(map(type, chain.from_iterable(rows))) != {int} or len(set(map(len, rows))) != 1:
            return None
        row_format = "[" + inner + sep.join(["%d"] * len(rows[0])) + nl + "]"
        return map(row_format.__mod__, map(tuple, rows))
    return ["[" + inner + sep.join(map(cells.__getitem__, row)) + nl + "]" for row in rows]


def _render(value, nl: str) -> str:
    """`value` as indent-2, sorted-key JSON; `nl` is a newline plus the current indent."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, value))
        items = None
        if kinds == {str}:
            items = map(_quote, value)
        elif kinds == {int}:  # point lists, in one pass (bools are not ints here)
            items = map(int.__repr__, value)
        elif kinds <= {list, tuple}:  # pairs and distance tables, when their cells allow
            items = _render_rows(value, inner)
        if items is None:
            items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        return (
            "{" + inner
            + ("," + inner).join([_quote(key) + ": " + _render(value[key], inner)
                                  for key in sorted(value)])
            + nl + "}"
        )
    raise TypeError(f"cannot render a value of type {kind.__name__} as JSON")


def dumps(payload) -> str:
    """Deterministic rendering used for every artifact this package writes."""
    if hasattr(payload, "grid"):  # a Pseudometric: `dist` straight from its grid
        rows = _render_rows(payload.grid, "\n    ", payload._texts('"'))
        return '{\n  "dist": [\n    ' + ",\n    ".join(rows) + f'\n  ],\n  "n": {payload.n}\n}}\n'
    if hasattr(payload, "to_json"):
        payload = payload.to_json()
    return _render(payload, "\n") + "\n"
