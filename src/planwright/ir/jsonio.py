"""Canonical JSON encoding of the planning IR.

This is the tree-structured text format used by fixtures, agent messages,
and CLI artifacts. Encoding is deterministic: equal values produce
byte-identical text. Numeric values are rendered as exact rational strings
("30", "3/2") to avoid any float round-tripping.

Each value type writes its own JSON form (`planwright.values.Record.to_json`),
and `dumps` lays it out. Decoding reads a document with `loads` or
`read_object` and checks every field with `field` or `tuple_of`; any
malformed input raises `IRDecodeError`. A document may nest at most
`MAX_JSON_DEPTH` deep, so the recursive decoders and every later walker of
the IR see a bounded depth.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Union

from ..values import Record, cached_on
from .model import (
    COMPARISON_OPS,
    NUMERIC_EFFECT_OPS,
    ActionSchema,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    Effect,
    Expression,
    FluentDecl,
    ModifyAction,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumTerm,
    NumericEffect,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
)


class IRDecodeError(ValueError):
    """Raised when a JSON document does not describe a valid IR value."""


_encode_scalar = json.JSONEncoder().encode


def dumps(payload: Any) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, where any
    `Record` in ``payload`` stands for its ``to_json()`` value.

    With ``indent`` set, ``json.dumps`` falls back to its pure-Python
    encoder. Here containers are walked in Python and each is built with one
    join, while every leaf goes through the C encoder functions. A record is
    written from its `Record.json_items` pairs, and a `DomainModel` or
    `ProblemInstance` from text encoded once per instance (see `_document`).
    Every indented document the package writes comes through here:
    run-directory files, recorded fixtures and the JSON in agent prompts.
    """
    return _encode(payload, "\n") + "\n"


def _encode(value: Any, newline: str) -> str:
    # Checked in json.encoder's order: str, then numbers, lists, dicts.
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or isinstance(value, (int, float)):
        return _encode_scalar(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_encode(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict):
        return _encode_items(value.items(), newline)
    if isinstance(value, (DomainModel, ProblemInstance)):
        # Every newline in the text is a line break, because
        # encode_basestring_ascii writes one inside a string as "\\n";
        # indenting each break re-nests the document.
        return _document(value).replace("\n", newline)
    if isinstance(value, Record):
        return _encode_items(value.json_items(), newline)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode_items(items: Any, newline: str) -> str:
    if not items:
        return "{}"
    inner = newline + "  "
    members = [_encode_key(key) + ": " + _encode(item, inner) for key, item in items]
    return "{" + inner + ("," + inner).join(members) + newline + "}"


def _document(value: Union[DomainModel, ProblemInstance]) -> str:
    """The top-level indented text of a domain or problem, without the final
    newline, encoded once per instance (`cached_on`). A problem's text
    splices in its domain's."""
    return cached_on(value, "_json_text", lambda record: _encode_items(record.json_items(), "\n"))


def _encode_key(key: Any) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode_scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# ---------------------------------------------------------------- decoding

_REQUIRED = object()
Kind = Union[type, tuple[type, ...]]

# The deepest nesting `read_object` accepts: two JSON levels, an object and
# its list of children, for each of the 64 levels of list that the PDDL
# reader admits (`planwright.pddl.syntax.MAX_DEPTH`), and 32 more for the
# documents that hold an expression. `json.loads` itself fails near 990.
MAX_JSON_DEPTH = 2 * 64 + 32

_NOT_BRACKET = re.compile(r"[^\[\]{}]+")
_NESTING = {"{": 1, "[": 1, "}": -1, "]": -1}


def _too_deep(body: str) -> bool:
    """Whether the containers of the JSON text ``body`` nest more than
    `MAX_JSON_DEPTH` deep, found in one linear scan that skips the contents
    of strings. A text with fewer openers cannot, and is not scanned."""
    if body.count("{") + body.count("[") <= MAX_JSON_DEPTH:
        return False
    # Without its escaped backslashes and quotes, every quote left opens or
    # closes a string, so the even pieces between quotes lie outside them.
    outside = body.replace("\\\\", "").replace('\\"', "").split('"')[::2]
    brackets = _NOT_BRACKET.sub("", "".join(outside))
    return max(accumulate(map(_NESTING.__getitem__, brackets)), default=0) > MAX_JSON_DEPTH


def loads(text: str) -> Any:
    """``json.loads(text)``, refusing a document nested more than
    `MAX_JSON_DEPTH` deep before it is parsed. Every JSON text from outside
    the program is read here; any malformed one raises `IRDecodeError`."""
    if _too_deep(text):
        raise IRDecodeError(f"JSON nests more than {MAX_JSON_DEPTH} deep")
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise IRDecodeError(str(exc)) from exc


def read_object(text: str) -> dict:
    """Parse a document holding exactly one JSON object, bare or wrapped in a
    markdown code fence. Every agent reply and input file is read here."""
    body = text.strip()
    if body.startswith("```"):
        first_newline = body.find("\n")
        body = body[first_newline + 1 :] if first_newline != -1 else ""
        if body.rstrip().endswith("```"):
            body = body.rstrip()[:-3]
    data = loads(body)
    if not isinstance(data, dict):
        raise IRDecodeError(f"expected object, got {type(data).__name__}")
    return data


def field(data: Any, key: str, kind: Kind, default: Any = _REQUIRED) -> Any:
    """``data[key]``, checked to be a ``kind``. With a ``default`` the field
    is optional: an absent key yields the default, a present one is checked."""
    if not isinstance(data, dict):
        raise IRDecodeError(f"expected object, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise IRDecodeError(f"missing field {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind):
        raise IRDecodeError(f"field {key!r} must be {_kind_names(kind)}")
    return value


def tuple_of(data: Any, key: str, kind: Kind, default: Any = _REQUIRED) -> tuple:
    """The list field ``key`` of ``data``, each item checked to be a ``kind``."""
    values = field(data, key, list, default)
    if not all(isinstance(x, kind) for x in values):
        raise IRDecodeError(f"field {key!r} must hold only {_kind_names(kind)}")
    return tuple(values)


def _kind_names(kind: Kind) -> str:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return " or ".join(k.__name__ for k in kinds)


def _number(data: Any) -> Fraction:
    raw = field(data, "value", (int, str))
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise IRDecodeError(f"bad numeric value {raw!r}") from exc


def expression_from_json(data: Any) -> Expression:
    op = field(data, "op", str)
    if op == "atom":
        return Atom(field(data, "fluent", str), tuple_of(data, "args", str, ()))
    if op in ("and", "or"):
        children = tuple(expression_from_json(c) for c in field(data, "children", list))
        return And(children) if op == "and" else Or(children)
    if op == "not":
        return Not(expression_from_json(field(data, "child", dict)))
    if op in COMPARISON_OPS:
        return Comparison(op, term_from_json(field(data, "left", dict)), term_from_json(field(data, "right", dict)))
    raise IRDecodeError(f"unknown expression op {op!r}")


def term_from_json(data: Any) -> NumTerm:
    op = field(data, "op", str)
    if op == "const":
        return NumConst(_number(data))
    if op == "fluent":
        return NumFluent(field(data, "fluent", str), tuple_of(data, "args", str, ()))
    if op in ("+", "-"):
        left = term_from_json(field(data, "left", dict))
        right = term_from_json(field(data, "right", dict))
        return NumAdd(left, right) if op == "+" else NumSub(left, right)
    raise IRDecodeError(f"unknown term op {op!r}")


def effect_from_json(data: Any) -> Effect:
    op = field(data, "op", str)
    if op == "set":
        atom = expression_from_json(field(data, "atom", dict))
        if not isinstance(atom, Atom):
            raise IRDecodeError("set effect must target an atom")
        return SetEffect(atom, field(data, "value", bool, True))
    if op in NUMERIC_EFFECT_OPS:
        target = term_from_json(field(data, "target", dict))
        if not isinstance(target, NumFluent):
            raise IRDecodeError(f"{op} effect must target a numeric fluent")
        return NumericEffect(op, target, term_from_json(field(data, "amount", dict)))
    raise IRDecodeError(f"unknown effect op {op!r}")


def _parameters_from_json(data: Any) -> tuple[Parameter, ...]:
    return tuple(
        Parameter(field(p, "name", str), field(p, "type", str, "object")) for p in field(data, "parameters", list, [])
    )


def fluent_from_json(data: Any) -> FluentDecl:
    return FluentDecl(
        name=field(data, "name", str),
        parameters=_parameters_from_json(data),
        kind=field(data, "kind", str, "boolean"),
        description=field(data, "description", str, ""),
    )


def action_from_json(data: Any) -> ActionSchema:
    return ActionSchema(
        name=field(data, "name", str),
        parameters=_parameters_from_json(data),
        precondition=expression_from_json(field(data, "precondition", dict)),
        effects=tuple(effect_from_json(e) for e in field(data, "effects", list, [])),
    )


def domain_from_json(data: Any) -> DomainModel:
    # "requirements" is accepted but ignored: flags are derived from content.
    return DomainModel(
        name=field(data, "name", str),
        types=tuple(TypeDecl(field(t, "name", str), field(t, "parent", str, "object")) for t in field(data, "types", list, [])),
        fluents=tuple(fluent_from_json(f) for f in field(data, "fluents", list, [])),
        actions=tuple(action_from_json(a) for a in field(data, "actions", list, [])),
    )


def objects_from_json(entries: list) -> tuple[ObjectDecl, ...]:
    return tuple(ObjectDecl(field(o, "name", str), field(o, "type", str, "object")) for o in entries)


def assignment_from_json(data: Any) -> Assignment:
    atoms = []
    for entry in field(data, "booleans", list, []):
        expr = expression_from_json(entry)
        if not isinstance(expr, Atom):
            raise IRDecodeError("init booleans must be atoms")
        atoms.append(expr)
    numerics = [
        (NumFluent(field(entry, "fluent", str), tuple_of(entry, "args", str, ())), _number(entry))
        for entry in field(data, "numerics", list, [])
    ]
    return Assignment.create(atoms, numerics)


def problem_from_json(data: Any) -> ProblemInstance:
    return ProblemInstance(
        domain=domain_from_json(field(data, "domain", dict)),
        objects=objects_from_json(field(data, "objects", list, [])),
        init=assignment_from_json(field(data, "init", dict, {})),
        goal=expression_from_json(field(data, "goal", dict)),
        name=field(data, "name", str, "problem"),
    )


def modify_action_from_json(data: Any, provenance: str) -> ModifyAction:
    precondition = field(data, "precondition", dict, None)
    effects = field(data, "effects", list, None)
    return ModifyAction(
        field(data, "action", str),
        None if precondition is None else expression_from_json(precondition),
        None if effects is None else tuple(effect_from_json(e) for e in effects),
        provenance,
    )
