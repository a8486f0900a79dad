"""Canonical JSON encoding of the planning IR.

This is the tree-structured text format used by fixtures, agent messages,
and CLI artifacts. Encoding is deterministic: equal values produce
byte-identical text. Numeric values are rendered as exact rational strings
("30", "3/2") to avoid any float round-tripping.

Each value type writes its own JSON form (`planwright.values.Record.to_json`),
and `dumps` lays it out. Each also reads it back and checks it
(`Record.from_json`, with `field` for a single key). What is left here is
the text: `dumps` writes it, and `loads` and `read_object` read every JSON
text from outside the program; any malformed one raises `IRDecodeError`. A
document may nest at most `MAX_JSON_DEPTH` deep, so the recursive decoders
and every later walker of the IR see a bounded depth.
"""
from __future__ import annotations

import json
import re
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Union

from ..values import IRDecodeError, Record, cached_on, field  # noqa: F401  (field: read as jsonio.field)
from .model import DomainModel, ProblemInstance

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


# ---------------------------------------------------------------- reading

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


# The one name kept from the hand-written decoders: the benchmark's replay
# workload (``bench/workloads.py``) reads its problems through it.
problem_from_json = ProblemInstance.from_json
