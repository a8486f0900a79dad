"""Canonical JSON encoding of the planning IR.

This is the tree-structured text format used by fixtures, agent messages,
and CLI artifacts. Encoding is deterministic: equal values produce
byte-identical text. Numeric values are rendered as exact rational strings
("30", "3/2") to avoid any float round-tripping.

Decoding reads a document with `read_object` and checks every field with
`field` or `tuple_of`; any malformed input raises `IRDecodeError`.
"""
from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Union

from .model import (
    ActionSchema,
    AddObjects,
    AddOrModifyFluent,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainEdit,
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


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- encoding


def expression_to_json(expr: Expression) -> dict:
    if isinstance(expr, Atom):
        return {"op": "atom", "fluent": expr.fluent, "args": list(expr.args)}
    if isinstance(expr, And):
        return {"op": "and", "children": [expression_to_json(c) for c in expr.children]}
    if isinstance(expr, Or):
        return {"op": "or", "children": [expression_to_json(c) for c in expr.children]}
    if isinstance(expr, Not):
        return {"op": "not", "child": expression_to_json(expr.child)}
    if isinstance(expr, Comparison):
        return {"op": expr.op, "left": term_to_json(expr.left), "right": term_to_json(expr.right)}
    raise IRDecodeError(f"cannot encode expression {expr!r}")


def term_to_json(term: NumTerm) -> dict:
    if isinstance(term, NumConst):
        return {"op": "const", "value": str(term.value)}
    if isinstance(term, NumFluent):
        return {"op": "fluent", "fluent": term.fluent, "args": list(term.args)}
    if isinstance(term, NumAdd):
        return {"op": "+", "left": term_to_json(term.left), "right": term_to_json(term.right)}
    if isinstance(term, NumSub):
        return {"op": "-", "left": term_to_json(term.left), "right": term_to_json(term.right)}
    raise IRDecodeError(f"cannot encode term {term!r}")


def effect_to_json(effect: Effect) -> dict:
    if isinstance(effect, SetEffect):
        return {"op": "set", "atom": expression_to_json(effect.atom), "value": effect.value}
    if isinstance(effect, NumericEffect):
        return {"op": effect.op, "target": term_to_json(effect.target), "amount": term_to_json(effect.amount)}
    raise IRDecodeError(f"cannot encode effect {effect!r}")


def _parameter_to_json(param: Parameter) -> dict:
    return {"name": param.name, "type": param.type}


def fluent_to_json(decl: FluentDecl) -> dict:
    out = {
        "name": decl.name,
        "parameters": [_parameter_to_json(p) for p in decl.parameters],
        "kind": decl.kind,
    }
    if decl.description:
        out["description"] = decl.description
    return out


def action_to_json(action: ActionSchema) -> dict:
    return {
        "name": action.name,
        "parameters": [_parameter_to_json(p) for p in action.parameters],
        "precondition": expression_to_json(action.precondition),
        "effects": [effect_to_json(e) for e in action.effects],
    }


def domain_to_json(domain: DomainModel) -> dict:
    return {
        "name": domain.name,
        "requirements": list(domain.requirements),
        "types": [{"name": t.name, "parent": t.parent} for t in domain.types],
        "fluents": [fluent_to_json(f) for f in domain.fluents],
        "actions": [action_to_json(a) for a in domain.actions],
    }


def assignment_to_json(init: Assignment) -> dict:
    return {
        "booleans": [expression_to_json(a) for a in init.sorted_atoms()],
        "numerics": [
            {"fluent": target.fluent, "args": list(target.args), "value": str(value)}
            for target, value in init.numeric
        ],
    }


def problem_to_json(problem: ProblemInstance) -> dict:
    return {
        "name": problem.name,
        "domain": domain_to_json(problem.domain),
        "objects": [{"name": o.name, "type": o.type} for o in problem.objects],
        "init": assignment_to_json(problem.init),
        "goal": expression_to_json(problem.goal),
    }


def edit_to_json(edit: DomainEdit) -> dict:
    if isinstance(edit, AddOrModifyFluent):
        return {"edit": "add_or_modify_fluent", "fluent": fluent_to_json(edit.fluent), "provenance": edit.provenance}
    if isinstance(edit, ModifyAction):
        out: dict = {"edit": "modify_action", "action": edit.action, "provenance": edit.provenance}
        if edit.precondition is not None:
            out["precondition"] = expression_to_json(edit.precondition)
        if edit.effects is not None:
            out["effects"] = [effect_to_json(e) for e in edit.effects]
        return out
    if isinstance(edit, AddObjects):
        return {
            "edit": "add_objects",
            "objects": [{"name": o.name, "type": o.type} for o in edit.objects],
            "provenance": edit.provenance,
        }
    raise IRDecodeError(f"cannot encode edit {edit!r}")


# ---------------------------------------------------------------- decoding

_REQUIRED = object()
Kind = Union[type, tuple[type, ...]]


def read_object(text: str) -> dict:
    """Parse a document holding exactly one JSON object, bare or wrapped in a
    markdown code fence. Every agent reply and input file is read here."""
    body = text.strip()
    if body.startswith("```"):
        first_newline = body.find("\n")
        body = body[first_newline + 1 :] if first_newline != -1 else ""
        if body.rstrip().endswith("```"):
            body = body.rstrip()[:-3]
    try:
        data = json.loads(body)
    except json.JSONDecodeError as exc:
        raise IRDecodeError(str(exc)) from exc
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
    if op in ("<", "<=", "=", ">=", ">"):
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
    if op in ("increase", "decrease", "assign"):
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


def edit_from_json(data: Any) -> DomainEdit:
    kind = field(data, "edit", str)
    provenance = field(data, "provenance", str)
    if kind == "add_or_modify_fluent":
        return AddOrModifyFluent(fluent_from_json(field(data, "fluent", dict)), provenance)
    if kind == "modify_action":
        return modify_action_from_json(data, provenance)
    if kind == "add_objects":
        return AddObjects(objects_from_json(field(data, "objects", list)), provenance)
    raise IRDecodeError(f"unknown edit kind {kind!r}")
