"""Parsing the supported PDDL subset into the IR.

Supported: STRIPS, :typing, :negative-preconditions, :disjunctive
preconditions, and :numeric-fluents with increase/decrease/assign effects.
Anything beyond that raises an `unsupported-feature` diagnostic pointing at
the construct rather than silently misreading it.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from ..ir import (
    ActionSchema,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    Effect,
    Expression,
    FluentDecl,
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
    validate_domain,
)
from ..ir.model import COMPARISON_OPS, NUMERIC_EFFECT_OPS
from .syntax import (
    INVALID_MODEL,
    SList,
    SExpr,
    Symbol,
    SYNTAX_ERROR,
    UNDECLARED,
    UNKNOWN_REQUIREMENT,
    UNSUPPORTED_FEATURE,
    PddlError,
    expect_list,
    expect_symbol,
    read_forms,
)

SUPPORTED_REQUIREMENTS = {
    ":strips",
    ":typing",
    ":negative-preconditions",
    ":disjunctive-preconditions",
    ":numeric-fluents",
}

# Real PDDL requirements we recognise but deliberately do not implement.
KNOWN_UNSUPPORTED_REQUIREMENTS = {
    ":adl",
    ":equality",
    ":fluents",
    ":action-costs",
    ":conditional-effects",
    ":durative-actions",
    ":existential-preconditions",
    ":universal-preconditions",
    ":quantified-preconditions",
    ":derived-predicates",
    ":preferences",
    ":constraints",
}

_NUMBER_RE = re.compile(r"^-?[0-9]+(\.[0-9]+)?$")


def _unsupported(what: str, line: int, col: int, filename: str) -> PddlError:
    return PddlError(UNSUPPORTED_FEATURE, f"{what} is not supported", line, col, filename)


def _head(form: SList) -> str:
    if not form.items:
        return ""
    first = form.items[0]
    return first.text if isinstance(first, Symbol) else ""


def _parse_typed_names(items: tuple[SExpr, ...], what: str, filename: str) -> list[tuple[Symbol, str]]:
    """Parse a PDDL typed list: ``a b - t c`` pairs names with their types.

    Trailing names without a ``- type`` group default to ``object``.
    """
    out: list[tuple[Symbol, str]] = []
    pending: list[Symbol] = []
    i = 0
    while i < len(items):
        item = items[i]
        if isinstance(item, SList):
            head = _head(item)
            if head == "either":
                raise _unsupported("'either' types", item.line, item.col, filename)
            raise PddlError(SYNTAX_ERROR, f"unexpected list in {what}", item.line, item.col, filename)
        if item.text == "-":
            if not pending:
                raise PddlError(SYNTAX_ERROR, f"dangling '-' in {what}", item.line, item.col, filename)
            if i + 1 >= len(items):
                raise PddlError(SYNTAX_ERROR, f"missing type after '-' in {what}", item.line, item.col, filename)
            type_form = items[i + 1]
            if isinstance(type_form, SList):
                if _head(type_form) == "either":
                    raise _unsupported("'either' types", type_form.line, type_form.col, filename)
                raise PddlError(SYNTAX_ERROR, f"expected type name in {what}", type_form.line, type_form.col, filename)
            for name in pending:
                out.append((name, type_form.text))
            pending = []
            i += 2
            continue
        pending.append(item)
        i += 1
    for name in pending:
        out.append((name, "object"))
    return out


def _parse_parameters(items: tuple[SExpr, ...], filename: str) -> tuple[Parameter, ...]:
    params = []
    for sym, type_name in _parse_typed_names(items, "parameter list", filename):
        if not sym.text.startswith("?"):
            raise PddlError(SYNTAX_ERROR, f"parameter {sym.text!r} must start with '?'", sym.line, sym.col, filename)
        params.append(Parameter(sym.text, type_name))
    return tuple(params)


def _define(text: str, kind: str, filename: str) -> tuple[str, tuple[SExpr, ...], SList]:
    """Read ``(define (KIND NAME) SECTION...)``: the name, the sections and the top form."""
    forms = read_forms(text, filename)
    if len(forms) != 1:
        raise PddlError(SYNTAX_ERROR, f"expected a single (define ...) form, found {len(forms)}", 1, 1, filename)
    top = expect_list(forms[0], "(define ...)", filename)
    items = top.items
    if not items or expect_symbol(items[0], "define", filename).text != "define":
        raise PddlError(SYNTAX_ERROR, f"expected (define ({kind} ...) ...)", top.line, top.col, filename)
    header = expect_list(items[1], f"({kind} NAME)", filename) if len(items) > 1 else None
    if header is None or _head(header) != kind or len(header.items) != 2:
        raise PddlError(SYNTAX_ERROR, f"expected ({kind} NAME) header", top.line, top.col, filename)
    name = expect_symbol(header.items[1], f"{kind} name", filename).text
    return name, items[2:], top


def _requirements(form: SList, filename: str) -> None:
    for item in form.items[1:]:
        sym = expect_symbol(item, "requirement flag", filename)
        if sym.text in SUPPORTED_REQUIREMENTS:
            continue
        if sym.text in KNOWN_UNSUPPORTED_REQUIREMENTS:
            raise _unsupported(f"requirement {sym.text}", sym.line, sym.col, filename)
        raise PddlError(UNKNOWN_REQUIREMENT, f"unknown requirement {sym.text}", sym.line, sym.col, filename)


def _types(form: SList, filename: str) -> list[TypeDecl]:
    return [
        TypeDecl(sym.text, parent)
        for sym, parent in _parse_typed_names(form.items[1:], ":types", filename)
        if sym.text != "object"  # the universal root is built in
    ]


def _fluent_decl(entry: SExpr, what: str, kind: str, filename: str) -> FluentDecl:
    decl = expect_list(entry, f"{what} declaration", filename)
    if not decl.items:
        raise PddlError(SYNTAX_ERROR, f"empty {what} declaration", decl.line, decl.col, filename)
    name = expect_symbol(decl.items[0], f"{what} name", filename).text
    return FluentDecl(name, _parse_parameters(decl.items[1:], filename), kind=kind)


def _predicates(form: SList, filename: str) -> list[FluentDecl]:
    return [_fluent_decl(entry, "predicate", "boolean", filename) for entry in form.items[1:]]


def _functions(form: SList, filename: str) -> list[FluentDecl]:
    fluents = []
    i = 1
    items = form.items
    while i < len(items):
        entry = items[i]
        if isinstance(entry, Symbol) and entry.text == "-":
            # "(f ?x) - number" annotations are redundant in this subset.
            if i + 1 < len(items) and isinstance(items[i + 1], Symbol) and items[i + 1].text == "number":
                i += 2
                continue
            raise _unsupported("non-number function types", entry.line, entry.col, filename)
        fluents.append(_fluent_decl(entry, "function", "numeric", filename))
        i += 1
    return fluents


def _action(form: SList, filename: str) -> ActionSchema:
    items = form.items
    if len(items) < 2:
        raise PddlError(SYNTAX_ERROR, "action without a name", form.line, form.col, filename)
    name = expect_symbol(items[1], "action name", filename).text
    params: tuple[Parameter, ...] = ()
    precondition: Expression = And(())
    effects: tuple[Effect, ...] = ()
    i = 2
    while i < len(items):
        key = expect_symbol(items[i], "action keyword", filename)
        if i + 1 >= len(items):
            raise PddlError(SYNTAX_ERROR, f"missing value after {key.text}", key.line, key.col, filename)
        value = items[i + 1]
        if key.text == ":parameters":
            params = _parse_parameters(expect_list(value, "parameter list", filename).items, filename)
        elif key.text == ":precondition":
            precondition = _parse_condition(value, filename)
        elif key.text == ":effect":
            effects = _parse_effects(value, filename)
        else:
            raise _unsupported(f"action keyword {key.text}", key.line, key.col, filename)
        i += 2
    return ActionSchema(name, params, precondition, effects)


def _atom_from(form: SList, filename: str) -> Atom:
    if not form.items:
        raise PddlError(SYNTAX_ERROR, "empty atom", form.line, form.col, filename)
    name = expect_symbol(form.items[0], "fluent name", filename).text
    args = tuple(expect_symbol(a, "argument", filename).text for a in form.items[1:])
    return Atom(name, args)


def _parse_term(expr: SExpr, filename: str, atom_check=None) -> NumTerm:
    if isinstance(expr, Symbol):
        if _NUMBER_RE.match(expr.text):
            return NumConst(Fraction(expr.text))
        raise PddlError(SYNTAX_ERROR, f"expected a numeric term, got {expr.text!r}", expr.line, expr.col, filename)
    if not expr.items:
        raise PddlError(SYNTAX_ERROR, "empty numeric term", expr.line, expr.col, filename)
    head = _head(expr)
    if head == "+" or head == "-":
        if len(expr.items) != 3:
            raise PddlError(SYNTAX_ERROR, f"'{head}' takes exactly two operands", expr.line, expr.col, filename)
        left = _parse_term(expr.items[1], filename, atom_check)
        right = _parse_term(expr.items[2], filename, atom_check)
        return NumAdd(left, right) if head == "+" else NumSub(left, right)
    if head in ("*", "/"):
        raise _unsupported(f"'{head}' in numeric terms", expr.line, expr.col, filename)
    atom = _atom_from(expr, filename)
    if atom_check is not None:
        atom_check(atom, expr, "numeric")
    return NumFluent(atom.fluent, atom.args)


def _parse_condition(expr: SExpr, filename: str, atom_check=None) -> Expression:
    form = expect_list(expr, "condition", filename)
    if not form.items:
        return And(())
    head = _head(form)
    if head == "and":
        return And(tuple(_parse_condition(c, filename, atom_check) for c in form.items[1:]))
    if head == "or":
        return Or(tuple(_parse_condition(c, filename, atom_check) for c in form.items[1:]))
    if head == "not":
        if len(form.items) != 2:
            raise PddlError(SYNTAX_ERROR, "'not' takes exactly one condition", form.line, form.col, filename)
        return Not(_parse_condition(form.items[1], filename, atom_check))
    if head in COMPARISON_OPS:
        if len(form.items) != 3:
            raise PddlError(SYNTAX_ERROR, f"'{head}' takes exactly two terms", form.line, form.col, filename)
        return Comparison(head, _parse_term(form.items[1], filename, atom_check), _parse_term(form.items[2], filename, atom_check))
    if head in ("forall", "exists", "imply", "when"):
        raise _unsupported(f"'{head}' conditions", form.line, form.col, filename)
    atom = _atom_from(form, filename)
    if atom_check is not None:
        atom_check(atom, form, "boolean")
    return atom


def _parse_effects(expr: SExpr, filename: str) -> tuple[Effect, ...]:
    form = expect_list(expr, "effect", filename)
    if not form.items:
        return ()
    if _head(form) == "and":
        out: list[Effect] = []
        for child in form.items[1:]:
            out.extend(_parse_effects(child, filename))
        return tuple(out)
    return (_parse_single_effect(form, filename),)


def _parse_single_effect(form: SList, filename: str) -> Effect:
    head = _head(form)
    if head == "not":
        if len(form.items) != 2:
            raise PddlError(SYNTAX_ERROR, "'not' effect takes exactly one atom", form.line, form.col, filename)
        inner = expect_list(form.items[1], "atom", filename)
        return SetEffect(_atom_from(inner, filename), value=False)
    if head in NUMERIC_EFFECT_OPS:
        if len(form.items) != 3:
            raise PddlError(SYNTAX_ERROR, f"'{head}' takes a target and an amount", form.line, form.col, filename)
        target_atom = _atom_from(expect_list(form.items[1], "numeric fluent", filename), filename)
        amount = _parse_term(form.items[2], filename)
        return NumericEffect(head, NumFluent(target_atom.fluent, target_atom.args), amount)
    if head in ("when", "forall", "assign-once", "scale-up", "scale-down"):
        raise _unsupported(f"'{head}' effects", form.line, form.col, filename)
    return SetEffect(_atom_from(form, filename), value=True)


def parse_domain(text: str, filename: Optional[str] = None) -> DomainModel:
    filename = filename or "<pddl>"
    name, sections, top = _define(text, "domain", filename)
    types: list[TypeDecl] = []
    fluents: list[FluentDecl] = []
    actions: list[ActionSchema] = []
    for section in sections:
        form = expect_list(section, "domain section", filename)
        head = _head(form)
        if head == ":requirements":
            _requirements(form, filename)
        elif head == ":types":
            types.extend(_types(form, filename))
        elif head == ":predicates":
            fluents.extend(_predicates(form, filename))
        elif head == ":functions":
            fluents.extend(_functions(form, filename))
        elif head == ":action":
            actions.append(_action(form, filename))
        elif head in (":durative-action", ":constants", ":derived", ":constraints"):
            raise _unsupported(head, form.line, form.col, filename)
        else:
            raise PddlError(SYNTAX_ERROR, f"unknown domain section {head!r}", form.line, form.col, filename)

    domain = DomainModel(name, tuple(types), tuple(fluents), tuple(actions))
    leftover = validate_domain(domain)
    if leftover:
        raise PddlError(INVALID_MODEL, "; ".join(str(v) for v in leftover), top.line, top.col, filename)
    return domain


def parse_problem(text: str, domain: DomainModel, filename: Optional[str] = None) -> ProblemInstance:
    filename = filename or "<pddl>"
    name, sections, _ = _define(text, "problem", filename)

    objects: list[ObjectDecl] = []
    object_names: set[str] = set()
    true_atoms: list[Atom] = []
    numerics: list[tuple[NumFluent, Fraction]] = []
    goal: Expression = And(())
    fluents = domain.fluent_map()

    def check_declared(atom: Atom, where: SList, expected_kind: str) -> None:
        decl = fluents.get(atom.fluent)
        if decl is None:
            raise PddlError(UNDECLARED, f"fluent {atom.fluent} is not declared in domain {domain.name}", where.line, where.col, filename)
        if decl.kind != expected_kind:
            raise PddlError(SYNTAX_ERROR, f"fluent {atom.fluent} is {decl.kind}, used as {expected_kind}", where.line, where.col, filename)
        if len(atom.args) != decl.arity:
            raise PddlError(SYNTAX_ERROR, f"fluent {atom.fluent} takes {decl.arity} arguments, got {len(atom.args)}", where.line, where.col, filename)
        for arg in atom.args:
            if arg not in object_names:
                raise PddlError(UNDECLARED, f"object {arg} is not declared", where.line, where.col, filename)

    for section in sections:
        form = expect_list(section, "problem section", filename)
        head = _head(form)
        if head == ":domain":
            declared = expect_symbol(form.items[1], "domain name", filename).text if len(form.items) > 1 else ""
            if declared != domain.name:
                raise PddlError(UNDECLARED, f"problem references domain {declared!r}, loaded domain is {domain.name!r}", form.line, form.col, filename)
        elif head == ":objects":
            for sym, type_name in _parse_typed_names(form.items[1:], ":objects", filename):
                if sym.text in object_names:
                    raise PddlError(SYNTAX_ERROR, f"object {sym.text} declared twice", sym.line, sym.col, filename)
                object_names.add(sym.text)
                objects.append(ObjectDecl(sym.text, type_name))
        elif head == ":init":
            for entry in form.items[1:]:
                sub = expect_list(entry, "init element", filename)
                sub_head = _head(sub)
                if sub_head == "=":
                    if len(sub.items) != 3:
                        raise PddlError(SYNTAX_ERROR, "'=' init takes a fluent and a value", sub.line, sub.col, filename)
                    target = _atom_from(expect_list(sub.items[1], "numeric fluent", filename), filename)
                    check_declared(target, sub, "numeric")
                    value_sym = expect_symbol(sub.items[2], "numeric value", filename)
                    if not _NUMBER_RE.match(value_sym.text):
                        raise PddlError(SYNTAX_ERROR, f"expected a number, got {value_sym.text!r}", value_sym.line, value_sym.col, filename)
                    numerics.append((NumFluent(target.fluent, target.args), Fraction(value_sym.text)))
                elif sub_head == "not":
                    raise _unsupported("negated init literals (closed world)", sub.line, sub.col, filename)
                else:
                    atom = _atom_from(sub, filename)
                    check_declared(atom, sub, "boolean")
                    true_atoms.append(atom)
        elif head == ":goal":
            if len(form.items) != 2:
                raise PddlError(SYNTAX_ERROR, "':goal' takes exactly one condition", form.line, form.col, filename)
            goal = _parse_condition(form.items[1], filename, atom_check=check_declared)
        elif head in (":metric", ":constraints", ":length"):
            raise _unsupported(head, form.line, form.col, filename)
        else:
            raise PddlError(SYNTAX_ERROR, f"unknown problem section {head!r}", form.line, form.col, filename)

    return ProblemInstance(
        domain=domain,
        objects=tuple(objects),
        init=Assignment.create(true_atoms, numerics),
        goal=goal,
        name=name,
    )
