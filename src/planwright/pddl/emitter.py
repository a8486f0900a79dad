"""Deterministic PDDL emission.

Equal IR values emit byte-identical text, and the layout is a fixpoint of
parse-then-emit: parsing the output and emitting again reproduces it
exactly. Variables typed with the universal root are printed bare when the
position allows it, matching conventional PDDL style.
"""
from __future__ import annotations

from fractions import Fraction

from ..ir import (
    ActionSchema,
    And,
    Atom,
    Comparison,
    DomainModel,
    Expression,
    FluentDecl,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumTerm,
    NumericEffect,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    decimal_places,
)


class PddlEmitError(ValueError):
    pass


def format_fraction(value: Fraction) -> str:
    """Render an exact rational as a PDDL number (integer or finite decimal)."""
    if value.denominator == 1:
        return str(value.numerator)
    shift = decimal_places(value)
    if shift is None:
        raise PddlEmitError(f"value {value} has no finite decimal form")
    scaled = value.numerator * 10**shift // value.denominator
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-shift]}.{text[-shift:]}"


def _typed_names(names: list[str], types: list[str], explicit: bool = False) -> str:
    """Group ``a b - t`` runs; a trailing universal-typed run prints bare
    unless ``explicit`` forces the annotation (used for type declarations)."""
    parts: list[str] = []
    i = 0
    n = len(names)
    while i < n:
        j = i
        while j < n and types[j] == types[i]:
            j += 1
        run = names[i:j]
        if types[i] == "object" and j == n and not explicit:
            parts.extend(run)
        else:
            parts.extend(run)
            parts.append("-")
            parts.append(types[i])
        i = j
    return " ".join(parts)


def _params(params: tuple[Parameter, ...]) -> str:
    return _typed_names([p.name for p in params], [p.type for p in params])


def emit_term(term: NumTerm) -> str:
    if isinstance(term, NumConst):
        return format_fraction(term.value)
    if isinstance(term, NumFluent):
        return _application(term.fluent, term.args)
    if isinstance(term, NumAdd):
        return f"(+ {emit_term(term.left)} {emit_term(term.right)})"
    if isinstance(term, NumSub):
        return f"(- {emit_term(term.left)} {emit_term(term.right)})"
    raise PddlEmitError(f"cannot emit term {term!r}")


def _application(name: str, args: tuple[str, ...]) -> str:
    return f"({name})" if not args else f"({name} {' '.join(args)})"


def emit_expression(expr: Expression) -> str:
    if isinstance(expr, Atom):
        return _application(expr.fluent, expr.args)
    if isinstance(expr, And):
        inner = " ".join(emit_expression(c) for c in expr.children)
        return f"(and {inner})" if inner else "(and)"
    if isinstance(expr, Or):
        inner = " ".join(emit_expression(c) for c in expr.children)
        return f"(or {inner})" if inner else "(or)"
    if isinstance(expr, Not):
        return f"(not {emit_expression(expr.child)})"
    if isinstance(expr, Comparison):
        return f"({expr.op} {emit_term(expr.left)} {emit_term(expr.right)})"
    raise PddlEmitError(f"cannot emit expression {expr!r}")


def _emit_effect(effect) -> str:
    if isinstance(effect, SetEffect):
        rendered = _application(effect.atom.fluent, effect.atom.args)
        return rendered if effect.value else f"(not {rendered})"
    if isinstance(effect, NumericEffect):
        return f"({effect.op} {_application(effect.target.fluent, effect.target.args)} {emit_term(effect.amount)})"
    raise PddlEmitError(f"cannot emit effect {effect!r}")


def _fluent_decl(decl: FluentDecl) -> str:
    return f"({decl.name}{'' if not decl.parameters else ' ' + _params(decl.parameters)})"


def emit_domain(domain: DomainModel) -> str:
    lines = [f"(define (domain {domain.name})"]
    lines.append(f"  (:requirements {' '.join(domain.requirements)})")
    if domain.types:
        rendered = _typed_names([t.name for t in domain.types], [t.parent for t in domain.types], explicit=True)
        lines.append(f"  (:types {rendered})")
    predicates = [f for f in domain.fluents if f.kind == "boolean"]
    functions = [f for f in domain.fluents if f.kind == "numeric"]
    if predicates:
        lines.append("  (:predicates")
        for decl in predicates[:-1]:
            lines.append(f"    {_fluent_decl(decl)}")
        lines.append(f"    {_fluent_decl(predicates[-1])})")
    if functions:
        lines.append(f"  (:functions {' '.join(_fluent_decl(f) for f in functions)})")
    for action in domain.actions:
        lines.extend(_emit_action(action))
    lines.append(")")
    return "\n".join(lines) + "\n"


def _emit_action(action: ActionSchema) -> list[str]:
    effect_body = " ".join(_emit_effect(e) for e in action.effects)
    return [
        f"  (:action {action.name}",
        f"    :parameters ({_params(action.parameters)})",
        f"    :precondition {emit_expression(action.precondition)}",
        f"    :effect (and {effect_body}))" if effect_body else "    :effect (and))",
    ]


def emit_problem(problem: ProblemInstance) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain.name})")
    if problem.objects:
        rendered = _typed_names([o.name for o in problem.objects], [o.type for o in problem.objects])
        lines.append(f"  (:objects {rendered})")
    init_lines = [_application(a.fluent, a.args) for a in problem.init.sorted_atoms()]
    init_lines += [
        f"(= {_application(t.fluent, t.args)} {format_fraction(v)})"
        for t, v in problem.init.numeric
    ]
    if init_lines:
        lines.append("  (:init")
        for entry in init_lines[:-1]:
            lines.append(f"    {entry}")
        lines.append(f"    {init_lines[-1]})")
    else:
        lines.append("  (:init)")
    lines.append(f"  (:goal {emit_expression(problem.goal)})")
    lines.append(")")
    return "\n".join(lines) + "\n"
