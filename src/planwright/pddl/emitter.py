"""Deterministic PDDL emission: the layout of domain and problem files.

The emitter lays out a file's sections and its typed name lists; every
expression, effect and numeric term is written as its ``str()``, which is
its PDDL text (see `planwright.ir.model`). Equal IR values emit
byte-identical text, and the layout is a fixpoint of parse-then-emit:
parsing the output and emitting again reproduces it exactly. Variables
typed with the universal root are printed bare when the position allows
it, matching conventional PDDL style.
"""
from __future__ import annotations

from ..ir import ActionSchema, DomainModel, Expression, FluentDecl, Parameter, ProblemInstance, format_fraction


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


def emit_expression(expr: Expression) -> str:
    return str(expr)


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
    effect_body = " ".join(str(e) for e in action.effects)
    return [
        f"  (:action {action.name}",
        f"    :parameters ({_params(action.parameters)})",
        f"    :precondition {action.precondition}",
        f"    :effect (and {effect_body}))" if effect_body else "    :effect (and))",
    ]


def emit_problem(problem: ProblemInstance) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain.name})")
    if problem.objects:
        rendered = _typed_names([o.name for o in problem.objects], [o.type for o in problem.objects])
        lines.append(f"  (:objects {rendered})")
    init_lines = [str(a) for a in problem.init.sorted_atoms()]
    init_lines += [f"(= {t} {format_fraction(v)})" for t, v in problem.init.numeric]
    if init_lines:
        lines.append("  (:init")
        for entry in init_lines[:-1]:
            lines.append(f"    {entry}")
        lines.append(f"    {init_lines[-1]})")
    else:
        lines.append("  (:init)")
    lines.append(f"  (:goal {problem.goal})")
    lines.append(")")
    return "\n".join(lines) + "\n"
