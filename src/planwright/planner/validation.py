"""VAL-style plan checking by direct simulation of the problem semantics.

Deliberately independent of the search machinery: actions are re-bound from
their schemas and preconditions are evaluated as plain expressions over an
explicit state, so a defect in grounding or search cannot hide here. It
imports only the IR and the plan values, so its substitution and evaluation
share no code with grounding.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from ..ir import (
    And,
    Atom,
    Comparison,
    Expression,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumTerm,
    NumericEffect,
    Or,
    ProblemInstance,
    SetEffect,
)
from ..values import Value
from .plan import Plan


class Valid(Value):
    final_numerics: tuple[tuple[NumFluent, Fraction], ...]


class Invalid(Value):
    step_index: int
    violated: str


Verdict = Union[Valid, Invalid]


def validate_plan(problem: ProblemInstance, plan: Plan) -> Verdict:
    domain = problem.domain
    schemas = domain.action_map()
    objects = problem.object_map()

    atoms = set(problem.init.true_atoms)
    numerics = problem.init.numeric_map()

    for index, step in enumerate(plan.steps):
        schema = schemas.get(step.name)
        if schema is None:
            return Invalid(index, f"unknown action {step.name}")
        if len(step.args) != len(schema.parameters):
            return Invalid(index, f"action {step.name} takes {len(schema.parameters)} arguments, got {len(step.args)}")
        binding: dict[str, str] = {}
        for arg, param in zip(step.args, schema.parameters):
            obj = objects.get(arg)
            if obj is None:
                return Invalid(index, f"unknown object {arg}")
            if not domain.is_subtype(obj.type, param.type):
                return Invalid(index, f"argument {arg} has type {obj.type}, {step.name} expects {param.type}")
            binding[param.name] = arg

        precondition = substitute(schema.precondition, binding)
        try:
            if not eval_ground(precondition, atoms, numerics):
                return Invalid(index, _first_violated(precondition, atoms, numerics))
        except UndefinedNumericError as exc:
            return Invalid(index, f"numeric atom {exc.target} has no value")

        adds: set[Atom] = set()
        dels: set[Atom] = set()
        numeric_updates: list[tuple[str, NumFluent, Fraction]] = []
        for effect in schema.effects:
            if isinstance(effect, SetEffect):
                atom = Atom(effect.atom.fluent, tuple(binding.get(a, a) for a in effect.atom.args))
                (adds if effect.value else dels).add(atom)
            elif isinstance(effect, NumericEffect):
                target = NumFluent(effect.target.fluent, tuple(binding.get(a, a) for a in effect.target.args))
                try:
                    amount = eval_term(substitute_term(effect.amount, binding), numerics)
                except UndefinedNumericError as exc:
                    return Invalid(index, f"numeric atom {exc.target} has no value")
                numeric_updates.append((effect.op, target, amount))
        atoms -= dels
        atoms |= adds
        for op, target, amount in numeric_updates:
            if target not in numerics:
                return Invalid(index, f"numeric atom {target} has no value")
            if op == "increase":
                numerics[target] += amount
            elif op == "decrease":
                numerics[target] -= amount
            else:
                numerics[target] = amount

    try:
        if not eval_ground(problem.goal, atoms, numerics):
            return Invalid(len(plan.steps), _first_violated(problem.goal, atoms, numerics))
    except UndefinedNumericError as exc:
        return Invalid(len(plan.steps), f"numeric atom {exc.target} has no value")

    return Valid(tuple(sorted(numerics.items(), key=lambda kv: (kv[0].fluent, kv[0].args))))


def _first_violated(expr: Expression, atoms, numerics) -> str:
    """Name the first failing conjunct, descending into nested structure."""
    if isinstance(expr, And):
        for child in expr.children:
            if not eval_ground(child, atoms, numerics):
                return _first_violated(child, atoms, numerics)
    return str(expr)


# ------------------------------------------------------------ substitution


def substitute(expr: Expression, binding: dict[str, str]) -> Expression:
    if isinstance(expr, Atom):
        return Atom(expr.fluent, tuple(binding.get(a, a) for a in expr.args))
    if isinstance(expr, And):
        return And(tuple(substitute(c, binding) for c in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(substitute(c, binding) for c in expr.children))
    if isinstance(expr, Not):
        return Not(substitute(expr.child, binding))
    if isinstance(expr, Comparison):
        return Comparison(expr.op, substitute_term(expr.left, binding), substitute_term(expr.right, binding))
    raise TypeError(f"not a boolean expression: {expr!r}")


def substitute_term(term: NumTerm, binding: dict[str, str]) -> NumTerm:
    if isinstance(term, NumConst):
        return term
    if isinstance(term, NumFluent):
        return NumFluent(term.fluent, tuple(binding.get(a, a) for a in term.args))
    if isinstance(term, NumAdd):
        return NumAdd(substitute_term(term.left, binding), substitute_term(term.right, binding))
    if isinstance(term, NumSub):
        return NumSub(substitute_term(term.left, binding), substitute_term(term.right, binding))
    raise TypeError(f"not a numeric term: {term!r}")


# ------------------------------------------------------------ evaluation


class UndefinedNumericError(KeyError):
    def __init__(self, target: NumFluent):
        self.target = target
        super().__init__(str(target))


def eval_term(term: NumTerm, numerics: Mapping[NumFluent, Fraction]) -> Fraction:
    if isinstance(term, NumConst):
        return term.value
    if isinstance(term, NumFluent):
        try:
            return numerics[term]
        except KeyError:
            raise UndefinedNumericError(term) from None
    if isinstance(term, NumAdd):
        return eval_term(term.left, numerics) + eval_term(term.right, numerics)
    if isinstance(term, NumSub):
        return eval_term(term.left, numerics) - eval_term(term.right, numerics)
    raise TypeError(f"not a numeric term: {term!r}")


def _compare(op: str, left: Fraction, right: Fraction) -> bool:
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == "=":
        return left == right
    if op == ">=":
        return left >= right
    if op == ">":
        return left > right
    raise ValueError(f"unknown comparison {op!r}")


def eval_ground(expr: Expression, true_atoms: frozenset[Atom] | set[Atom], numerics: Mapping[NumFluent, Fraction]) -> bool:
    if isinstance(expr, Atom):
        return expr in true_atoms
    if isinstance(expr, And):
        return all(eval_ground(c, true_atoms, numerics) for c in expr.children)
    if isinstance(expr, Or):
        return any(eval_ground(c, true_atoms, numerics) for c in expr.children)
    if isinstance(expr, Not):
        return not eval_ground(expr.child, true_atoms, numerics)
    if isinstance(expr, Comparison):
        return _compare(expr.op, eval_term(expr.left, numerics), eval_term(expr.right, numerics))
    raise TypeError(f"not a boolean expression: {expr!r}")
