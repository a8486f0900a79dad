"""VAL-style plan checking by direct simulation of the problem semantics.

Deliberately independent of the search machinery: actions are re-bound from
their schemas and preconditions are evaluated as plain expressions over an
explicit state, so a defect in grounding or search cannot hide here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from ..ir import (
    And,
    Atom,
    Expression,
    NumFluent,
    NumericEffect,
    ProblemInstance,
    SetEffect,
)
from .evaluate import UndefinedNumericError, eval_ground, eval_term
from .grounding import substitute, substitute_term
from .plan import Plan


@dataclass(frozen=True)
class Valid:
    final_atoms: frozenset[Atom]
    final_numerics: tuple[tuple[NumFluent, Fraction], ...]

    def numeric_value(self, fluent: str, args: tuple[str, ...]) -> Optional[Fraction]:
        for target, value in self.final_numerics:
            if target.fluent == fluent and target.args == args:
                return value
        return None


@dataclass(frozen=True)
class Invalid:
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

    return Valid(frozenset(atoms), tuple(sorted(numerics.items(), key=lambda kv: (kv[0].fluent, kv[0].args))))


def _first_violated(expr: Expression, atoms, numerics) -> str:
    """Name the first failing conjunct, descending into nested structure."""
    if isinstance(expr, And):
        for child in expr.children:
            if not eval_ground(child, atoms, numerics):
                return _first_violated(child, atoms, numerics)
    return str(expr)
