"""Structural validation of domains and problem instances.

Violations are data, not exceptions: ``validate`` returns a report listing
every broken invariant with a machine-readable code, and an empty report
means the instance is well-formed.
"""
from __future__ import annotations

from itertools import islice, product
from math import prod
from typing import Optional

from ..values import Value, cached_on
from .model import (
    BOOLEAN,
    COMPARISON_OPS,
    NUMERIC,
    NUMERIC_EFFECT_OPS,
    OBJECT_TYPE,
    And,
    Atom,
    Comparison,
    DomainModel,
    Expression,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumTerm,
    NumericEffect,
    ObjectDecl,
    Or,
    ProblemInstance,
    SetEffect,
    decimal_places,
    expression_num_fluents,
    is_variable,
    walk_terms,
)

# Violation codes, kept stable for tooling.
UNKNOWN_TYPE = "unknown-type"
DUPLICATE_TYPE = "duplicate-type"
TYPE_CYCLE = "type-cycle"
DUPLICATE_FLUENT = "duplicate-fluent"
DUPLICATE_PARAMETER = "duplicate-parameter"
DUPLICATE_ACTION = "duplicate-action"
DUPLICATE_OBJECT = "duplicate-object"
UNKNOWN_FLUENT = "unknown-fluent"
UNKNOWN_OBJECT = "unknown-object"
UNBOUND_VARIABLE = "unbound-variable"
ARITY_MISMATCH = "arity-mismatch"
TYPE_MISMATCH = "type-mismatch"
KIND_MISMATCH = "kind-mismatch"
CONFLICTING_EFFECT = "conflicting-effect"
BAD_KIND = "bad-kind"
BAD_OPERATOR = "bad-operator"
UNINITIALIZED_NUMERIC = "uninitialized-numeric"
NO_DECIMAL_FORM = "no-decimal-form"


class Violation(Value):
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


ValidationReport = list[Violation]


class _Scope:
    """Resolves expression arguments to their types.

    Action bodies resolve variables against the schema's parameters; goals
    and init sections resolve object names against the problem's objects.
    """

    def __init__(self, domain: DomainModel, variables: Optional[dict[str, str]] = None, objects: Optional[dict[str, str]] = None):
        self.domain = domain
        self.variables = variables
        self.objects = objects

    def resolve(self, arg: str, where: str, out: ValidationReport) -> Optional[str]:
        if is_variable(arg):
            if self.variables is None:
                out.append(Violation(UNBOUND_VARIABLE, f"variable {arg} not allowed in {where}"))
                return None
            if arg not in self.variables:
                out.append(Violation(UNBOUND_VARIABLE, f"variable {arg} in {where} is not bound by a parameter"))
                return None
            return self.variables[arg]
        if self.objects is None:
            out.append(Violation(UNKNOWN_OBJECT, f"object {arg} in {where} is not available at domain level"))
            return None
        if arg not in self.objects:
            out.append(Violation(UNKNOWN_OBJECT, f"object {arg} in {where} is not declared"))
            return None
        return self.objects[arg]


def _check_application(fluent_name: str, args: tuple[str, ...], expected_kind: str, scope: _Scope, where: str, out: ValidationReport) -> None:
    decl = scope.domain.fluent_map().get(fluent_name)
    if decl is None:
        out.append(Violation(UNKNOWN_FLUENT, f"fluent {fluent_name} in {where} is not declared"))
        return
    if decl.kind != expected_kind:
        out.append(Violation(KIND_MISMATCH, f"fluent {fluent_name} in {where} is {decl.kind}, expected {expected_kind}"))
        return
    if len(args) != decl.arity:
        out.append(Violation(ARITY_MISMATCH, f"fluent {fluent_name} in {where} takes {decl.arity} arguments, got {len(args)}"))
        return
    for arg, param in zip(args, decl.parameters):
        arg_type = scope.resolve(arg, where, out)
        if arg_type is None:
            continue
        if not scope.domain.is_subtype(arg_type, param.type):
            out.append(Violation(TYPE_MISMATCH, f"argument {arg} of {fluent_name} in {where} has type {arg_type}, expected {param.type}"))


def _check_term(term: NumTerm, scope: _Scope, where: str, out: ValidationReport) -> None:
    if isinstance(term, NumConst):
        if decimal_places(term.value) is None:
            out.append(Violation(NO_DECIMAL_FORM, f"constant {term.value} in {where} has no finite decimal form"))
    elif isinstance(term, NumFluent):
        _check_application(term.fluent, term.args, NUMERIC, scope, where, out)
    elif isinstance(term, (NumAdd, NumSub)):
        _check_term(term.left, scope, where, out)
        _check_term(term.right, scope, where, out)
    else:
        out.append(Violation(BAD_OPERATOR, f"unknown numeric term {term!r} in {where}"))


def check_expression(expr: Expression, scope: _Scope, where: str, out: ValidationReport) -> None:
    """Well-typedness: booleans under connectives, numerics under comparisons."""
    if isinstance(expr, Atom):
        _check_application(expr.fluent, expr.args, BOOLEAN, scope, where, out)
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            check_expression(child, scope, where, out)
    elif isinstance(expr, Not):
        check_expression(expr.child, scope, where, out)
    elif isinstance(expr, Comparison):
        if expr.op not in COMPARISON_OPS:
            out.append(Violation(BAD_OPERATOR, f"unknown comparison operator {expr.op} in {where}"))
        _check_term(expr.left, scope, where, out)
        _check_term(expr.right, scope, where, out)
    else:
        out.append(Violation(BAD_OPERATOR, f"unknown expression node {expr!r} in {where}"))


def _check_types(domain: DomainModel, type_names: set[str], out: ValidationReport) -> None:
    seen: set[str] = set()
    for decl in domain.types:
        if decl.name in seen or decl.name == OBJECT_TYPE:
            out.append(Violation(DUPLICATE_TYPE, f"type {decl.name} declared more than once"))
        seen.add(decl.name)
        if decl.parent not in type_names:
            out.append(Violation(UNKNOWN_TYPE, f"type {decl.name} has undeclared parent {decl.parent}"))
    # Forest check: walking parents from any type must reach the root.
    parents = {t.name: t.parent for t in domain.types}
    for name in parents:
        trail = set()
        current = name
        while current != OBJECT_TYPE:
            if current in trail:
                out.append(Violation(TYPE_CYCLE, f"type {name} participates in a parent cycle"))
                break
            trail.add(current)
            nxt = parents.get(current)
            if nxt is None:
                break  # undeclared parent already reported
            current = nxt


def _check_parameters(owner: str, parameters, type_names: set[str], out: ValidationReport) -> None:
    """Parameters of a fluent or action; ``owner`` is ``fluent NAME`` or ``action NAME``."""
    seen: set[str] = set()
    for param in parameters:
        if param.name in seen:
            out.append(Violation(DUPLICATE_PARAMETER, f"{owner} repeats parameter {param.name}"))
        seen.add(param.name)
        if param.type not in type_names:
            out.append(Violation(UNKNOWN_TYPE, f"parameter {param.name} of {owner} has undeclared type {param.type}"))


def _type_names(domain: DomainModel) -> set[str]:
    return {t.name for t in domain.types} | {OBJECT_TYPE}


def _check_domain(domain: DomainModel, type_names: set[str], out: ValidationReport) -> None:
    _check_types(domain, type_names, out)

    seen_fluents: set[str] = set()
    for decl in domain.fluents:
        if decl.name in seen_fluents:
            out.append(Violation(DUPLICATE_FLUENT, f"fluent {decl.name} declared more than once"))
        seen_fluents.add(decl.name)
        if decl.kind not in (BOOLEAN, NUMERIC):
            out.append(Violation(BAD_KIND, f"fluent {decl.name} has unknown kind {decl.kind}"))
        _check_parameters(f"fluent {decl.name}", decl.parameters, type_names, out)

    seen_actions: set[str] = set()
    for action in domain.actions:
        if action.name in seen_actions:
            out.append(Violation(DUPLICATE_ACTION, f"action {action.name} declared more than once"))
        seen_actions.add(action.name)
        _check_parameters(f"action {action.name}", action.parameters, type_names, out)
        scope = _Scope(domain, variables={p.name: p.type for p in action.parameters})
        check_expression(action.precondition, scope, f"precondition of {action.name}", out)
        _check_effects(domain, action.name, action.effects, scope, out)


def _check_objects(objects, type_names: set[str], out: ValidationReport) -> None:
    seen: set[str] = set()
    for obj in objects:
        if obj.name in seen:
            out.append(Violation(DUPLICATE_OBJECT, f"object {obj.name} declared more than once"))
        seen.add(obj.name)
        if obj.type not in type_names:
            out.append(Violation(UNKNOWN_TYPE, f"object {obj.name} has undeclared type {obj.type}"))


def _domain_report(domain: DomainModel) -> tuple[Violation, ...]:
    """The violations of every domain-level invariant, found once per domain
    (`cached_on`)."""
    return cached_on(domain, "_report", _check_whole_domain)


def _check_whole_domain(domain: DomainModel) -> tuple[Violation, ...]:
    out: ValidationReport = []
    _check_domain(domain, _type_names(domain), out)
    return tuple(out)


def validate_domain(domain: DomainModel) -> ValidationReport:
    """Check every domain-level invariant; empty report means valid."""
    return list(_domain_report(domain))


def validate_objects(domain: DomainModel, objects: tuple[ObjectDecl, ...]) -> ValidationReport:
    """Check the names and types of an object set, in declaration order and,
    for each object, the duplicate name before the type; empty report means valid."""
    out: ValidationReport = []
    _check_objects(objects, _type_names(domain), out)
    return out


def _check_effects(domain: DomainModel, action_name: str, effects, scope: _Scope, out: ValidationReport) -> None:
    added: set[Atom] = set()
    deleted: set[Atom] = set()
    for effect in effects:
        where = f"effects of {action_name}"
        if isinstance(effect, SetEffect):
            _check_application(effect.atom.fluent, effect.atom.args, BOOLEAN, scope, where, out)
            (added if effect.value else deleted).add(effect.atom)
        elif isinstance(effect, NumericEffect):
            if effect.op not in NUMERIC_EFFECT_OPS:
                out.append(Violation(BAD_OPERATOR, f"unknown numeric effect {effect.op} in {where}"))
            _check_application(effect.target.fluent, effect.target.args, NUMERIC, scope, where, out)
            _check_term(effect.amount, scope, where, out)
        else:
            out.append(Violation(BAD_OPERATOR, f"unknown effect node {effect!r} in {where}"))
    for atom in sorted(added & deleted, key=lambda a: (a.fluent, a.args)):
        out.append(Violation(CONFLICTING_EFFECT, f"action {action_name} sets {atom} both true and false"))


def validate(problem: ProblemInstance) -> ValidationReport:
    """Full problem validation: domain, objects, init, goal, numeric closure."""
    domain = problem.domain
    type_names = _type_names(domain)
    out = list(_domain_report(domain))
    _check_objects(problem.objects, type_names, out)

    objects = {o.name: o.type for o in problem.objects}
    ground_scope = _Scope(domain, objects=objects)

    for atom in problem.init.sorted_atoms():
        _check_application(atom.fluent, atom.args, BOOLEAN, ground_scope, "init", out)
    for target, value in problem.init.numeric:
        _check_application(target.fluent, target.args, NUMERIC, ground_scope, "init", out)
        if decimal_places(value) is None:
            out.append(Violation(NO_DECIMAL_FORM, f"initial value {value} of {target} has no finite decimal form"))

    check_expression(problem.goal, ground_scope, "goal", out)

    _check_numeric_closure(problem, ground_scope, out)
    return out


def _numeric_fluents_in_use(problem: ProblemInstance) -> frozenset[str]:
    return cached_on(problem.domain, "_numeric_in_use", _domain_numeric_fluents) | {ref.fluent for ref in expression_num_fluents(problem.goal)}


def _domain_numeric_fluents(domain: DomainModel) -> frozenset[str]:
    """The numeric fluents that the actions read or change, which
    `_numeric_fluents_in_use` keeps on the domain (`cached_on`)."""
    found: set[str] = set()
    for action in domain.actions:
        found.update(ref.fluent for ref in expression_num_fluents(action.precondition))
        for effect in action.effects:
            if isinstance(effect, NumericEffect):
                found.add(effect.target.fluent)
                found.update(t.fluent for t in walk_terms(effect.amount) if isinstance(t, NumFluent))
    return frozenset(found)


def _check_numeric_closure(problem: ProblemInstance, scope: _Scope, out: ValidationReport) -> None:
    """Every ground instance of a numeric fluent used by actions or the goal
    must be initialized, otherwise action application would be undefined.

    One violation per fluent gives how many typed instances lack a value and
    the first of them in product order. The count is the size of the product
    less the initialized instances inside it. The first gap lies within one
    step more than the fluent has values, so the walk stops there.
    """
    used = _numeric_fluents_in_use(problem)
    if not used:
        return
    domain = problem.domain
    declared = domain.fluent_map()
    initialized: dict[str, set[tuple[str, ...]]] = {}
    for t, _ in problem.init.numeric:
        initialized.setdefault(t.fluent, set()).add(t.args)
    objects_by_name = sorted(problem.objects, key=lambda o: o.name)
    for name in sorted(used):
        decl = declared.get(name)
        if decl is None or decl.kind != NUMERIC:
            continue  # reported as unknown-fluent / kind-mismatch elsewhere
        # A duplicated object (reported elsewhere) counts once.
        candidates = [
            list(dict.fromkeys(o.name for o in objects_by_name if domain.is_subtype(o.type, param.type)))
            for param in decl.parameters
        ]
        have = initialized.get(name, set())
        members = [set(names) for names in candidates]
        inside = sum(1 for args in have if len(args) == len(members) and all(a in m for a, m in zip(args, members)))
        total = prod(len(names) for names in candidates)
        if inside == total:
            continue
        first = next(combo for combo in islice(product(*candidates), len(have) + 1) if combo not in have)
        rendered = NumFluent(name, first)
        out.append(
            Violation(
                UNINITIALIZED_NUMERIC,
                f"numeric atom {rendered} is used but has no initial value ({total - inside} of {total} instances of {name} have none)",
            )
        )
