"""Core value types for planning domains, problems, and edits.

Everything here is an immutable value: edits and transitions produce new
objects, so instances can be shared freely across threads. Numeric state is
held as exact `fractions.Fraction` values so that planner and validator
decisions are reproducible bit for bit.

``str()`` of an expression, a numeric term or an effect is its PDDL text,
the text `planwright.pddl` writes into domain and problem files and that
diagnostics quote.

The walkers of expressions and terms recurse. The readers bound how deep
they must go: `planwright.pddl.syntax` reads lists nested at most
`MAX_DEPTH` deep, and `jsonio.read_object` documents nested at most
`MAX_JSON_DEPTH` deep. IR built in code and not read from text, as in the
tests and ``scripts/``, is not depth-checked.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Optional, Union

from ..values import Value, set_field

OBJECT_TYPE = "object"

BOOLEAN = "boolean"
NUMERIC = "numeric"

COMPARISON_OPS = ("<", "<=", "=", ">=", ">")


def is_variable(name: str) -> bool:
    """Variables carry a leading '?'; anything else names an object."""
    return name.startswith("?")


class TypeDecl(Value):
    """A named object type; ``parent`` defaults to the universal root type."""

    name: str
    parent: str = OBJECT_TYPE


class Parameter(Value):
    name: str  # '?'-prefixed variable name
    type: str = OBJECT_TYPE


class FluentDecl(Value):
    """A state variable template: boolean (predicate) or numeric (function)."""

    name: str
    parameters: tuple[Parameter, ...] = ()
    kind: str = BOOLEAN
    description: str = ""
    _json_omit = {"description": ""}

    @property
    def arity(self) -> int:
        return len(self.parameters)

    def signature(self) -> tuple:
        """Identity of the declaration minus documentation text."""
        return (self.name, tuple((p.name, p.type) for p in self.parameters), self.kind)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class _Application(Value):
    """A fluent applied to arguments (variables or object names).

    Parsing and grounding build and hash these by the thousand, so the
    methods `Value` would run generically are written out.
    """

    fluent: str
    args: tuple[str, ...]

    def __init__(self, fluent: str, args: tuple[str, ...] = ()):
        set_field(self, "fluent", fluent)
        set_field(self, "args", args)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.fluent == other.fluent and self.args == other.args
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.fluent, self.args))

    def __str__(self) -> str:
        if not self.args:
            return f"({self.fluent})"
        return f"({self.fluent} {' '.join(self.args)})"


class Atom(_Application):
    """A boolean fluent applied to arguments."""

    _json_op = "atom"


def decimal_places(value: Fraction) -> Optional[int]:
    """The digits after the point of ``value``'s finite decimal form, or None
    when it has none: its denominator has a prime factor other than 2 and 5."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


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


class NumConst(Value):
    value: Fraction

    def __str__(self) -> str:
        return format_fraction(self.value)

    def json_items(self) -> list[tuple[str, Any]]:
        return [("op", "const"), ("value", str(self.value))]


class NumFluent(_Application):
    """A numeric fluent applied to arguments, used as an arithmetic term."""

    _json_op = "fluent"


class NumAdd(Value):
    left: "NumTerm"
    right: "NumTerm"
    _json_op = "+"

    def __str__(self) -> str:
        return f"(+ {self.left} {self.right})"


class NumSub(Value):
    left: "NumTerm"
    right: "NumTerm"
    _json_op = "-"

    def __str__(self) -> str:
        return f"(- {self.left} {self.right})"


NumTerm = Union[NumConst, NumFluent, NumAdd, NumSub]


class And(Value):
    children: tuple["Expression", ...] = ()
    _json_op = "and"

    def __str__(self) -> str:
        if not self.children:
            return "(and)"
        return f"(and {' '.join(str(c) for c in self.children)})"


class Or(Value):
    children: tuple["Expression", ...] = ()
    _json_op = "or"

    def __str__(self) -> str:
        if not self.children:
            return "(or)"
        return f"(or {' '.join(str(c) for c in self.children)})"


class Not(Value):
    child: "Expression"
    _json_op = "not"

    def __str__(self) -> str:
        return f"(not {self.child})"


class Comparison(Value):
    op: str  # one of COMPARISON_OPS
    left: NumTerm
    right: NumTerm

    def __str__(self) -> str:
        return f"({self.op} {self.left} {self.right})"


Expression = Union[Atom, And, Or, Not, Comparison]

TRUE = And(())


def walk_expression(expr: Expression) -> Iterator[Expression]:
    """Yield every boolean-level node of ``expr`` in preorder."""
    yield expr
    if isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from walk_expression(child)
    elif isinstance(expr, Not):
        yield from walk_expression(expr.child)


def walk_terms(term: NumTerm) -> Iterator[NumTerm]:
    yield term
    if isinstance(term, (NumAdd, NumSub)):
        yield from walk_terms(term.left)
        yield from walk_terms(term.right)


def expression_num_fluents(expr: Expression) -> Iterator[NumFluent]:
    for node in walk_expression(expr):
        if isinstance(node, Comparison):
            for side in (node.left, node.right):
                for term in walk_terms(side):
                    if isinstance(term, NumFluent):
                        yield term


# --------------------------------------------------------------------------
# Effects
# --------------------------------------------------------------------------


class SetEffect(Value):
    """Set a boolean atom to a literal truth value."""

    atom: Atom
    value: bool = True
    _json_op = "set"

    def __str__(self) -> str:
        return str(self.atom) if self.value else f"(not {self.atom})"


class NumericEffect(Value):
    """increase/decrease/assign a numeric atom by a linear term."""

    op: str  # "increase" | "decrease" | "assign"
    target: NumFluent
    amount: NumTerm

    def __str__(self) -> str:
        return f"({self.op} {self.target} {self.amount})"


Effect = Union[SetEffect, NumericEffect]

NUMERIC_EFFECT_OPS = ("increase", "decrease", "assign")


# --------------------------------------------------------------------------
# Schemas, domains, problems
# --------------------------------------------------------------------------


class ActionSchema(Value):
    name: str
    parameters: tuple[Parameter, ...] = ()
    precondition: Expression = TRUE
    effects: tuple[Effect, ...] = ()


class DomainModel(Value):
    """A planning domain: types, fluents, and action schemas.

    Declarations are kept lexicographically sorted so that independently
    built or edited models compare equal regardless of insertion order.
    Requirement flags are derived from content, which keeps the
    numeric-fluents flag consistent with the declared fluents by
    construction.
    """

    name: str
    types: tuple[TypeDecl, ...] = ()
    fluents: tuple[FluentDecl, ...] = ()
    actions: tuple[ActionSchema, ...] = ()
    _json_keys = ("name", "requirements", "types", "fluents", "actions")

    def __post_init__(self) -> None:
        set_field(self, "types", tuple(sorted(self.types, key=lambda t: t.name)))
        set_field(self, "fluents", tuple(sorted(self.fluents, key=lambda f: f.name)))
        set_field(self, "actions", tuple(sorted(self.actions, key=lambda a: a.name)))

    @property
    def requirements(self) -> tuple[str, ...]:
        """The ``:requirements`` flags, derived from what the domain uses."""
        nodes = {type(node) for action in self.actions for node in walk_expression(action.precondition)}
        flags = [":strips"]
        if self.types:
            flags.append(":typing")
        if Not in nodes:
            flags.append(":negative-preconditions")
        if Or in nodes:
            flags.append(":disjunctive-preconditions")
        if any(f.kind == NUMERIC for f in self.fluents):
            flags.append(":numeric-fluents")
        return tuple(flags)

    @cached_property
    def _parents(self) -> dict[str, str]:
        """Each declared type's parent, built once per model. Not a field, so
        equality, hashing and `replace` ignore it."""
        return {t.name: t.parent for t in self.types}

    def fluent_map(self) -> dict[str, FluentDecl]:
        return {f.name: f for f in self.fluents}

    def action_map(self) -> dict[str, ActionSchema]:
        return {a.name: a for a in self.actions}

    def is_subtype(self, sub: str, sup: str) -> bool:
        """True when ``sub`` equals or descends from ``sup`` in the type forest."""
        if sup == OBJECT_TYPE or sub == sup:
            return True
        parents = self._parents
        seen = set()
        current = sub
        while current != OBJECT_TYPE and current not in seen:
            seen.add(current)
            current = parents.get(current)
            if current is None:
                return False
            if current == sup:
                return True
        return False


class ObjectDecl(Value):
    name: str
    type: str = OBJECT_TYPE


def _freeze_numeric(values: Mapping[NumFluent, Fraction] | Iterable[tuple[NumFluent, Fraction]]) -> tuple[tuple[NumFluent, Fraction], ...]:
    items = values.items() if isinstance(values, Mapping) else values
    frozen = tuple(sorted(((k, Fraction(v)) for k, v in items), key=lambda kv: (kv[0].fluent, kv[0].args)))
    return frozen


class Assignment(Value):
    """Closed-world state description: true boolean atoms plus numeric values.

    Boolean atoms absent from ``true_atoms`` are false. Both components are
    kept canonically sorted so equal assignments serialize identically.
    """

    true_atoms: frozenset[Atom] = frozenset()
    numeric: tuple[tuple[NumFluent, Fraction], ...] = ()

    @staticmethod
    def create(true_atoms: Iterable[Atom] = (), numeric: Mapping[NumFluent, Fraction] | Iterable[tuple[NumFluent, Fraction]] = ()) -> "Assignment":
        return Assignment(frozenset(true_atoms), _freeze_numeric(numeric))

    def numeric_map(self) -> dict[NumFluent, Fraction]:
        return dict(self.numeric)

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.true_atoms, key=lambda a: (a.fluent, a.args))

    def json_items(self) -> list[tuple[str, Any]]:
        numerics = [{"fluent": t.fluent, "args": list(t.args), "value": str(v)} for t, v in self.numeric]
        return [("booleans", self.sorted_atoms()), ("numerics", numerics)]


class ProblemInstance(Value):
    domain: DomainModel
    objects: tuple[ObjectDecl, ...] = ()
    init: Assignment = Assignment()
    goal: Expression = TRUE
    name: str = "problem"
    _json_keys = ("name", "domain", "objects", "init", "goal")

    def __post_init__(self) -> None:
        set_field(self, "objects", tuple(sorted(self.objects, key=lambda o: o.name)))

    def object_map(self) -> dict[str, ObjectDecl]:
        return {o.name: o for o in self.objects}


# --------------------------------------------------------------------------
# Edits
# --------------------------------------------------------------------------


class AddOrModifyFluent(Value):
    """Request a new fluent, or a documentation update to an identical one.

    Signature changes to an existing fluent are rejected downstream; the
    destructive path is an explicit ModifyAction-style replacement.
    """

    fluent: FluentDecl
    provenance: str


class ModifyAction(Value):
    """Replace the precondition and/or effects of an existing action."""

    action: str
    precondition: Optional[Expression]
    effects: Optional[tuple[Effect, ...]]
    provenance: str


class AddObjects(Value):
    objects: tuple[ObjectDecl, ...]
    provenance: str


DomainEdit = Union[AddOrModifyFluent, ModifyAction, AddObjects]
