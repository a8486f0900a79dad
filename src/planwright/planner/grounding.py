"""Grounding: from a problem instance to an indexed propositional task.

Each action schema's precondition is normalized once to conjunctions of
literals and numeric comparisons (disjunctions split into separate
variants); the schema is then instantiated over all type-consistent
bindings by substituting into those branches. Every such branch, and every
DNF branch of the goal, is compiled by `_compile_branch` into a `Condition`:
a positive and a negative atom bitmask plus linear numeric comparisons. The
goal holds when any of its branches does. Instantiations that can never
apply are pruned from the initial state in two passes: a relaxed
single-atom reachability pass (deletes ignored), then a pair-reachability
(h^2) fixpoint over the survivors that keeps, for every atom, an int
bitmask of the atoms that can hold together with it. Pruning ignores
negative and numeric conditions, which keeps it sound: it only ever removes
actions that are impossible for boolean reasons.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Optional

from ..ir import (
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
    Or,
    ProblemInstance,
    SetEffect,
    ground_atoms,
)


class GroundingError(ValueError):
    pass


# ------------------------------------------------------------ normalization


def to_nnf(expr: Expression, negate: bool = False) -> Expression:
    """Push negations down to atoms; negated comparisons flip their operator."""
    if isinstance(expr, Atom):
        return Not(expr) if negate else expr
    if isinstance(expr, Not):
        return to_nnf(expr.child, not negate)
    if isinstance(expr, And):
        children = tuple(to_nnf(c, negate) for c in expr.children)
        return Or(children) if negate else And(children)
    if isinstance(expr, Or):
        children = tuple(to_nnf(c, negate) for c in expr.children)
        return And(children) if negate else Or(children)
    if isinstance(expr, Comparison):
        if not negate:
            return expr
        flipped = {"<": ">=", "<=": ">", ">=": "<", ">": "<="}
        if expr.op in flipped:
            return Comparison(flipped[expr.op], expr.left, expr.right)
        # not(=) is disjunctive
        return Or((Comparison("<", expr.left, expr.right), Comparison(">", expr.left, expr.right)))
    raise TypeError(f"not a boolean expression: {expr!r}")


def to_dnf_branches(expr: Expression) -> list[list[Expression]]:
    """NNF expression -> list of conjunctive branches (literals/comparisons)."""
    if isinstance(expr, And):
        branches: list[list[Expression]] = [[]]
        for child in expr.children:
            child_branches = to_dnf_branches(child)
            branches = [b + cb for b in branches for cb in child_branches]
        return branches
    if isinstance(expr, Or):
        out: list[list[Expression]] = []
        for child in expr.children:
            out.extend(to_dnf_branches(child))
        return out
    return [[expr]]


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


# ------------------------------------------------------------ linear forms


@dataclass(frozen=True)
class Linear:
    """constant + sum(coef * numeric_atom_index); all coefficients integers."""

    constant: Fraction
    coeffs: tuple[tuple[int, int], ...]  # (atom index, coefficient)

    def evaluate(self, values: tuple[Fraction, ...]) -> Fraction:
        total = self.constant
        for idx, coef in self.coeffs:
            total += values[idx] * coef
        return total


def _linearize(term: NumTerm, index: dict[NumFluent, int], sign: int, constant: list[Fraction], coeffs: dict[int, int]) -> None:
    if isinstance(term, NumConst):
        constant[0] += term.value * sign
    elif isinstance(term, NumFluent):
        if term not in index:
            raise GroundingError(f"numeric atom {term} is used but uninitialized")
        coeffs[index[term]] = coeffs.get(index[term], 0) + sign
    elif isinstance(term, NumAdd):
        _linearize(term.left, index, sign, constant, coeffs)
        _linearize(term.right, index, sign, constant, coeffs)
    elif isinstance(term, NumSub):
        _linearize(term.left, index, sign, constant, coeffs)
        _linearize(term.right, index, -sign, constant, coeffs)
    else:
        raise TypeError(f"not a numeric term: {term!r}")


def linearize(term: NumTerm, index: dict[NumFluent, int]) -> Linear:
    constant = [Fraction(0)]
    coeffs: dict[int, int] = {}
    _linearize(term, index, 1, constant, coeffs)
    return Linear(constant[0], tuple(sorted((i, c) for i, c in coeffs.items() if c != 0)))


@dataclass(frozen=True)
class GroundComparison:
    """left - right rendered as a single linear form compared against zero."""

    op: str
    form: Linear

    def holds(self, values: tuple[Fraction, ...]) -> bool:
        v = self.form.evaluate(values)
        if self.op == "<":
            return v < 0
        if self.op == "<=":
            return v <= 0
        if self.op == "=":
            return v == 0
        if self.op == ">=":
            return v >= 0
        return v > 0


@dataclass(frozen=True)
class GroundNumericEffect:
    op: str  # increase | decrease | assign
    target: int
    amount: Linear


@dataclass(frozen=True)
class Condition:
    """A compiled conjunction: atoms that must hold, atoms that must not, and
    numeric comparisons that must all hold."""

    pos: int  # bitmask over boolean atom indices
    neg: int
    num: tuple[GroundComparison, ...]

    def holds(self, bools: int, nums: tuple[Fraction, ...]) -> bool:
        if (bools & self.pos) != self.pos or (bools & self.neg) != 0:
            return False
        return all(c.holds(nums) for c in self.num)


@dataclass(frozen=True)
class GroundAction:
    name: str
    args: tuple[str, ...]
    pre: Condition
    add_mask: int
    del_mask: int
    num_effects: tuple[GroundNumericEffect, ...]

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"

    def applicable(self, bools: int, nums: tuple[Fraction, ...]) -> bool:
        return self.pre.holds(bools, nums)

    def apply(self, bools: int, nums: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
        new_bools = (bools & ~self.del_mask) | self.add_mask
        if not self.num_effects:
            return new_bools, nums
        # Amounts are evaluated against the pre-state; applications are
        # sequential in declaration order.
        working = list(nums)
        for effect in self.num_effects:
            amount = effect.amount.evaluate(nums)
            if effect.op == "increase":
                working[effect.target] += amount
            elif effect.op == "decrease":
                working[effect.target] -= amount
            else:
                working[effect.target] = amount
        return new_bools, tuple(working)


@dataclass(frozen=True)
class GroundTask:
    problem: ProblemInstance
    atoms: tuple[Atom, ...]
    atom_index: dict[Atom, int]
    num_atoms: tuple[NumFluent, ...]
    num_index: dict[NumFluent, int]
    actions: tuple[GroundAction, ...]
    init_bools: int
    init_nums: tuple[Fraction, ...]
    goal: tuple[Condition, ...]  # DNF branches; the source is problem.goal

    def goal_holds(self, bools: int, nums: tuple[Fraction, ...]) -> bool:
        for pos, neg, numeric in self._goal_test:
            if bools & pos == pos and not bools & neg and (numeric is None or numeric.holds(bools, nums)):
                return True
        return False

    @cached_property
    def _goal_test(self) -> tuple[tuple[int, int, Optional[Condition]], ...]:
        """The goal branches as ``(pos, neg, branch)``, where ``branch`` is
        None unless it has numeric comparisons to test as well."""
        return tuple((b.pos, b.neg, b if b.num else None) for b in self.goal)

    @cached_property
    def relaxed(self):
        """The delete-relaxed view the heuristics search, compiled on first
        use and kept with the task, so it is freed with it."""
        from .heuristics import RelaxedView  # heuristics imports this module

        return RelaxedView(self)

    def atoms_of(self, bools: int) -> frozenset[Atom]:
        return frozenset(a for i, a in enumerate(self.atoms) if bools >> i & 1)

    def numerics_of(self, nums: tuple[Fraction, ...]) -> dict[NumFluent, Fraction]:
        return {a: nums[i] for i, a in enumerate(self.num_atoms)}


def _comparison_form(comp: Comparison, index: dict[NumFluent, int]) -> Linear:
    left = linearize(comp.left, index)
    right = linearize(comp.right, index)
    merged: dict[int, int] = dict(left.coeffs)
    for idx, coef in right.coeffs:
        merged[idx] = merged.get(idx, 0) - coef
    coeffs = tuple(sorted((i, c) for i, c in merged.items() if c != 0))
    return Linear(left.constant - right.constant, coeffs)


# ------------------------------------------------------------ instantiation


def _bindings(domain: DomainModel, parameters, objects) -> Iterable[dict[str, str]]:
    candidates = [
        sorted(o.name for o in objects if domain.is_subtype(o.type, p.type))
        for p in parameters
    ]
    names = [p.name for p in parameters]
    for combo in product(*candidates):
        yield dict(zip(names, combo))


def ground(problem: ProblemInstance) -> GroundTask:
    """Instantiate, normalize, and prune. Requires a valid problem."""
    domain = problem.domain
    grounded = ground_atoms(domain, problem.objects)
    atoms = grounded.booleans
    atom_index = {a: i for i, a in enumerate(atoms)}

    init_true = problem.init.true_atoms
    init_numeric = problem.init.numeric_map()

    # Numeric atoms get indices only when initialized; using an
    # uninitialized one is reported during linearization.
    num_atoms = tuple(a for a in grounded.numerics if a in init_numeric)
    num_index = {a: i for i, a in enumerate(num_atoms)}

    # The goal is compiled first, so an uninitialized goal numeric is
    # reported before any action is instantiated.
    branches = (_compile_branch(b, atom_index, num_index) for b in to_dnf_branches(to_nnf(problem.goal)))
    goal = tuple(b for b in branches if b is not None)

    init_bools = 0
    for atom in init_true:
        idx = atom_index.get(atom)
        if idx is not None:
            init_bools |= 1 << idx
    init_nums = tuple(init_numeric[a] for a in num_atoms)

    actions = _instantiate(problem, atom_index, num_index)
    return GroundTask(
        problem=problem,
        atoms=atoms,
        atom_index=atom_index,
        num_atoms=num_atoms,
        num_index=num_index,
        actions=tuple(_prune_unreachable(actions, init_bools)),
        init_bools=init_bools,
        init_nums=init_nums,
        goal=goal,
    )


def _instantiate(problem: ProblemInstance, atom_index, num_index) -> list[GroundAction]:
    """Every ground action variant of every schema, before pruning.

    Each schema's precondition is normalized once; substitution keeps the
    And/Or structure, so substituting the literals of each branch gives the
    same branches, in the same order, as normalizing the bound precondition.
    """
    domain = problem.domain
    actions: list[GroundAction] = []
    for schema in domain.actions:
        branches = to_dnf_branches(to_nnf(schema.precondition))
        for binding in _bindings(domain, schema.parameters, problem.objects):
            for branch in branches:
                literals = [substitute(literal, binding) for literal in branch]
                action = _build_action(schema, binding, literals, atom_index, num_index)
                if action is not None:
                    actions.append(action)
    return actions


def _compile_branch(literals, atom_index, num_index) -> Optional[Condition]:
    """One conjunctive DNF branch as a `Condition`, or None if it can never hold.

    Every comparison is linearized, even after a false constant comparison
    has ruled the branch out, so an uninitialized numeric atom is always
    reported.
    """
    pos = 0
    neg = 0
    num: list[GroundComparison] = []
    constants_hold = True
    for literal in literals:
        if isinstance(literal, Atom):
            idx = atom_index.get(literal)
            if idx is None:
                return None  # cannot arise from a well-typed schema
            pos |= 1 << idx
        elif isinstance(literal, Not):
            idx = atom_index.get(literal.child)
            if idx is None:
                return None
            neg |= 1 << idx
        elif isinstance(literal, Comparison):
            comp = GroundComparison(literal.op, _comparison_form(literal, num_index))
            if comp.form.coeffs:
                num.append(comp)
            elif not comp.holds(()):
                constants_hold = False
        else:
            raise GroundingError(f"unexpected literal {literal!r} after normalization")
    if not constants_hold or pos & neg:
        return None  # a false constant comparison, or p and (not p)
    return Condition(pos, neg, tuple(num))


def _build_action(schema, binding, branch, atom_index, num_index) -> Optional[GroundAction]:
    pre = _compile_branch(branch, atom_index, num_index)
    if pre is None:
        return None

    add_mask = 0
    del_mask = 0
    num_effects: list[GroundNumericEffect] = []
    for effect in schema.effects:
        if isinstance(effect, SetEffect):
            atom = Atom(effect.atom.fluent, tuple(binding.get(a, a) for a in effect.atom.args))
            idx = atom_index.get(atom)
            if idx is None:
                return None
            if effect.value:
                add_mask |= 1 << idx
            else:
                del_mask |= 1 << idx
        elif isinstance(effect, NumericEffect):
            target = NumFluent(effect.target.fluent, tuple(binding.get(a, a) for a in effect.target.args))
            if target not in num_index:
                raise GroundingError(f"numeric atom {target} is used but uninitialized")
            amount = linearize(substitute_term(effect.amount, binding), num_index)
            num_effects.append(GroundNumericEffect(effect.op, num_index[target], amount))
    # Add wins over delete is forbidden upstream; keep masks disjoint anyway.
    del_mask &= ~add_mask

    args = tuple(binding[p.name] for p in schema.parameters)
    return GroundAction(
        name=schema.name,
        args=args,
        pre=pre,
        add_mask=add_mask,
        del_mask=del_mask,
        num_effects=tuple(num_effects),
    )


# ------------------------------------------------------------ pruning


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _prune_unreachable(actions: list[GroundAction], init_bools: int) -> list[GroundAction]:
    """Drop the actions whose positive precondition can never hold.

    Two fixpoints from the initial state, both ignoring negative and numeric
    preconditions, so only genuinely impossible actions are removed:

    1. Relaxed reachability: fire every action whose positive precondition
       is reached, with deletes ignored, until no atom is added. An action
       whose precondition needs an unreached atom is dropped.
    2. Pair reachability (h^2) over the survivors. ``rows[i]`` is the mask
       of atoms that can hold together with atom ``i``; it holds bit ``i``
       itself once ``i`` is reachable. An action is enabled when every
       pair within its positive precondition is reachable, i.e. when
       ``pre.pos`` lies inside ``rows[i]`` for each precondition atom ``i``.
       An enabled action makes each added atom co-hold with the other added
       atoms and with every atom that co-holds with the whole precondition
       and is neither added nor deleted.

    Survivors keep their order. Step 1 drops nothing that step 2 would keep:
    a pair (i, i) is only ever marked for an atom i that step 1 reaches. The
    least fixpoint of step 2 is unique, so the order of the updates does not
    change the result.
    """
    reached = init_bools
    pending = actions
    grew = True
    while grew:
        grew = False
        blocked = []
        for action in pending:
            if action.pre.pos & reached != action.pre.pos:
                blocked.append(action)
            elif action.add_mask & ~reached:
                reached |= action.add_mask
                grew = True
        pending = blocked
    candidates = [a for a in actions if a.pre.pos & reached == a.pre.pos]

    rows = [init_bools if init_bools >> i & 1 else 0 for i in range(reached.bit_length())]
    self_mask = init_bools
    pre_bits = [_mask_bits(a.pre.pos) for a in candidates]
    add_bits = [_mask_bits(a.add_mask) for a in candidates]

    grew = True
    while grew:
        grew = False
        for action, pre, adds in zip(candidates, pre_bits, add_bits):
            pre_mask = action.pre.pos
            together = self_mask
            for i in pre:
                row = rows[i]
                if pre_mask & ~row:
                    break
                together &= row
            else:
                together = (together & ~(action.del_mask | action.add_mask)) | action.add_mask
                for i in adds:
                    fresh = together & ~rows[i]
                    if not fresh:
                        continue
                    grew = True
                    bit = 1 << i
                    rows[i] |= fresh
                    self_mask |= bit
                    for j in _mask_bits(fresh & ~bit):
                        rows[j] |= bit

    return [a for a, pre in zip(candidates, pre_bits) if all(not a.pre.pos & ~rows[i] for i in pre)]
