"""Grounding: from a problem instance to an indexed propositional task.

Each domain is compiled once, on the first grounding of that `DomainModel`
object, into a form that every problem of the domain binds. Each schema's
precondition is normalized to DNF branches of literals and numeric
comparisons (disjunctions split into separate variants), and every atom of
a branch or effect becomes a fluent name and a key: the key reads the
fluent's argument tuple off a binding row of constants and parameter
values. A problem binds the form by swapping each fluent name for its own
table, which maps the fluent's argument tuples to atom bits. A binding thus
maps straight to atom bits, without building an `Atom`. Comparisons and
numeric effects are linearized per binding, and linearization binds a
numeric atom's arguments where it meets the atom, so no bound copy of them
is built.

Only the atoms that the goal or a built binding names get a bit, the next
one, when a table first misses on them: the goal's first. An initial atom
that nothing names is left out, as nothing reads or changes it.

Bindings are enumerated one parameter at a time, in declaration order. A
partial binding is dropped as soon as a static precondition fails in the
initial state: a positive literal, shared by every branch, of a fluent that
no schema adds or deletes, checked once all of its parameters are bound.
Nothing adds that atom, so the pruning below would drop the binding
anyway. Extending the survivors in parameter order enumerates them in the
order of the full product, so the actions come out in schema, binding, then
branch order, as from substituting every binding. `GROUNDING_BUDGET` bounds
the work, each count checked before what it counts is built: the DNF
branches of a precondition or the goal, the candidate bindings at each
parameter, and the variants a schema's bindings make.

Every branch, of an action or of the goal, is compiled into one plain form,
``(pos, neg, num)``: a positive and a negative atom bitmask plus linear
numeric comparisons. An action holds its branch as its fields of those
names; the goal is a tuple of branches, and holds when any of them does.
Instantiations that can never apply are pruned from the initial state by single-atom
relaxed reachability and then, when the atom pairs it may mark fit the
budget, by one pair-reachability fixpoint: h^m of Haslum & Geffner (2000,
"Admissible heuristics for optimal planning") at m = 2, which keeps, for
every atom, an int bitmask of the atoms that can hold together with it.
Pruning ignores negative and numeric conditions, which keeps it sound: it
only ever removes actions that are impossible for boolean reasons.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional

from ..ir import (
    ActionSchema,
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
)
from ..values import Value, cached_on, set_field


class GroundingError(ValueError):
    pass


# The most DNF branches of one precondition or goal, the most candidate
# bindings at one parameter of one schema, and the most ground actions in all,
# that one grounding may build, and the most atom pairs (reached atoms
# squared) over which it runs the pair prune. Like the search's
# node budget it is deterministic, and far above every bundled and benchmark
# instance.
GROUNDING_BUDGET = 1_000_000


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


def _branch_count(expr: Expression, owner: str) -> int:
    """How many branches `to_dnf_branches` makes of the NNF ``expr``: an
    ``And`` multiplies its children's counts, an ``Or`` adds them, a literal
    counts one. Raises `GroundingError` as soon as a count, or a partial
    product, exceeds `GROUNDING_BUDGET`, since `to_dnf_branches` would build
    that many lists; ``owner`` names the expression in the message."""
    if isinstance(expr, And):
        count = 1
        for child in expr.children:
            count *= _branch_count(child, owner)
            if count > GROUNDING_BUDGET:
                break
    elif isinstance(expr, Or):
        count = sum(_branch_count(child, owner) for child in expr.children)
    else:
        return 1
    if count > GROUNDING_BUDGET:
        raise GroundingError(f"{owner} exceeds the budget of {GROUNDING_BUDGET} DNF branches")
    return count


def _dnf(expr: Expression, owner: str) -> list[list[Expression]]:
    """The DNF branches of ``expr``, counted against the budget first."""
    nnf = to_nnf(expr)
    _branch_count(nnf, owner)
    return to_dnf_branches(nnf)


# ------------------------------------------------------------ linear forms


class Linear(Value):
    """constant + sum(coef * numeric_atom_index); all coefficients integers."""

    constant: Fraction
    coeffs: tuple[tuple[int, int], ...]  # (atom index, coefficient)

    def evaluate(self, values: tuple[Fraction, ...]) -> Fraction:
        total = self.constant
        for idx, coef in self.coeffs:
            total += values[idx] * coef
        return total


def _linearize(
    term: NumTerm, binding: dict[str, str], index: dict[NumFluent, int], sign: int, constant: list[Fraction], coeffs: dict[int, int]
) -> None:
    if isinstance(term, NumConst):
        constant[0] += term.value * sign
    elif isinstance(term, NumFluent):
        bound = NumFluent(term.fluent, tuple(binding.get(a, a) for a in term.args))
        if bound not in index:
            raise GroundingError(f"numeric atom {bound} is used but uninitialized")
        coeffs[index[bound]] = coeffs.get(index[bound], 0) + sign
    elif isinstance(term, NumAdd):
        _linearize(term.left, binding, index, sign, constant, coeffs)
        _linearize(term.right, binding, index, sign, constant, coeffs)
    elif isinstance(term, NumSub):
        _linearize(term.left, binding, index, sign, constant, coeffs)
        _linearize(term.right, binding, index, -sign, constant, coeffs)
    else:
        raise TypeError(f"not a numeric term: {term!r}")


def linearize(term: NumTerm, binding: dict[str, str], index: dict[NumFluent, int]) -> Linear:
    """``term`` with its numeric atoms' arguments bound by ``binding``, as a
    linear form over the numeric atom indices ``index``."""
    constant = [Fraction(0)]
    coeffs: dict[int, int] = {}
    _linearize(term, binding, index, 1, constant, coeffs)
    return Linear(constant[0], tuple(sorted((i, c) for i, c in coeffs.items() if c != 0)))


class GroundComparison(Value):
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


class GroundNumericEffect(Value):
    op: str  # increase | decrease | assign
    target: int
    amount: Linear


# Grounding builds a GroundAction per kept binding, so it writes out the
# `__init__` that `Value` would run generically.


class GroundAction(Value):
    name: str
    args: tuple[str, ...]
    pos: int  # precondition: bitmask of the atoms that must hold,
    neg: int  # bitmask of those that must not,
    num: tuple[GroundComparison, ...]  # and comparisons that must all hold
    add_mask: int
    del_mask: int
    num_effects: tuple[GroundNumericEffect, ...]

    def __init__(self, name: str, args: tuple[str, ...], pos: int, neg: int, num: tuple[GroundComparison, ...], add_mask: int, del_mask: int, num_effects: tuple[GroundNumericEffect, ...]):
        set_field(self, "name", name)
        set_field(self, "args", args)
        set_field(self, "pos", pos)
        set_field(self, "neg", neg)
        set_field(self, "num", num)
        set_field(self, "add_mask", add_mask)
        set_field(self, "del_mask", del_mask)
        set_field(self, "num_effects", num_effects)

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


class GroundTask(Value):
    problem: ProblemInstance
    atoms: tuple[Atom, ...]  # atom i has bit 1 << i
    num_atoms: tuple[NumFluent, ...]
    actions: tuple[GroundAction, ...]
    init_bools: int
    init_nums: tuple[Fraction, ...]
    goal: tuple[tuple[int, int, tuple[GroundComparison, ...]], ...]  # DNF branches as (pos, neg, num); the source is problem.goal

    @cached_property
    def relaxed(self):
        """The delete-relaxed view the heuristics search, compiled on first
        use and kept with the task, so it is freed with it."""
        from .heuristics import RelaxedView  # heuristics imports this module

        return RelaxedView(self)


# ------------------------------------------------------------ instantiation


def ground(problem: ProblemInstance) -> GroundTask:
    """Instantiate, normalize, and prune. Requires a valid problem."""
    atoms: list[Atom] = []
    tables = {f.name: _Table(f.name, atoms) for f in problem.domain.fluents}

    # Numeric atoms get indices only when initialized; using an
    # uninitialized one is reported during linearization.
    init_numeric = problem.init.numeric_map()
    num_atoms = tuple(init_numeric)
    num_index = {a: i for i, a in enumerate(num_atoms)}

    # The goal is compiled first, so its atoms take the first bits, in
    # literal order, and an uninitialized goal numeric is reported before
    # any action is instantiated.
    goal = []
    for branch in _dnf(problem.goal, "the goal"):
        pos = neg = 0
        comps = []
        for lit in branch:
            if isinstance(lit, Comparison):
                comps.append(lit)
            elif isinstance(lit, Atom):
                pos |= tables[lit.fluent][lit.args]
            else:  # after NNF, a negated atom
                neg |= tables[lit.child.fluent][lit.child.args]
        num = _ground_comparisons(comps, {}, num_index)
        if num is None or pos & neg:
            continue  # a false constant comparison, or p and (not p)
        goal.append((pos, neg, num))
    actions = _instantiate(problem, tables, num_index)

    init_bools = 0
    for atom in problem.init.true_atoms:
        init_bools |= tables[atom.fluent].get(atom.args, 0)
    return GroundTask(
        problem=problem,
        atoms=tuple(atoms),
        num_atoms=num_atoms,
        actions=tuple(_prune_unreachable(actions, init_bools, len(atoms))),
        init_bools=init_bools,
        init_nums=tuple(init_numeric.values()),
        goal=tuple(goal),
    )


class _Table(dict):
    """One fluent's argument tuples -> atom bits. A miss numbers the atom:
    it takes the next bit and is appended to ``atoms``."""

    __slots__ = ("fluent", "atoms")

    def __init__(self, fluent: str, atoms: list[Atom]):
        self.fluent = fluent
        self.atoms = atoms

    def __missing__(self, args: tuple[str, ...]) -> int:
        bit = self[args] = 1 << len(self.atoms)
        self.atoms.append(Atom(self.fluent, args))
        return bit


def _instantiate(problem: ProblemInstance, tables: dict[str, _Table], num_index) -> list[GroundAction]:
    """Every ground action variant of every schema, before pruning, in
    schema, binding and branch order. ``tables`` maps each fluent to its
    `_Table`.

    A binding that fails a static precondition is never built, so an atom
    or an uninitialized numeric atom that only such a binding mentions is
    neither numbered nor reported.
    """
    domain = problem.domain
    changed, forms = cached_on(domain, "_grounding_form", _domain_form)
    static_true: dict[str, set[tuple[str, ...]]] = {}
    for atom in problem.init.true_atoms:
        if atom.fluent not in changed:
            static_true.setdefault(atom.fluent, set()).add(atom.args)
    pools: dict[str, list[str]] = {}
    actions: list[GroundAction] = []
    for schema, consts, checks, branches, set_effects, num_effects in forms:
        for p in schema.parameters:
            if p.type not in pools:
                pools[p.type] = sorted(o.name for o in problem.objects if domain.is_subtype(o.type, p.type))
        # The form is bound to this problem: each static fluent becomes its
        # true argument tuples here, and each fluent its table below.
        checks = [[(static_true.get(fluent, frozenset()), key) for fluent, key in level] for level in checks]

        # Bindings grow one parameter at a time, in declaration order, so
        # the survivors keep the order of the full product.
        rows = [consts] if all(key(consts) in true for true, key in checks[0]) else []
        for depth, param in enumerate(schema.parameters, 1):
            pool = pools[param.type]
            if len(rows) * len(pool) > GROUNDING_BUDGET:
                raise GroundingError(f"grounding {schema.name} exceeds the budget of {GROUNDING_BUDGET} bindings")
            rows = [row + (name,) for row in rows for name in pool]
            if checks[depth]:
                rows = [row for row in rows if all(key(row) in true for true, key in checks[depth])]
        if not rows:
            continue
        if len(actions) + len(rows) * len(branches) > GROUNDING_BUDGET:
            raise GroundingError(f"grounding exceeds the budget of {GROUNDING_BUDGET} actions")
        branches = [(_bind(literals, tables), comps) for literals, comps in branches]
        set_effects = _bind(set_effects, tables)

        names = [p.name for p in schema.parameters]
        numeric_parts = bool(num_effects) or any(comps for _, comps in branches)
        nconst = len(consts)
        for row in rows:
            binding = dict(zip(names, row[nconst:])) if numeric_parts else None
            effects = None
            for literals, comps in branches:
                pos, neg = _masks(literals, row)
                num = _ground_comparisons(comps, binding, num_index) if comps else ()
                if num is None or pos & neg:
                    continue  # a false constant comparison, or p and (not p)
                if effects is None:
                    effects = _ground_effects(set_effects, num_effects, row, binding, num_index)
                actions.append(GroundAction(schema.name, row[nconst:], pos, neg, num, *effects))
    return actions


def _domain_form(domain: DomainModel) -> tuple:
    """The half of grounding that depends on the domain alone: the fluents
    that some schema adds or deletes, and each schema's `_schema_form`.

    `_instantiate` keeps it on the domain (`cached_on`). It is keyed to the
    domain and not to a schema, because an edited domain keeps its untouched
    schemas while an effect it adds can make a static fluent changed.
    """
    changed = frozenset(e.atom.fluent for s in domain.actions for e in s.effects if isinstance(e, SetEffect))
    return changed, tuple(_schema_form(s, changed) for s in domain.actions)


def _schema_form(schema: ActionSchema, changed: frozenset) -> tuple:
    """A schema's templates. Each atom becomes ``(flag, fluent, key)``:
    ``flag`` tells a positive literal or an add effect, and ``key`` reads
    the fluent's argument tuple off a binding row, ``constants + parameter
    values``.

    Returns the schema, its constants, the static checks ``(fluent, key)``
    to run once ``d`` parameters are bound (index ``d``), the DNF branches
    as ``(literals, comparisons)``, and the boolean and numeric effects.
    """
    position = {p.name: i for i, p in enumerate(schema.parameters)}
    branches = _dnf(schema.precondition, f"the precondition of {schema.name}")
    atoms = [lit.child if isinstance(lit, Not) else lit for b in branches for lit in b if not isinstance(lit, Comparison)]
    atoms += [e.atom for e in schema.effects if isinstance(e, SetEffect)]
    consts = tuple(dict.fromkeys(a for atom in atoms for a in atom.args if a not in position))
    slot = {a: i for i, a in enumerate(consts)}
    slot.update((name, len(consts) + i) for name, i in position.items())

    templates = []
    for branch in branches:
        literals = []
        comps = []
        for lit in branch:
            if isinstance(lit, Comparison):
                comps.append(lit)
            elif isinstance(lit, Atom):
                literals.append(_template(True, lit, slot))
            else:  # after NNF, a negated atom
                literals.append(_template(False, lit.child, slot))
        templates.append((tuple(literals), tuple(comps)))
    set_effects = tuple(_template(e.value, e.atom, slot) for e in schema.effects if isinstance(e, SetEffect))
    num_effects = tuple(e for e in schema.effects if isinstance(e, NumericEffect))

    # A static precondition is a positive literal that every branch shares,
    # of a fluent that no schema adds or deletes. It is checked as soon as
    # its last parameter is bound.
    checks: list[list] = [[] for _ in range(len(position) + 1)]
    shared = set.intersection(*(set(b) for b in branches)) if branches else set()
    for atom in shared:
        if isinstance(atom, Atom) and atom.fluent not in changed:
            depth = max((position[a] + 1 for a in atom.args if a in position), default=0)
            checks[depth].append((atom.fluent, _row_key([slot[a] for a in atom.args])))
    return schema, consts, checks, tuple(templates), set_effects, num_effects


def _template(flag: bool, atom: Atom, slot) -> tuple:
    return flag, atom.fluent, _row_key([slot[a] for a in atom.args])


def _bind(templates, tables) -> tuple:
    """``templates`` with each fluent name swapped for its table."""
    return tuple((flag, tables[fluent], key) for flag, fluent, key in templates)


def _row_key(slots: list[int]) -> itemgetter:
    """A getter for the argument tuple at ``slots`` of a binding row. For
    one slot or none it takes a slice, since ``itemgetter`` of one item
    returns the bare item."""
    if len(slots) > 1:
        return itemgetter(*slots)
    return itemgetter(slice(slots[0], slots[0] + 1) if slots else slice(0, 0))


def _masks(templates, row) -> tuple[int, int]:
    """The bits of the atoms that ``row`` binds in ``templates``, as
    ``(flagged, unflagged)``."""
    flagged = unflagged = 0
    for flag, table, key in templates:
        bit = table[key(row)]
        if flag:
            flagged |= bit
        else:
            unflagged |= bit
    return flagged, unflagged


def _ground_effects(set_effects, num_effects, row, binding, num_index):
    """``(add mask, delete mask, numeric effects)`` of one binding."""
    add_mask, del_mask = _masks(set_effects, row)
    amounts: list[GroundNumericEffect] = []
    for effect in num_effects:
        target = NumFluent(effect.target.fluent, tuple(binding.get(a, a) for a in effect.target.args))
        if target not in num_index:
            raise GroundingError(f"numeric atom {target} is used but uninitialized")
        amount = linearize(effect.amount, binding, num_index)
        amounts.append(GroundNumericEffect(effect.op, num_index[target], amount))
    # Add wins over delete is forbidden upstream; keep masks disjoint anyway.
    return add_mask, del_mask & ~add_mask, tuple(amounts)


def _ground_comparisons(comps, binding, num_index) -> Optional[tuple[GroundComparison, ...]]:
    """The linearized comparisons that read a numeric atom, or None if a
    constant one is false. All are linearized first, so an uninitialized
    numeric atom is always reported."""
    grounded = [GroundComparison(c.op, linearize(NumSub(c.left, c.right), binding, num_index)) for c in comps]
    if not all(c.holds(()) for c in grounded if not c.form.coeffs):
        return None
    return tuple(c for c in grounded if c.form.coeffs)


# ------------------------------------------------------------ pruning


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _prune_unreachable(actions: list[GroundAction], init_bools: int, n: int) -> list[GroundAction]:
    """Drop the actions whose positive precondition can never hold.

    Single-atom relaxed reachability comes first. When the atoms it reaches,
    squared, exceed `GROUNDING_BUDGET`, its survivors are the result: the
    pair prune takes time cubic in the reached atoms, and a part-finished
    pair fixpoint would not be sound. Otherwise the pair prune runs over the
    survivors; it can only reach fewer atoms, so it marks at most that many
    pairs. Survivors keep their order either way.
    """
    reached = _relaxed_reached(actions, init_bools)
    actions = [a for a in actions if not a.pos & ~reached]
    if reached.bit_count() ** 2 > GROUNDING_BUDGET:
        return actions
    return _prune_pairs(actions, init_bools, n)


def _relaxed_reached(actions: list[GroundAction], init_bools: int) -> int:
    """The mask of the atoms reachable from ``init_bools`` when deletes and
    negative and numeric preconditions are ignored."""
    reached = init_bools
    waiting = actions
    while waiting:
        left = []
        for action in waiting:
            if action.pos & ~reached:
                left.append(action)
            else:
                reached |= action.add_mask
        if len(left) == len(waiting):
            break
        waiting = left
    return reached


def _prune_pairs(actions: list[GroundAction], init_bools: int, n: int) -> list[GroundAction]:
    """Drop the actions whose positive precondition can never hold, by pair
    reachability.

    A pair-reachability (h^2) fixpoint from the initial state over all ``n``
    atoms and every action, ignoring negative and numeric preconditions, so
    only genuinely impossible actions are removed. ``rows[i]`` is the mask
    of atoms that can hold together with atom ``i``; it holds bit ``i``
    itself once ``i`` is reachable. An action is enabled when every pair
    within its positive precondition is reachable, i.e. when its ``pos``
    mask lies inside ``rows[i]`` for each precondition atom ``i``. An enabled
    action makes each added atom co-hold with the other added atoms and with
    every atom that co-holds with the whole precondition and is neither
    added nor deleted.

    Survivors keep their order. A pair (i, i) is only ever marked for an
    atom i that is initially true or added by an enabled action, so the
    fixpoint also drops every action that single-atom relaxed reachability
    would drop. The least fixpoint is unique, so the order of the updates
    does not change the result.
    """
    rows = [init_bools if init_bools >> i & 1 else 0 for i in range(n)]
    self_mask = init_bools
    pre_bits = [_mask_bits(a.pos) for a in actions]
    add_bits = [_mask_bits(a.add_mask) for a in actions]

    grew = True
    while grew:
        grew = False
        for action, pre, adds in zip(actions, pre_bits, add_bits):
            pre_mask = action.pos
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

    return [a for a, pre in zip(actions, pre_bits) if all(not a.pos & ~rows[i] for i in pre)]
