"""Shared test utilities: an independent brute-force planning oracle.

The oracle grounds actions by naive enumeration and runs breadth-first
search over explicit states. It intentionally shares no code with the
planner package beyond the IR value types, so it can serve as the
ground-truth side of dual-route checks.

``reference_pair_prune`` is the second oracle: the straightforward
set-of-pairs reachability prune, which reads only the masks of the
planner's ground actions and serves as the reference for the planner's
bitset prune.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from planwright.ir import (
    And,
    Atom,
    Comparison,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumericEffect,
    Or,
    ProblemInstance,
    SetEffect,
)

State = tuple[frozenset, tuple]  # (true atoms, sorted ((fluent,args), value) pairs)


def _term_value(term, numerics: dict) -> Fraction:
    if isinstance(term, NumConst):
        return term.value
    if isinstance(term, NumFluent):
        return numerics[(term.fluent, term.args)]
    if isinstance(term, NumAdd):
        return _term_value(term.left, numerics) + _term_value(term.right, numerics)
    if isinstance(term, NumSub):
        return _term_value(term.left, numerics) - _term_value(term.right, numerics)
    raise TypeError(term)


def holds(expr, atoms: frozenset, numerics: dict) -> bool:
    if isinstance(expr, Atom):
        return expr in atoms
    if isinstance(expr, And):
        return all(holds(c, atoms, numerics) for c in expr.children)
    if isinstance(expr, Or):
        return any(holds(c, atoms, numerics) for c in expr.children)
    if isinstance(expr, Not):
        return not holds(expr.child, atoms, numerics)
    if isinstance(expr, Comparison):
        left = _term_value(expr.left, numerics)
        right = _term_value(expr.right, numerics)
        return {
            "<": left < right,
            "<=": left <= right,
            "=": left == right,
            ">=": left >= right,
            ">": left > right,
        }[expr.op]
    raise TypeError(expr)


def _subst_expr(expr, binding):
    if isinstance(expr, Atom):
        return Atom(expr.fluent, tuple(binding.get(a, a) for a in expr.args))
    if isinstance(expr, And):
        return And(tuple(_subst_expr(c, binding) for c in expr.children))
    if isinstance(expr, Or):
        return Or(tuple(_subst_expr(c, binding) for c in expr.children))
    if isinstance(expr, Not):
        return Not(_subst_expr(expr.child, binding))
    if isinstance(expr, Comparison):
        return Comparison(expr.op, _subst_term(expr.left, binding), _subst_term(expr.right, binding))
    raise TypeError(expr)


def _subst_term(term, binding):
    if isinstance(term, NumConst):
        return term
    if isinstance(term, NumFluent):
        return NumFluent(term.fluent, tuple(binding.get(a, a) for a in term.args))
    if isinstance(term, NumAdd):
        return NumAdd(_subst_term(term.left, binding), _subst_term(term.right, binding))
    if isinstance(term, NumSub):
        return NumSub(_subst_term(term.left, binding), _subst_term(term.right, binding))
    raise TypeError(term)


def enumerate_ground_actions(problem: ProblemInstance):
    """Every type-consistent (schema, binding) pair, no pruning at all."""
    domain = problem.domain
    out = []
    for schema in domain.actions:
        pools = [
            sorted(o.name for o in problem.objects if domain.is_subtype(o.type, p.type))
            for p in schema.parameters
        ]
        for combo in product(*pools):
            binding = {p.name: v for p, v in zip(schema.parameters, combo)}
            pre = _subst_expr(schema.precondition, binding)
            effects = []
            for effect in schema.effects:
                if isinstance(effect, SetEffect):
                    effects.append(SetEffect(_subst_expr(effect.atom, binding), effect.value))
                elif isinstance(effect, NumericEffect):
                    effects.append(
                        NumericEffect(
                            effect.op,
                            _subst_term(effect.target, binding),
                            _subst_term(effect.amount, binding),
                        )
                    )
            out.append((schema.name, combo, pre, tuple(effects)))
    return out


def apply_effects(atoms: frozenset, numerics: dict, effects) -> tuple[frozenset, dict]:
    adds = {e.atom for e in effects if isinstance(e, SetEffect) and e.value}
    dels = {e.atom for e in effects if isinstance(e, SetEffect) and not e.value}
    new_atoms = (atoms - dels) | adds
    new_numerics = dict(numerics)
    for effect in effects:
        if isinstance(effect, NumericEffect):
            key = (effect.target.fluent, effect.target.args)
            amount = _term_value(effect.amount, numerics)
            if effect.op == "increase":
                new_numerics[key] = new_numerics[key] + amount
            elif effect.op == "decrease":
                new_numerics[key] = new_numerics[key] - amount
            else:
                new_numerics[key] = amount
    return new_atoms, new_numerics


def bfs_optimal_plan(problem: ProblemInstance, max_states: int = 400_000) -> Optional[list[tuple[str, tuple]]]:
    """Shortest plan by exhaustive BFS, or None when the goal is unreachable.

    Raises RuntimeError when the reachable space exceeds ``max_states`` so
    a mistaken fixture cannot hang the suite.
    """
    actions = enumerate_ground_actions(problem)
    init_atoms = frozenset(problem.init.true_atoms)
    init_numerics = {(t.fluent, t.args): v for t, v in problem.init.numeric}

    def key(atoms, numerics):
        return (atoms, tuple(sorted(numerics.items())))

    start = key(init_atoms, init_numerics)
    if holds(problem.goal, init_atoms, init_numerics):
        return []
    seen = {start: None}
    frontier = [(init_atoms, init_numerics)]
    while frontier:
        next_frontier = []
        for atoms, numerics in frontier:
            for name, args, pre, effects in actions:
                if not holds(pre, atoms, numerics):
                    continue
                new_atoms, new_numerics = apply_effects(atoms, numerics, effects)
                k = key(new_atoms, new_numerics)
                if k in seen:
                    continue
                seen[k] = (key(atoms, numerics), (name, args))
                if holds(problem.goal, new_atoms, new_numerics):
                    plan = []
                    cursor = k
                    while seen[cursor] is not None:
                        cursor, step = seen[cursor]
                        plan.append(step)
                    plan.reverse()
                    return plan
                if len(seen) > max_states:
                    raise RuntimeError("state space larger than the oracle budget")
                next_frontier.append((new_atoms, new_numerics))
        frontier = next_frontier
    return None


def _mask_bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def reference_pair_prune(actions, atoms, atom_index, init_true):
    """Pair-reachability fixpoint from the initial state.

    A pair of atoms is marked when some applicable action can make both true
    together; an action survives only if every pair within its positive
    precondition is marked. Negative and numeric preconditions are treated
    as satisfiable, so the check only removes genuinely impossible actions.

    This is the planner's original set-of-pairs prune, kept verbatim as the
    oracle for the bitset prune in ``planwright.planner.grounding``.
    """
    n = len(atoms)
    reachable: set[tuple[int, int]] = set()

    def mark(i: int, j: int) -> bool:
        key = (i, j) if i <= j else (j, i)
        if key in reachable:
            return False
        reachable.add(key)
        return True

    init_bits = sorted(atom_index[a] for a in init_true if a in atom_index)
    for i in init_bits:
        mark(i, i)
    for i, j in combinations(init_bits, 2):
        mark(i, j)

    def pairwise_ok(bits: list[int]) -> bool:
        for i in bits:
            if (i, i) not in reachable:
                return False
        for i, j in combinations(bits, 2):
            if ((i, j) if i <= j else (j, i)) not in reachable:
                return False
        return True

    pre_bits = [_mask_bits(a.pre.pos) for a in actions]
    add_bits = [_mask_bits(a.add_mask) for a in actions]

    changed = True
    while changed:
        changed = False
        for idx, action in enumerate(actions):
            pre = pre_bits[idx]
            if not pairwise_ok(pre):
                continue
            adds = add_bits[idx]
            for i in adds:
                if mark(i, i):
                    changed = True
            for i, j in combinations(adds, 2):
                if mark(i, j):
                    changed = True
            # An added atom pairs with any atom that can co-hold with the
            # preconditions and survives the delete list.
            for i in adds:
                for r in range(n):
                    if action.del_mask >> r & 1 or action.add_mask >> r & 1:
                        continue
                    if (r, r) not in reachable:
                        continue
                    if not pairwise_ok(sorted(set(pre + [r]))):
                        continue
                    if mark(i, r):
                        changed = True

    return [a for idx, a in enumerate(actions) if pairwise_ok(pre_bits[idx])]
