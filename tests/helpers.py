"""Shared test utilities: an independent brute-force planning oracle.

The first oracle grounds actions by naive enumeration and runs breadth-first
search over explicit states. It intentionally shares no code with the
planner package beyond the IR value types, so it can serve as the
ground-truth side of dual-route checks.

``reference_pair_prune`` is the second oracle: the straightforward
set-of-pairs reachability prune, which reads only the masks of the
planner's ground actions and serves as the reference for the planner's
bitset prune; ``reference_relaxed_prune``, its single-atom counterpart, is
the reference for the prune used over the pair budget.

``reference_h`` is the third: the planner's original round-robin
(Bellman-Ford) delete relaxation, the reference for the counter-based
``h_add`` and ``h_max_cost``.

``reference_solve`` is the fourth: the planner's scan-based, heap-based
search loop, which tests every action in every state, the reference for the
compiled successor entries, packed int states and bucketed open list of
``planwright.planner.search``.

``reference_instantiate`` is the fifth: the planner's original
instantiation loop, which substitutes every literal of every binding in the
full product, the reference for the templates and static filter of
``planwright.planner.grounding._instantiate``. It binds with the plan
validator's ``substitute``, and shares with grounding only the branch
compiler and linear forms, which also compile the goal; it hands them the
substituted expressions and an empty binding.

``reference_read_forms`` is the sixth: the original two-pass PDDL reader,
which lexes the whole text into tokens before it matches any parenthesis,
the reference for the one-pass ``planwright.pddl.syntax.read_forms``.

``task_numbering`` and ``num_numbering`` give a ground task's atom and
numeric atom indices; ``atoms_of`` and ``numerics_of`` read a ground task's
state back as atoms and numeric values; ``branch_holds`` tests a compiled
``(pos, neg, num)`` conjunction in a state, and ``applicable`` a ground
action's precondition; ``bundled_problems`` parses the 140 bundled benchmark
problems; ``battery_grippers_domain`` is grippers whose moves drain a
battery; ``refuel_problem`` builds a small numeric task whose actions
increase, decrease and assign fluents; ``random_walk_states`` samples
reachable states of a ground task for checks that run along a walk;
``tool_calls`` and ``applied_requests`` pick events and upstream requests
out of a pipeline run. ``run_python`` runs code in a fresh interpreter that
imports the package under test.
"""
from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import Optional

import planwright
from planwright.ir import (
    ActionSchema,
    And,
    Assignment,
    Atom,
    Comparison,
    DomainModel,
    FluentDecl,
    Not,
    NumAdd,
    NumConst,
    NumFluent,
    NumSub,
    NumericEffect,
    ObjectDecl,
    Or,
    Parameter,
    ProblemInstance,
    SetEffect,
    TypeDecl,
)
from planwright.planner.grounding import (
    GroundAction,
    GroundComparison,
    GroundingError,
    GroundNumericEffect,
    linearize,
    to_dnf_branches,
    to_nnf,
)
from planwright.planner.validation import substitute, substitute_term

from planwright.data_paths import benchmarks_root
from planwright.domains import grippers_domain
from planwright.pddl import PddlError, parse_domain, parse_problem
from planwright.pddl.syntax import LEXICAL_ERROR, MAX_DEPTH, TOO_DEEP, UNBALANCED, SList, Symbol

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


class AtomNumbering(dict):
    """Atom -> bit index. A miss numbers the atom with the next index."""

    def __missing__(self, atom: Atom) -> int:
        idx = self[atom] = len(self)
        return idx


def task_numbering(task) -> AtomNumbering:
    """The task's atom numbering, extended past ``len(task.atoms)`` for the
    atoms that only the oracles name: those of bindings that grounding drops
    on a static precondition."""
    return AtomNumbering((a, i) for i, a in enumerate(task.atoms))


def num_numbering(task) -> dict:
    """The task's numeric atom -> index map, as grounding builds it."""
    return {a: i for i, a in enumerate(task.num_atoms)}


def reference_instantiate(problem: ProblemInstance, atom_index: AtomNumbering, num_index) -> list:
    """Every ground action variant of every schema, before pruning.

    This is the planner's original loop: it substitutes every literal of
    every DNF branch of every binding in the full product, and looks each
    resulting ``Atom`` up in ``atom_index``, which numbers it on a miss.
    """
    domain = problem.domain
    actions = []
    for schema in domain.actions:
        branches = to_dnf_branches(to_nnf(schema.precondition))
        pools = [
            sorted(o.name for o in problem.objects if domain.is_subtype(o.type, p.type))
            for p in schema.parameters
        ]
        for combo in product(*pools):
            binding = dict(zip((p.name for p in schema.parameters), combo))
            for branch in branches:
                literals = [substitute(literal, binding) for literal in branch]
                action = _reference_action(schema, binding, literals, atom_index, num_index)
                if action is not None:
                    actions.append(action)
    return actions


def _reference_branch(literals, atom_index, num_index):
    """One ground DNF branch as ``(pos, neg, num)``, or None if it can never
    hold: a constant comparison is false, or it holds p and (not p)."""
    pos = neg = 0
    comparisons = []
    for literal in literals:
        if isinstance(literal, Atom):
            pos |= 1 << atom_index[literal]
        elif isinstance(literal, Not):
            neg |= 1 << atom_index[literal.child]
        else:
            comparisons.append(GroundComparison(literal.op, linearize(NumSub(literal.left, literal.right), {}, num_index)))
    if pos & neg or not all(c.holds(()) for c in comparisons if not c.form.coeffs):
        return None
    return pos, neg, tuple(c for c in comparisons if c.form.coeffs)


def _reference_action(schema, binding, branch, atom_index, num_index):
    pre = _reference_branch(branch, atom_index, num_index)
    if pre is None:
        return None

    add_mask = 0
    del_mask = 0
    num_effects = []
    for effect in schema.effects:
        if isinstance(effect, SetEffect):
            atom = Atom(effect.atom.fluent, tuple(binding.get(a, a) for a in effect.atom.args))
            idx = atom_index[atom]
            if effect.value:
                add_mask |= 1 << idx
            else:
                del_mask |= 1 << idx
        elif isinstance(effect, NumericEffect):
            target = NumFluent(effect.target.fluent, tuple(binding.get(a, a) for a in effect.target.args))
            if target not in num_index:
                raise GroundingError(f"numeric atom {target} is used but uninitialized")
            amount = linearize(substitute_term(effect.amount, binding), {}, num_index)
            num_effects.append(GroundNumericEffect(effect.op, num_index[target], amount))
    del_mask &= ~add_mask

    args = tuple(binding[p.name] for p in schema.parameters)
    return GroundAction(schema.name, args, *pre, add_mask, del_mask, tuple(num_effects))


def atoms_of(task, bools: int) -> frozenset[Atom]:
    return frozenset(a for i, a in enumerate(task.atoms) if bools >> i & 1)


def numerics_of(task, nums: tuple) -> dict[NumFluent, Fraction]:
    return {a: nums[i] for i, a in enumerate(task.num_atoms)}


def _mask_bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def reference_relaxed_prune(actions, atom_index, init_true):
    """Single-atom relaxed reachability from the initial state.

    An atom is reached when it is initially true or some action whose
    positive precondition atoms are all reached adds it; an action survives
    when all of its positive precondition atoms are reached. Deletes and
    negative and numeric preconditions are ignored. The oracle for the prune
    that ``planwright.planner.grounding`` falls back to over its pair budget.
    """
    reached = {atom_index[a] for a in init_true if a in atom_index}
    pre_bits = [set(_mask_bits(a.pos)) for a in actions]
    changed = True
    while changed:
        changed = False
        for pre, action in zip(pre_bits, actions):
            if pre <= reached:
                adds = set(_mask_bits(action.add_mask))
                if not adds <= reached:
                    reached |= adds
                    changed = True
    return [a for pre, a in zip(pre_bits, actions) if pre <= reached]


def reference_pair_prune(actions, atom_index, init_true):
    """Pair-reachability fixpoint from the initial state.

    A pair of atoms is marked when some applicable action can make both true
    together; an action survives only if every pair within its positive
    precondition is marked. Negative and numeric preconditions are treated
    as satisfiable, so the check only removes genuinely impossible actions.

    This is the planner's original set-of-pairs prune, kept verbatim as the
    oracle for the bitset prune in ``planwright.planner.grounding``.
    """
    n = len(atom_index)
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

    pre_bits = [_mask_bits(a.pos) for a in actions]
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


INF = float("inf")


def reference_h(task, bools: int, nums: tuple, combine=None):
    """h_add of the state (``combine`` None) or h_max (``combine=max``), or inf.

    Every action is repriced in sweeps until no fact cost changes. This is
    the planner's original relaxation, kept verbatim but for the pricing of
    numeric comparisons. A comparison that does not hold in the state costs
    the least action cost c such that the actions costing at most c widen
    the intervals enough to satisfy it. The original priced it at whichever
    action first widened it in sweep order, so the result depended on action
    names.
    """
    relax = _Relaxation(task, bools, nums, combine)
    relax.run()
    return relax.goal_cost()


def _sum(costs):
    total = 0
    for c in costs:
        if c == INF:
            return INF
        total += c
    return total


class _Relaxation:
    def __init__(self, task, bools: int, nums: tuple, combine=None):
        self.task = task
        self.nums = nums
        self.combine = combine or _sum
        n = len(task.atoms)
        self.pos = [0 if bools >> i & 1 else INF for i in range(n)]
        self.neg = [INF if bools >> i & 1 else 0 for i in range(n)]
        self.comp_cost = {}
        self.tracked = []
        for action in task.actions:
            self.tracked.extend(action.num)
        for _, _, num in task.goal:
            self.tracked.extend(num)

    def condition_cost(self, pos, neg, num):
        parts = [self.pos[i] for i in _mask_bits(pos)]
        parts.extend(self.neg[i] for i in _mask_bits(neg))
        parts.extend(self.comp_cost.get(comp, INF) for comp in num)
        return self.combine(parts) if parts else 0

    def action_cost(self, action):
        body = self.condition_cost(action.pos, action.neg, action.num)
        return INF if body == INF else 1 + body

    def goal_cost(self):
        return min((self.condition_cost(*branch) for branch in self.task.goal), default=INF)

    def run(self) -> None:
        lo, hi = list(self.nums), list(self.nums)
        for comp in self.tracked:
            if _satisfiable(comp, lo, hi):
                self.comp_cost[comp] = 0
        changed = True
        while changed:
            changed = False
            costs = []
            for action in self.task.actions:
                cost = self.action_cost(action)
                costs.append(cost)
                if cost == INF:
                    continue
                for i in _mask_bits(action.add_mask):
                    if cost < self.pos[i]:
                        self.pos[i] = cost
                        changed = True
                for i in _mask_bits(action.del_mask):
                    if cost < self.neg[i]:
                        self.neg[i] = cost
                        changed = True
            if self._reprice_comparisons(costs):
                changed = True

    def _reprice_comparisons(self, costs) -> bool:
        """Price each comparison at the least cost whose actions make it satisfiable."""
        numeric = [(c, a) for c, a in zip(costs, self.task.actions) if a.num_effects and c != INF]
        changed = False
        for level in sorted({c for c, _ in numeric}):
            lo, hi = list(self.nums), list(self.nums)
            while any([_widen(a, lo, hi) for c, a in numeric if c <= level]):
                pass
            for comp in self.tracked:
                if level < self.comp_cost.get(comp, INF) and _satisfiable(comp, lo, hi):
                    self.comp_cost[comp] = level
                    changed = True
        return changed


def _widen(action, lo: list, hi: list) -> bool:
    changed = False
    for effect in action.num_effects:
        alo, ahi = _amount_bounds(effect.amount, lo, hi)
        t = effect.target
        if effect.op == "increase":
            if ahi > 0 and hi[t] != INF:
                hi[t] = INF
                changed = True
            if alo < 0 and lo[t] != -INF:
                lo[t] = -INF
                changed = True
        elif effect.op == "decrease":
            if ahi > 0 and lo[t] != -INF:
                lo[t] = -INF
                changed = True
            if alo < 0 and hi[t] != INF:
                hi[t] = INF
                changed = True
        else:  # assign
            if alo < lo[t]:
                lo[t] = alo
                changed = True
            if ahi > hi[t]:
                hi[t] = ahi
                changed = True
    return changed


def _amount_bounds(amount, lo: list, hi: list) -> tuple:
    low = high = amount.constant
    for idx, coef in amount.coeffs:
        a, b = lo[idx] * coef, hi[idx] * coef
        low = low + min(a, b)
        high = high + max(a, b)
    return low, high


def _satisfiable(comp, lo: list, hi: list) -> bool:
    low, high = _amount_bounds(comp.form, lo, hi)
    if comp.op == "<":
        return low < 0
    if comp.op == "<=":
        return low <= 0
    if comp.op == "=":
        return low <= 0 <= high
    if comp.op == ">=":
        return high >= 0
    return high > 0


def reference_solve(task, strategy: str = "astar", heuristic: str = "blind", node_budget: int = 1_000_000) -> dict:
    """``SolveResult.to_json()`` of the planner's search, by a scan over every action.

    This is the planner's loop from before successors were compiled to flat
    entries, kept but for the time budget, and it stays heap-based: a state
    is a ``(bools, nums)`` pair, the open list is a ``heapq`` keyed by
    ``(f, push counter)``, and ``best_g`` and ``parents`` are two dicts.
    Every expanded state tests every action with ``applicable``, applies it
    with ``GroundAction.apply``, and tests the goal branch by branch with
    ``branch_holds`` on every pop, whatever its h. Same f-values, FIFO
    order and stale-entry rule, so node counts and plans must be equal to
    those of the bucketed open list over packed int states.
    """
    import heapq

    from planwright.planner import h_add

    def goal_holds(state) -> bool:
        return any(branch_holds(*branch, *state) for branch in task.goal)

    def estimate(state):
        if heuristic == "h_add":
            return h_add(task, *state)
        return 0 if goal_holds(state) else 1

    def result(status, expanded, state=None) -> dict:
        out = {"status": status, "nodes_expanded": expanded}
        if state is not None:
            steps = []
            while state in parents:
                state, idx = parents[state]
                steps.append({"name": task.actions[idx].name, "args": list(task.actions[idx].args)})
            steps.reverse()
            out["plan"] = {"steps": steps, "cost": len(steps)}
        return out

    init = (task.init_bools, task.init_nums)
    parents: dict = {}
    if goal_holds(init):
        return result("plan", 0, init)
    h0 = estimate(init)
    if h0 == INF:
        return result("unsolvable", 0)
    counter = 0
    open_heap = [(h0, counter, 0, init)]
    best_g = {init: 0}
    expanded = 0
    while open_heap:
        _, _, g, state = heapq.heappop(open_heap)
        if g > best_g.get(state, -1):
            continue
        if goal_holds(state):
            return result("plan", expanded, state)
        if expanded >= node_budget:
            return result("budget-exhausted", expanded)
        expanded += 1
        for idx, action in enumerate(task.actions):
            if not applicable(action, *state):
                continue
            successor = action.apply(*state)
            new_g = g + 1
            known = best_g.get(successor)
            if known is not None and known <= new_g:
                continue
            best_g[successor] = new_g
            parents[successor] = (state, idx)
            h = estimate(successor)
            if h == INF:
                continue
            f = h if strategy == "greedy" else new_g + h
            counter += 1
            heapq.heappush(open_heap, (f, counter, new_g, successor))
    return result("unsolvable", expanded)


def reference_fingerprint(request) -> str:
    """The request fingerprint as one `json.dumps` of the whole request,
    hashed in one shot by `hashlib`: the formula the shipped fixtures were
    recorded with, which the prefix-hashed `fingerprint` must equal."""
    import hashlib
    import json

    payload = {"messages": [m.to_json() for m in request.messages], "tools": [t.to_json() for t in request.tools]}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def branch_holds(pos: int, neg: int, num: tuple, bools: int, nums: tuple[Fraction, ...]) -> bool:
    """Whether a compiled conjunction, an action's precondition or a goal
    branch, holds in the state. Written out here so that the oracles share
    no goal test with ``heuristics.blind``, search's goal test."""
    return bools & pos == pos and not bools & neg and all(c.holds(nums) for c in num)


def applicable(action: GroundAction, bools: int, nums: tuple[Fraction, ...]) -> bool:
    """Whether the ground action's precondition holds in the state."""
    return branch_holds(action.pos, action.neg, action.num, bools, nums)


def random_walk_states(task, seeds=range(5), steps: int = 40) -> list:
    """Distinct states met on seeded random walks from the initial state, in order of first visit."""
    states = {(task.init_bools, task.init_nums): None}
    for seed in seeds:
        rng = random.Random(seed)
        bools, nums = task.init_bools, task.init_nums
        for _ in range(steps):
            apps = [a for a in task.actions if applicable(a, bools, nums)]
            if not apps:
                break
            bools, nums = rng.choice(apps).apply(bools, nums)
            states[(bools, nums)] = None
    return list(states)


def _fluent(name: str) -> NumFluent:
    return NumFluent(name, ())


def _const(value: int) -> NumConst:
    return NumConst(Fraction(value))


def battery_grippers_domain() -> DomainModel:
    """Grippers with a battery drain on movement: moving needs and consumes
    5 units, mirroring the battery adaptation scenario."""
    base = grippers_domain()
    battery = FluentDecl("battery_level", (Parameter("?r", "robot"),), kind="numeric")
    move = base.action_map()["move"]
    battery_level = NumFluent("battery_level", ("?r",))
    new_move = ActionSchema(
        "move",
        move.parameters,
        And((Atom("at-robby", ("?r", "?from")), Comparison(">=", battery_level, _const(5)))),
        move.effects + (NumericEffect("decrease", battery_level, _const(5)),),
    )
    actions = tuple(new_move if a.name == "move" else a for a in base.actions)
    return DomainModel("grippers-battery", base.types, base.fluents + (battery,), actions)


def refuel_domain() -> DomainModel:
    """A truck on a road of towns. Driving burns one unit of fuel; the depot
    fills the tank to capacity (an assign of another fluent) and can enlarge
    the tank up to 6; any other town sells one unit at a time."""
    a, b, t = Parameter("?a", "town"), Parameter("?b", "town"), Parameter("?t", "town")
    below_capacity = Comparison("<", _fluent("fuel"), _fluent("capacity"))
    return DomainModel(
        "refuel",
        types=(TypeDecl("town"),),
        fluents=(
            FluentDecl("at", (t,)),
            FluentDecl("road", (a, b)),
            FluentDecl("depot", (t,)),
            FluentDecl("fuel", (), kind="numeric"),
            FluentDecl("capacity", (), kind="numeric"),
        ),
        actions=(
            ActionSchema(
                "drive",
                (a, b),
                And((Atom("at", ("?a",)), Atom("road", ("?a", "?b")), Comparison(">=", _fluent("fuel"), _const(1)))),
                (
                    SetEffect(Atom("at", ("?a",)), False),
                    SetEffect(Atom("at", ("?b",))),
                    NumericEffect("decrease", _fluent("fuel"), _const(1)),
                ),
            ),
            ActionSchema(
                "fill",
                (t,),
                And((Atom("at", ("?t",)), Atom("depot", ("?t",)), below_capacity)),
                (NumericEffect("assign", _fluent("fuel"), _fluent("capacity")),),
            ),
            ActionSchema(
                "enlarge",
                (t,),
                And((Atom("at", ("?t",)), Atom("depot", ("?t",)), Comparison("<", _fluent("capacity"), _const(6)))),
                (NumericEffect("increase", _fluent("capacity"), _const(2)),),
            ),
            ActionSchema(
                "buy",
                (t,),
                And((Atom("at", ("?t",)), Not(Atom("depot", ("?t",))), below_capacity)),
                (NumericEffect("increase", _fluent("fuel"), _const(1)),),
            ),
        ),
    )


def refuel_problem(fuel: int, goal_fuel, towns: int = 4, capacity: int = 2) -> ProblemInstance:
    """Drive from town 1 (the depot) to the last town with ``(>= (fuel) goal_fuel)``
    left, where ``goal_fuel`` is an int or the name of a numeric fluent."""
    names = [f"t{i}" for i in range(1, towns + 1)]
    roads = [Atom("road", (x, y)) for x, y in zip(names, names[1:])]
    roads += [Atom("road", (y, x)) for x, y in zip(names, names[1:])]
    floor = _fluent(goal_fuel) if isinstance(goal_fuel, str) else _const(goal_fuel)
    return ProblemInstance(
        refuel_domain(),
        tuple(ObjectDecl(name, "town") for name in names),
        Assignment.create(
            [Atom("at", ("t1",)), Atom("depot", ("t1",))] + roads,
            [(_fluent("fuel"), Fraction(fuel)), (_fluent("capacity"), Fraction(capacity))],
        ),
        And((Atom("at", (names[-1],)), Comparison(">=", _fluent("fuel"), floor))),
        f"refuel-{fuel}-{goal_fuel}",
    )


def bundled_problems() -> list[ProblemInstance]:
    """Every bundled benchmark problem, by domain, then file name."""
    problems = []
    for domain_dir in sorted(p for p in benchmarks_root().iterdir() if p.is_dir()):
        domain_path = domain_dir / "domain.pddl"
        domain = parse_domain(domain_path.read_text(encoding="utf-8"), filename=str(domain_path))
        for path in sorted(domain_dir.glob("*.pddl")):
            if path.name != "domain.pddl":
                problems.append(parse_problem(path.read_text(encoding="utf-8"), domain, filename=path.name))
    return problems


def _reference_tokenize(text: str, filename: str) -> list[tuple[str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in "()":
            tokens.append((ch, line, col))
            i += 1
            col += 1
            continue
        start = i
        start_line, start_col = line, col
        while i < n and text[i] not in " \t\r\n\f\v();":
            if not text[i].isprintable():
                raise PddlError(LEXICAL_ERROR, f"unprintable byte {text[i]!r}", line, col, filename)
            i += 1
            col += 1
        tokens.append((text[start:i].lower(), start_line, start_col))
    return tokens


def reference_read_forms(text: str, filename: str = "<pddl>") -> list:
    """Every top-level s-expression of ``text``, read in two passes: the whole
    text is tokenized first, so a lexical error anywhere is reported before
    an unbalanced parenthesis or a list nested deeper than ``MAX_DEPTH``."""
    stack = []
    current = []
    for token, line, col in _reference_tokenize(text, filename):
        if token == "(":
            if len(stack) == MAX_DEPTH:
                raise PddlError(TOO_DEEP, f"lists nest more than {MAX_DEPTH} deep", line, col, filename)
            stack.append((current, line, col))
            current = []
        elif token == ")":
            if not stack:
                raise PddlError(UNBALANCED, "unmatched ')'", line, col, filename)
            parent, open_line, open_col = stack.pop()
            parent.append(SList(tuple(current), open_line, open_col))
            current = parent
        else:
            current.append(Symbol(token, line, col))
    if stack:
        _, line, col = stack[-1]
        raise PddlError(UNBALANCED, "unclosed '('", line, col, filename)
    return current


def nested_domain_text(depth: int) -> str:
    """A one-action domain whose deepest list, the precondition's ``(p)``
    under ``(not …)``s, lies ``depth`` lists deep: ``define`` is the first
    and the action the second."""
    nots = depth - 3
    precondition = "(not " * nots + "(p)" + ")" * nots
    return (
        "(define (domain deep)\n"
        "  (:requirements :strips :negative-preconditions)\n"
        "  (:predicates (p) (q))\n"
        f"  (:action a :parameters () :precondition {precondition} :effect (q)))\n"
    )


def tool_calls(events, name: str) -> list:
    """The ``tool-call`` events of an ``EventLog`` for the tool ``name``."""
    return [e for e in events if e.kind == "tool-call" and e.data.get("tool") == name]


def applied_requests(result) -> list:
    """The upstream requests of a ``PipelineResult`` that were applied."""
    return [r for r in result.requests if r.outcome.startswith("applied")]


def run_python(code: str, stdin: Optional[str] = None, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter and capture its output as text.

    The child's environment holds only ``PATH`` and ``PYTHONPATH``, set to the
    root of the imported package, so it imports the very package under test,
    installed or not, and nothing the caller's environment sets. It runs with
    ``-B``, so it writes no bytecode into the package.
    """
    package_root = str(Path(planwright.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-B", "-c", code],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )
