"""Shared test utilities: an independent brute-force planning oracle.

The oracle grounds actions by naive enumeration and runs breadth-first
search over explicit states. It intentionally shares no code with the
planner package beyond the IR value types, so it can serve as the
ground-truth side of dual-route checks.

``reference_pair_prune`` is the second oracle: the straightforward
set-of-pairs reachability prune, which reads only the masks of the
planner's ground actions and serves as the reference for the planner's
bitset prune.

``reference_h`` is the third: the planner's original round-robin
(Bellman-Ford) delete relaxation, the reference for the counter-based
``h_add`` and ``h_max_cost``.

``reference_solve`` is the fourth: the planner's scan-based search loop,
which tests every action in every state, the reference for the compiled
successor entries of ``planwright.planner.search``.

``refuel_problem`` builds a small numeric task whose actions increase,
decrease and assign fluents; ``random_walk_states`` samples reachable states
of a ground task for checks that run along a walk.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

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
            self.tracked.extend(action.pre.num)
        for branch in task.goal:
            self.tracked.extend(branch.num)

    def condition_cost(self, cond):
        parts = [self.pos[i] for i in _mask_bits(cond.pos)]
        parts.extend(self.neg[i] for i in _mask_bits(cond.neg))
        parts.extend(self.comp_cost.get(comp, INF) for comp in cond.num)
        return self.combine(parts) if parts else 0

    def action_cost(self, action):
        body = self.condition_cost(action.pre)
        return INF if body == INF else 1 + body

    def goal_cost(self):
        return min((self.condition_cost(branch) for branch in self.task.goal), default=INF)

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
    entries, kept but for the time budget: every expanded state tests every
    action with ``GroundAction.applicable``, applies it with
    ``GroundAction.apply``, and tests the goal branch by branch with
    ``Condition.holds``. Same f-values, FIFO counter and stale-entry rule, so
    node counts and plans must be equal.
    """
    import heapq

    from planwright.planner import h_add

    def goal_holds(state) -> bool:
        return any(branch.holds(*state) for branch in task.goal)

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
            if not action.applicable(*state):
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


def random_walk_states(task, seeds=range(5), steps: int = 40) -> list:
    """Distinct states met on seeded random walks from the initial state, in order of first visit."""
    states = {(task.init_bools, task.init_nums): None}
    for seed in seeds:
        rng = random.Random(seed)
        bools, nums = task.init_bools, task.init_nums
        for _ in range(steps):
            apps = [a for a in task.actions if a.applicable(bools, nums)]
            if not apps:
                break
            bools, nums = rng.choice(apps).apply(bools, nums)
            states[(bools, nums)] = None
    return list(states)


def _fluent(name: str) -> NumFluent:
    return NumFluent(name, ())


def _const(value: int) -> NumConst:
    return NumConst(Fraction(value))


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
