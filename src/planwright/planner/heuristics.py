"""Delete-relaxation heuristics over ground tasks.

`h_add` sums per-condition achievement costs. Negative literals are priced
via delete effects, and numeric comparisons are treated as satisfied once
they become satisfiable under interval widening: an applicable action that
increases an atom pushes its reachable upper bound to infinity, a decrease
pushes the lower bound, an assign extends the interval by the assigned
range. The estimate is not admissible (it overestimates under shared
subgoals), which is fine for greedy search; optimal runs use the blind
heuristic instead.

Action preconditions and goal branches are the same compiled `Condition`,
priced by one `condition_cost`; the goal costs its cheapest branch.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .grounding import Condition, GroundAction, GroundComparison, GroundTask, Linear, _mask_bits

INF = float("inf")

Cost = Union[int, float]


def blind(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    return 0 if task.goal_holds(bools, nums) else 1


def h_add(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    """Additive cost of reaching the goal from the given state, or inf."""
    relax = _Relaxation(task, bools, nums)
    relax.run()
    return relax.goal_cost()


def h_max_cost(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    """Max-variant used as a lower-bound cross-check in tests."""
    relax = _Relaxation(task, bools, nums, combine=max)
    relax.run()
    return relax.goal_cost()


def _sum(costs) -> Cost:
    total: Cost = 0
    for c in costs:
        if c == INF:
            return INF
        total += c
    return total


class _Relaxation:
    def __init__(self, task: GroundTask, bools: int, nums: tuple[Fraction, ...], combine=None):
        self.task = task
        self.bools = bools
        self.nums = nums
        self.combine = combine or _sum
        n = len(task.atoms)
        self.pos: list[Cost] = [0 if bools >> i & 1 else INF for i in range(n)]
        self.neg: list[Cost] = [INF if bools >> i & 1 else 0 for i in range(n)]
        self.lo: list[Fraction | float] = list(nums)
        self.hi: list[Fraction | float] = list(nums)
        self.comp_cost: dict[GroundComparison, Cost] = {}
        self.tracked: list[GroundComparison] = []
        for action in task.actions:
            self.tracked.extend(action.pre.num)
        for branch in task.goal:
            self.tracked.extend(branch.num)

    # -- condition pricing -------------------------------------------------

    def condition_cost(self, cond: Condition) -> Cost:
        parts: list[Cost] = [self.pos[i] for i in _mask_bits(cond.pos)]
        parts.extend(self.neg[i] for i in _mask_bits(cond.neg))
        parts.extend(self.comparison_cost(comp) for comp in cond.num)
        return self.combine(parts) if parts else 0

    def action_cost(self, action: GroundAction) -> Cost:
        body = self.condition_cost(action.pre)
        return INF if body == INF else 1 + body

    def goal_cost(self) -> Cost:
        return min((self.condition_cost(branch) for branch in self.task.goal), default=INF)

    def comparison_cost(self, comp: GroundComparison) -> Cost:
        cached = self.comp_cost.get(comp)
        if cached is not None:
            return cached
        return 0 if self._satisfiable(comp) else INF

    def _satisfiable(self, comp: GroundComparison) -> bool:
        low = high = comp.form.constant
        for idx, coef in comp.form.coeffs:
            a, b = self.lo[idx] * coef, self.hi[idx] * coef
            low = low + min(a, b)
            high = high + max(a, b)
        if comp.op == "<":
            return low < 0
        if comp.op == "<=":
            return low <= 0
        if comp.op == "=":
            return low <= 0 <= high
        if comp.op == ">=":
            return high >= 0
        return high > 0

    # -- fixpoint ----------------------------------------------------------

    def run(self) -> None:
        # Seed comparison costs with what already holds.
        for comp in self.tracked:
            if self._satisfiable(comp):
                self.comp_cost[comp] = 0
        changed = True
        while changed:
            changed = False
            for action in self.task.actions:
                cost = self.action_cost(action)
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
                if action.num_effects and self._widen(action, cost):
                    changed = True

    def _widen(self, action: GroundAction, cost: Cost) -> bool:
        changed = False
        for effect in action.num_effects:
            alo, ahi = self._amount_bounds(effect.amount)
            t = effect.target
            if effect.op == "increase":
                if ahi > 0 and self.hi[t] != INF:
                    self.hi[t] = INF
                    changed = True
                if alo < 0 and self.lo[t] != -INF:
                    self.lo[t] = -INF
                    changed = True
            elif effect.op == "decrease":
                if ahi > 0 and self.lo[t] != -INF:
                    self.lo[t] = -INF
                    changed = True
                if alo < 0 and self.hi[t] != INF:
                    self.hi[t] = INF
                    changed = True
            else:  # assign
                if alo < self.lo[t]:
                    self.lo[t] = alo
                    changed = True
                if ahi > self.hi[t]:
                    self.hi[t] = ahi
                    changed = True
        if changed:
            self._reprice_comparisons(cost)
        return changed

    def _amount_bounds(self, amount: Linear) -> tuple:
        low = high = amount.constant
        for idx, coef in amount.coeffs:
            a, b = self.lo[idx] * coef, self.hi[idx] * coef
            low = low + min(a, b)
            high = high + max(a, b)
        return low, high

    def _reprice_comparisons(self, widening_cost: Cost) -> None:
        for comp in self.tracked:
            if comp not in self.comp_cost and self._satisfiable(comp):
                self.comp_cost[comp] = widening_cost
