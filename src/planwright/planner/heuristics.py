"""Delete-relaxation heuristics over ground tasks.

Both estimates solve one fixpoint over *facts*. A fact is a positive atom, a
negated atom or a numeric comparison. A fact that holds in the state costs 0.
An action costs 1 plus the combination of its precondition facts' costs:
their sum for `h_add`, their maximum for `h_max_cost`. Each atom an action
adds or deletes makes the positive or negated fact cost at most that much.
The goal costs its cheapest DNF branch, priced like a precondition. `h_add`
is not admissible (it overestimates under shared subgoals), which is fine for
greedy search; optimal runs use the blind heuristic instead.

Numeric comparisons are relaxed by interval widening. Each numeric atom
starts at the point interval of its value. An action that increases an atom
pushes its upper bound to infinity, a decrease pushes the lower bound, and
an assign extends the interval by the range of the assigned amount. A
comparison that does not hold in the state is priced at the cheapest
widening: the least cost c such that the actions costing at most c widen the
intervals enough to make it satisfiable. Action names and order do not
change a price.

The fixpoint is computed as a generalised Dijkstra (Liu, Koenig & Furcy
2002). Facts are settled in order of cost. Each action and goal branch keeps
one int counter, its summed fact cost times a per-task stride plus its
unsettled precondition facts, and fires when its unsettled facts reach 0.
A fired action offers its effects at its own cost; its numeric effects widen
the intervals when that cost is settled, before any fact of that cost, so
every comparison they make satisfiable is priced at it. The search stops
once the cost being settled reaches the cheapest priced goal branch, or once
every goal branch is priced, since no later fact can change the value then.

The per-task part is compiled once, on first use, into a `RelaxedView` that
the task caches (`GroundTask.relaxed`): the precondition and effect fact
lists of every action, and an inverse index from each fact to the actions
and goal branches that need it. Preconditions and goal branches come in one
form, ``(pos, neg, num)``, and are turned into fact lists alike.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Union

from .grounding import GroundComparison, GroundNumericEffect, GroundTask, Linear, _mask_bits

INF = float("inf")

Cost = Union[int, float]


def blind(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    return 0 if task.goal_holds(bools, nums) else 1


def h_add(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    """Additive cost of reaching the goal from the given state, or inf."""
    return task.relaxed.goal_cost(bools, nums, additive=True)


def h_max_cost(task: GroundTask, bools: int, nums: tuple[Fraction, ...]) -> Cost:
    """Max-variant: a lower bound on the number of steps of any plan from the state, or inf."""
    return task.relaxed.goal_cost(bools, nums, additive=False)


class RelaxedView:
    """The delete relaxation of one ground task, as fact lists and counters.

    Facts are numbered: atom ``i`` is fact ``i``, its negation is fact
    ``n + i`` for ``n`` atoms, and the ``j``-th distinct comparison is fact
    ``2n + j``. Consumers are numbered too: action ``k`` is consumer ``k`` and
    goal branch ``b`` is consumer ``len(task.actions) + b``. A fact repeated
    within one condition is needed, and priced, once per occurrence.

    During `goal_cost`, consumer ``k``'s counter is ``sum * stride +
    unsettled``: the summed cost of its settled facts (kept 0 for
    `h_max_cost`, whose consumers fire at the cost being settled) and the
    number of its facts still unsettled. ``stride`` is one more than the
    largest need count, so the counter is 0 modulo ``stride`` exactly when
    ``k`` fires. Action ``k``'s numeric effects are the item
    ``fact_count + k``; items start out settled, so the fact loop skips them,
    and a level that holds any first widens by each, in order.
    """

    def __init__(self, task: GroundTask):
        n = len(task.atoms)
        comparisons: dict[GroundComparison, int] = {}

        def facts(pos: int, neg: int, num: tuple[GroundComparison, ...]) -> list[int]:
            out = _mask_bits(pos) + [n + i for i in _mask_bits(neg)]
            out.extend(comparisons.setdefault(comp, 2 * n + len(comparisons)) for comp in num)
            return out

        needs = [facts(a.pos, a.neg, a.num) for a in task.actions] + [facts(*branch) for branch in task.goal]
        self.atom_count = n
        self.first_goal = len(task.actions)
        self.need_counts = [len(f) for f in needs]
        self.fact_count = 2 * n + len(comparisons)
        self.needed_by: list[list[int]] = [[] for _ in range(self.fact_count)]
        for consumer, fact_list in enumerate(needs):
            for fact in fact_list:
                self.needed_by[fact].append(consumer)
        # Masks of the atoms whose truth, or falsity, something needs.
        self.pos_needed = sum(1 << i for i in range(n) if self.needed_by[i])
        self.neg_needed = sum(1 << i for i in range(n) if self.needed_by[n + i])
        self.comparisons = [(fact, comp) for comp, fact in comparisons.items()]
        # What each action reaches when it fires: the facts it adds or
        # deletes that something needs, then, if it has numeric effects, the
        # item fact_count + k that stands for them.
        self.effects = [
            [f for f in _mask_bits(a.add_mask) + [n + i for i in _mask_bits(a.del_mask)] if self.needed_by[f]]
            + ([self.fact_count + k] if a.num_effects else [])
            for k, a in enumerate(task.actions)
        ]
        self.num_effects = [a.num_effects for a in task.actions]
        self.stride = max(self.need_counts, default=0) + 1
        self.widens = any(self.num_effects)
        self.settled_at_start = bytes(self.fact_count) + (b"\x01" * self.first_goal if self.widens else b"")
        self.free_effects = [f for k in range(self.first_goal) if not self.need_counts[k] for f in self.effects[k]]
        self.free_goal = any(not count for count in self.need_counts[self.first_goal :])
        # Rounds of re-widening after which a bound that still moves can only
        # be growing without limit (an assign that reads its own target).
        self.widen_rounds = len(task.num_atoms) + 1

    def goal_cost(self, bools: int, nums: tuple[Fraction, ...], additive: bool) -> Cost:
        if self.free_goal:
            return 0
        n = self.atom_count
        fact_count = self.fact_count
        first_goal = self.first_goal
        stride = self.stride
        needed_by = self.needed_by
        effects = self.effects
        counter = self.need_counts[:]
        settled = bytearray(self.settled_at_start)
        goals_left = len(counter) - first_goal
        widened: list[int] = []
        lo = hi = None

        # buckets[c] holds what is reached at cost c; costs are integers.
        state = _mask_bits(bools & self.pos_needed) + [n + i for i in _mask_bits(self.neg_needed & ~bools)]
        state.extend(fact for fact, comp in self.comparisons if comp.holds(nums))
        buckets = [state, self.free_effects[:]]
        best: Cost = INF
        cost = 0
        while cost < best and cost < len(buckets):
            frontier = buckets[cost]
            if self.widens:
                for item in [f - fact_count for f in frontier if f >= fact_count]:
                    if lo is None:
                        lo, hi = list(nums), list(nums)
                    widened.append(item)
                    self._widen(widened, lo, hi)
                    frontier.extend(f for f, comp in self.comparisons if not settled[f] and _satisfiable(comp, lo, hi))
            # Settling a fact at this cost adds the cost to each consumer's
            # sum (h_add only) and takes one from its unsettled facts.
            step = cost * stride - 1 if additive else -1
            for fact in frontier:
                if settled[fact]:
                    continue
                settled[fact] = 1
                for k in needed_by[fact]:
                    total = counter[k] + step
                    counter[k] = total
                    if total % stride:
                        continue
                    total = total // stride if additive else cost
                    if k >= first_goal:
                        if total < best:
                            best = total
                        goals_left -= 1
                        if not goals_left:
                            return best
                        continue
                    total += 1
                    while len(buckets) <= total:
                        buckets.append([])
                    buckets[total] += effects[k]
            cost += 1
        return best

    def _widen(self, widened: list[int], lo: list, hi: list) -> None:
        """Widen the intervals by the numeric effects of the fired actions until they stop moving."""
        rounds = 0
        changed = True
        while changed:
            rounds += 1
            unbounded = rounds > self.widen_rounds
            changed = False
            for k in widened:
                for effect in self.num_effects[k]:
                    if _widen_effect(effect, lo, hi, unbounded):
                        changed = True


def _widen_effect(effect: GroundNumericEffect, lo: list, hi: list, unbounded: bool) -> bool:
    alo, ahi = _bounds(effect.amount, lo, hi)
    t = effect.target
    if effect.op == "assign":
        new_lo, new_hi = min(lo[t], alo), max(hi[t], ahi)
        if unbounded:
            new_lo = -INF if new_lo < lo[t] else new_lo
            new_hi = INF if new_hi > hi[t] else new_hi
    else:
        if effect.op == "decrease":
            alo, ahi = -ahi, -alo
        new_lo = -INF if alo < 0 else lo[t]
        new_hi = INF if ahi > 0 else hi[t]
    if new_lo == lo[t] and new_hi == hi[t]:
        return False
    lo[t], hi[t] = new_lo, new_hi
    return True


def _bounds(form: Linear, lo: list, hi: list) -> tuple:
    low = high = form.constant
    for idx, coef in form.coeffs:
        a, b = lo[idx] * coef, hi[idx] * coef
        low = low + min(a, b)
        high = high + max(a, b)
    return low, high


def _satisfiable(comp: GroundComparison, lo: list, hi: list) -> bool:
    low, high = _bounds(comp.form, lo, hi)
    if comp.op == "<":
        return low < 0
    if comp.op == "<=":
        return low <= 0
    if comp.op == "=":
        return low <= 0 <= high
    if comp.op == ">=":
        return high >= 0
    return high > 0
