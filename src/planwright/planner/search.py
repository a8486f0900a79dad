"""Heuristic forward search over ground tasks.

A* expands by ascending f-value with FIFO tie-breaking among equal
f-values, so the outcome for a fixed (task, config) pair is deterministic
byte for byte. `unsolvable` is only reported once the reachable state space
is exhausted; hitting the node or time budget reports `budget-exhausted`
instead.

Successors come from a `SuccessorGenerator` built once per solve. It turns
each action into one flat entry that holds its precondition masks and
comparisons, the mask of the atoms it keeps, its add mask and its numeric
effects. Each entry is filed under one atom of its positive precondition:
the one that the fewest actions need, lowest index first on ties. Entries
with no positive precondition go on a list that is checked in every state.
A state then tests only the entries filed under its true atoms, plus that
list, with two mask tests each; numeric comparisons are evaluated only for
actions that have them. The applicable entries come back in ascending
action index, the order of a scan over every action, so tie-breaking, node
counts and plans are the same as with the scan. A propositional action is
applied as ``(bools & keep) | add``; one with numeric effects goes through
`GroundAction.apply`, so the numeric semantics live in one place.
"""
from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .grounding import GroundAction, GroundTask, _mask_bits
from .heuristics import INF, blind, h_add
from .plan import Plan, PlanStep

STATUS_PLAN = "plan"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_BUDGET = "budget-exhausted"


@dataclass(frozen=True)
class SolveConfig:
    strategy: str = "astar"  # astar | greedy
    heuristic: str = "blind"  # h_add | blind
    node_budget: int = 1_000_000
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if self.strategy not in ("astar", "greedy"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.heuristic not in ("h_add", "blind"):
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        # Written so that NaN fails too: no comparison with NaN is true, so a
        # NaN time budget would never trip.
        if not (self.node_budget > 0 and self.time_budget > 0):
            raise ValueError("budgets must be positive")


@dataclass
class SolveResult:
    status: str
    plan: Optional[Plan] = None
    nodes_expanded: int = 0
    wall_time: float = field(default=0.0, repr=False)

    def to_json(self) -> dict:
        # Wall time is real-time measurement and deliberately excluded so
        # equal solves serialize identically; it travels in run manifests.
        out = {"status": self.status, "nodes_expanded": self.nodes_expanded}
        if self.plan is not None:
            out["plan"] = self.plan.to_json()
        return out


class SuccessorGenerator:
    """The actions of a task as flat entries, filed under one positive precondition atom each.

    An entry is ``(index, pre.pos, pre.neg, pre.num, ~del_mask, add_mask,
    num_effects)``: everything the search reads to test and apply the action.
    """

    def __init__(self, actions: tuple[GroundAction, ...]):
        pres = [_mask_bits(a.pre.pos) for a in actions]
        need = Counter(i for atoms in pres for i in atoms)
        self.always: list[tuple] = []
        # Keyed by the atom's bit, 1 << i, which `applicable` peels off the state.
        self.filed: dict[int, list[tuple]] = {}
        for idx, (a, atoms) in enumerate(zip(actions, pres)):
            entry = (idx, a.pre.pos, a.pre.neg, a.pre.num, ~a.del_mask, a.add_mask, a.num_effects)
            if atoms:  # min keeps the lowest atom among equally needed ones
                self.filed.setdefault(1 << min(atoms, key=need.__getitem__), []).append(entry)
            else:
                self.always.append(entry)
        self.keys = sum(self.filed)

    def applicable(self, bools: int, nums: tuple[Fraction, ...]) -> list[tuple]:
        """Entries of the actions applicable in the state, in ascending index."""
        candidates = self.always[:]
        filed = self.filed
        true_keys = bools & self.keys
        while true_keys:
            bit = true_keys & -true_keys
            candidates += filed[bit]
            true_keys ^= bit
        out = [
            e for e in candidates
            if bools & e[1] == e[1] and not bools & e[2] and (not e[3] or all(c.holds(nums) for c in e[3]))
        ]
        out.sort()
        return out


def solve(task: GroundTask, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    started = time.monotonic()
    estimate = h_add if cfg.heuristic == "h_add" else blind

    init_key = (task.init_bools, task.init_nums)
    if task.goal_holds(*init_key):
        return SolveResult(STATUS_PLAN, Plan(()), 0, time.monotonic() - started)

    h0 = estimate(task, *init_key)
    if h0 == INF:
        return SolveResult(STATUS_UNSOLVABLE, None, 0, time.monotonic() - started)

    counter = 0
    open_heap: list[tuple[float, int, int, tuple]] = []
    heapq.heappush(open_heap, (h0, counter, 0, init_key))
    best_g: dict[tuple, int] = {init_key: 0}
    parents: dict[tuple, tuple[tuple, int]] = {}
    expanded = 0
    greedy = cfg.strategy == "greedy"
    successors = SuccessorGenerator(task.actions)

    while open_heap:
        _, _, g, state = heapq.heappop(open_heap)
        if g > best_g.get(state, -1):
            continue  # stale entry
        bools, nums = state
        if task.goal_holds(bools, nums):
            return SolveResult(STATUS_PLAN, _reconstruct(task, parents, state), expanded, time.monotonic() - started)
        if expanded >= cfg.node_budget or time.monotonic() - started > cfg.time_budget:
            return SolveResult(STATUS_BUDGET, None, expanded, time.monotonic() - started)
        expanded += 1
        new_g = g + 1
        for action_idx, _, _, _, keep, add, effects in successors.applicable(bools, nums):
            if effects:
                successor = task.actions[action_idx].apply(bools, nums)
            else:
                successor = ((bools & keep) | add, nums)
            known = best_g.get(successor)
            if known is not None and known <= new_g:
                continue
            best_g[successor] = new_g
            parents[successor] = (state, action_idx)
            h = estimate(task, *successor)
            if h == INF:
                continue
            counter += 1
            heapq.heappush(open_heap, (h if greedy else new_g + h, counter, new_g, successor))

    return SolveResult(STATUS_UNSOLVABLE, None, expanded, time.monotonic() - started)


def _reconstruct(task: GroundTask, parents, state) -> Plan:
    steps: list[PlanStep] = []
    while state in parents:
        state, action_idx = parents[state]
        action = task.actions[action_idx]
        steps.append(PlanStep(action.name, action.args))
    steps.reverse()
    return Plan(tuple(steps))
