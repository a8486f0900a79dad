"""Heuristic forward search over ground tasks.

A* expands by ascending f-value with FIFO tie-breaking among equal
f-values, so the outcome for a fixed (task, config) pair is deterministic
byte for byte. `unsolvable` is only reported once the reachable state space
is exhausted; hitting the node or time budget reports `budget-exhausted`
instead.

A state is one int. Its low ``n`` bits, for the ``n`` atoms of the task, are
the boolean state; the bits above them hold the index of its numeric vector.
Each solve interns the numeric vectors it meets in a list and a dict, the
initial vector first, so a task without numeric effects only ever has vector
0 and its states are the boolean masks themselves. One dict maps every state
reached to ``(g, parent, action index)``.

Successors come from a `SuccessorGenerator` built once per solve. It turns
each action into one flat entry that holds its precondition (the action's
``pos`` and ``neg`` masks and ``num`` comparisons), the mask of the atoms it
keeps, its add mask and its numeric effects. Each entry is filed under one
atom of its positive precondition: the one that the fewest actions need,
lowest index first on ties. Entries with no positive precondition go on a
list that is checked in every state. A state then tests only the entries
filed under its true atoms, plus that list, with one mask test each
(grounding drops every branch that needs both ``p`` and ``not p``, so
``pos & neg`` is 0); numeric comparisons are evaluated only for actions
that have them. The applicable entries come back
in ascending action index, the order of a scan over every action, so
tie-breaking, node counts and plans are the same as with the scan. A
propositional action is applied as ``(state & keep) | add``, which carries
the vector index through unchanged; one with numeric effects goes through
`GroundAction.apply`, so the numeric semantics live in one place, and its
vector is interned.

The open list is a list of FIFO buckets indexed by f, which is an integer:
both heuristics return integer costs, and an infinite estimate is never
pushed. Search pops from the lowest non-empty bucket, in push order, which
is the order of a heap keyed by ``(f, push counter)``. An entry keeps its h,
and the goal is tested only when h is 0: both heuristics give 0 in every
goal state.
"""
from __future__ import annotations

import time
from collections import Counter, deque
from fractions import Fraction
from typing import Optional

from ..values import Record, Value
from .grounding import GroundAction, GroundTask, _mask_bits
from .heuristics import INF, blind, h_add
from .plan import Plan, PlanStep

STATUS_PLAN = "plan"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_BUDGET = "budget-exhausted"


class SolveConfig(Value):
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


class SolveResult(Record):
    status: str
    plan: Optional[Plan] = None
    nodes_expanded: int = 0

    def to_json(self) -> dict:
        out = {"status": self.status, "nodes_expanded": self.nodes_expanded}
        if self.plan is not None:
            out["plan"] = self.plan.to_json()
        return out


class SuccessorGenerator:
    """The actions of a task as flat entries, filed under one positive precondition atom each.

    An entry is ``(index, pos | neg, pos, num, ~del_mask, add_mask,
    num_effects)``: everything the search reads to test and apply the
    action.
    """

    def __init__(self, actions: tuple[GroundAction, ...]):
        pres = [_mask_bits(a.pos) for a in actions]
        need = Counter(i for atoms in pres for i in atoms)
        self.always: list[tuple] = []
        # Keyed by the atom's bit, 1 << i, which `applicable` peels off the state.
        self.filed: dict[int, list[tuple]] = {}
        for idx, (a, atoms) in enumerate(zip(actions, pres)):
            entry = (idx, a.pos | a.neg, a.pos, a.num, ~a.del_mask, a.add_mask, a.num_effects)
            if atoms:  # min keeps the lowest atom among equally needed ones
                self.filed.setdefault(1 << min(atoms, key=need.__getitem__), []).append(entry)
            else:
                self.always.append(entry)
        self.keys = sum(self.filed)

    def applicable(self, state: int, nums: tuple[Fraction, ...]) -> list[tuple]:
        """Entries of the actions applicable in the state, in ascending index."""
        candidates = self.always[:]
        filed = self.filed
        true_keys = state & self.keys
        while true_keys:
            bit = true_keys & -true_keys
            candidates += filed[bit]
            true_keys ^= bit
        out = [e for e in candidates if state & e[1] == e[2] and (not e[3] or all(c.holds(nums) for c in e[3]))]
        out.sort()
        return out


def solve(task: GroundTask, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    started = time.monotonic()
    estimate = h_add if cfg.heuristic == "h_add" else blind

    init = task.init_bools
    if task.goal_holds(init, task.init_nums):
        return SolveResult(STATUS_PLAN, Plan(()), 0)

    h0 = estimate(task, init, task.init_nums)
    if h0 == INF:
        return SolveResult(STATUS_UNSOLVABLE, None, 0)

    n = len(task.atoms)
    low = (1 << n) - 1
    vectors = [task.init_nums]
    vector_index = {task.init_nums: 0}
    nodes: dict[int, tuple[int, Optional[int], int]] = {init: (0, None, -1)}
    buckets: list[deque] = [deque() for _ in range(h0 + 1)]
    buckets[h0].append((0, h0, init))
    f = h0
    expanded = 0
    greedy = cfg.strategy == "greedy"
    actions = task.actions
    successors = SuccessorGenerator(actions)

    while f < len(buckets):
        bucket = buckets[f]
        if not bucket:
            f += 1
            continue
        g, h, state = bucket.popleft()
        if nodes[state][0] < g:
            continue  # stale entry
        nums = vectors[state >> n]
        if not h and task.goal_holds(state & low, nums):
            return SolveResult(STATUS_PLAN, _reconstruct(task, nodes, state), expanded)
        if expanded >= cfg.node_budget or time.monotonic() - started > cfg.time_budget:
            return SolveResult(STATUS_BUDGET, None, expanded)
        expanded += 1
        new_g = g + 1
        for action_idx, _, _, _, keep, add, effects in successors.applicable(state, nums):
            if effects:
                bools, successor_nums = actions[action_idx].apply(state & low, nums)
                vector = vector_index.get(successor_nums)
                if vector is None:
                    vector = vector_index[successor_nums] = len(vectors)
                    vectors.append(successor_nums)
                successor = bools | vector << n
            else:
                successor = (state & keep) | add
                successor_nums = nums
            known = nodes.get(successor)
            if known is not None and known[0] <= new_g:
                continue
            nodes[successor] = (new_g, state, action_idx)
            h = estimate(task, successor & low, successor_nums)
            if h == INF:
                continue
            successor_f = h if greedy else new_g + h
            if successor_f >= len(buckets):
                buckets.extend(deque() for _ in range(successor_f + 1 - len(buckets)))
            buckets[successor_f].append((new_g, h, successor))
            if successor_f < f:
                f = successor_f

    return SolveResult(STATUS_UNSOLVABLE, None, expanded)


def _reconstruct(task: GroundTask, nodes: dict, state: int) -> Plan:
    steps: list[PlanStep] = []
    _, parent, action_idx = nodes[state]
    while parent is not None:
        action = task.actions[action_idx]
        steps.append(PlanStep(action.name, action.args))
        _, parent, action_idx = nodes[parent]
    steps.reverse()
    return Plan(tuple(steps))
