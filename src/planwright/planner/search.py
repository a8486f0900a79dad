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

Successors come from a `SuccessorGenerator` built once per solve, which
reads a state's applicable actions off one int: bit ``i`` stands for action
``i``. The atoms that some precondition tests are cut into 16-atom slices.
Entry ``v`` of a slice's table is the mask of the actions whose positive and
negative precondition atoms in that slice agree with the bits ``v``, so the
AND of one lookup per slice is the mask of the actions whose atom
preconditions hold. A lookup keeps only the slice's tested atoms, which keeps
the vector index out. An entry is made the first time its value is met, from
four 16-entry tables over the slice's 4-atom quarters, so a table holds only
the values search meets. `solve` reads the mask from the low bit up, which
gives the actions in ascending index, the order of a scan over every action,
so tie-breaking, node counts and plans are the same as with the scan, and
nothing is filtered or sorted; only an action that has numeric comparisons
is then checked against the state's vector. A propositional action is
applied as ``(state & keep) | add``, which carries the vector index through
unchanged; one with numeric effects goes through `GroundAction.apply`, so
the numeric semantics live in one place, and its vector is interned.

The open list is a list of FIFO buckets indexed by f, which is an integer:
both heuristics return integer costs, and an infinite estimate is never
pushed. Search pops from the lowest non-empty bucket, in push order, which
is the order of a heap keyed by ``(f, push counter)``. An entry keeps its h,
and a popped entry whose h is 0 is a goal: both heuristics are 0 in exactly
the states where some goal branch holds, so h is the goal test.
"""
from __future__ import annotations

import time
from collections import deque
from typing import Optional

from ..values import Value
from . import heuristics
from .grounding import GroundAction, GroundTask
from .heuristics import INF
from .plan import Plan, PlanStep

STATUS_PLAN = "plan"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_BUDGET = "budget-exhausted"

# The solver's names, in the CLI's order. A heuristic is its function's name in
# `heuristics`, looked up there by each `solve`, so a wrapper bound over that
# name later (as `bench/tracing.py` binds one) is what search calls.
STRATEGIES = ("astar", "greedy")
HEURISTICS = ("blind", "h_add")


class SolveConfig(Value):
    strategy: str = "astar"  # one of STRATEGIES
    heuristic: str = "blind"  # one of HEURISTICS
    node_budget: int = 1_000_000
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.heuristic not in HEURISTICS:
            raise ValueError(f"unknown heuristic {self.heuristic!r}")
        # Written so that NaN fails too: no comparison with NaN is true, so a
        # NaN time budget would never trip.
        if not (self.node_budget > 0 and self.time_budget > 0):
            raise ValueError("budgets must be positive")


class SolveResult(Value):
    status: str
    plan: Optional[Plan] = None
    nodes_expanded: int = 0
    _json_keys = ("status", "nodes_expanded", "plan")
    _json_omit = {"plan": None}


class _SliceTable(dict):
    """Maps the bits ``v`` of one 16-atom slice of a state to the mask of the
    actions whose precondition atoms in that slice agree with them.

    A mask is made the first time its ``v`` is looked up, as the AND of the
    masks of the slice's four 4-atom quarters, so a table holds only the
    values search meets.
    """

    __slots__ = ("q0", "q1", "q2", "q3")

    def __init__(self, q0: list[int], q1: list[int], q2: list[int], q3: list[int]):
        self.q0, self.q1, self.q2, self.q3 = q0, q1, q2, q3

    def __missing__(self, v: int) -> int:
        mask = self[v] = self.q0[v & 15] & self.q1[v >> 4 & 15] & self.q2[v >> 8 & 15] & self.q3[v >> 12]
        return mask


def _quarter_table(every: int, need_true: dict[int, int], need_false: dict[int, int], first: int, tested: int) -> list[int]:
    """The 16 masks of the actions that agree with atoms ``first`` to
    ``first + 3``, indexed by those atoms' bits, doubled one atom at a time:
    with the atom's bit clear, the actions that need it true drop out, and
    with it set, those that need it false. ``tested`` has the bits of the
    atoms that some precondition tests."""
    if not tested:
        return [every] * 16
    table = [every]
    for bit in (1 << first, 2 << first, 4 << first, 8 << first):
        true, false = need_true.get(bit), need_false.get(bit)
        if true is not None:
            true = ~true
            clear = [t & true for t in table]
        else:
            clear = table
        if false is not None:
            false = ~false
            table = clear + [t & false for t in table]
        else:
            table = clear + table
    return table


class SuccessorGenerator:
    """The applicable actions of a state, read off one bitmask over the actions.

    Bit ``i`` of a mask stands for action ``i``. The atoms that some
    precondition tests are cut into 16-atom slices, and each slice has a
    `_SliceTable`; the AND of one entry per slice is the mask of the actions
    whose atom preconditions hold. Entry ``i`` of `entries` is ``(num,
    ~del_mask, add_mask, num_effects)`` of action ``i``: everything the
    search reads to finish the test, on the comparisons ``num``, and to
    apply the action.
    """

    def __init__(self, actions: tuple[GroundAction, ...]):
        need_true: dict[int, int] = {}  # atom bit: the actions that need the atom true
        need_false: dict[int, int] = {}  # and those that need it false
        self.entries = entries = []
        tested = 0  # the atoms that some precondition tests
        bit = 1
        for a in actions:
            pos = a.pos
            while pos:
                low = pos & -pos
                need_true[low] = need_true.get(low, 0) | bit
                pos ^= low
            neg = a.neg
            while neg:
                low = neg & -neg
                need_false[low] = need_false.get(low, 0) | bit
                neg ^= low
            tested |= a.pos | a.neg
            entries.append((a.num, ~a.del_mask, a.add_mask, a.num_effects))
            bit <<= 1
        self.every = every = bit - 1
        # A lookup masks the state's slice with the slice's tested atoms, which
        # keeps the numeric-vector index above the atoms out, and lets values
        # that differ only in untested atoms share one entry.
        self.slices = []
        for shift in range(0, tested.bit_length(), 16):
            bits = tested >> shift & 0xFFFF
            if bits:
                quarters = (_quarter_table(every, need_true, need_false, shift + q, bits >> q & 15) for q in (0, 4, 8, 12))
                self.slices.append((shift, bits, _SliceTable(*quarters)))

    def applicable(self, state: int) -> int:
        """The mask of the actions whose atom preconditions hold in the state.
        An action with comparisons (a non-empty ``num`` in its entry) is
        applicable only if they hold too, which this does not check."""
        mask = self.every
        for shift, bits, table in self.slices:
            mask &= table[state >> shift & bits]
        return mask


def solve(task: GroundTask, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    started = time.monotonic()
    estimate = getattr(heuristics, cfg.heuristic)

    init = task.init_bools
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
    entries = successors.entries

    while f < len(buckets):
        bucket = buckets[f]
        if not bucket:
            f += 1
            continue
        g, h, state = bucket.popleft()
        if nodes[state][0] < g:
            continue  # stale entry
        if not h:
            return SolveResult(STATUS_PLAN, _reconstruct(task, nodes, state), expanded)
        if expanded >= cfg.node_budget or time.monotonic() - started > cfg.time_budget:
            return SolveResult(STATUS_BUDGET, None, expanded)
        expanded += 1
        new_g = g + 1
        nums = vectors[state >> n]
        # From the low bit up: ascending index, as a scan over every action.
        mask = successors.applicable(state)
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            action_idx = low_bit.bit_length() - 1
            comparisons, keep, add, effects = entries[action_idx]
            if comparisons and not all(c.holds(nums) for c in comparisons):
                continue
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
