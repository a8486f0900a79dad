"""Self-contained planner: grounding, heuristic search, plan validation."""
from .plan import Plan, PlanStep
from .grounding import GroundAction, GroundTask, GroundingError, ground
from .heuristics import INF, blind, h_add, h_max_cost
from .search import STATUS_BUDGET, STATUS_PLAN, STATUS_UNSOLVABLE, SolveConfig, SolveResult, solve
from .validation import Invalid, Valid, Verdict, eval_ground, eval_term, validate_plan

__all__ = [
    "GroundAction",
    "GroundTask",
    "GroundingError",
    "INF",
    "Invalid",
    "Plan",
    "PlanStep",
    "STATUS_BUDGET",
    "STATUS_PLAN",
    "STATUS_UNSOLVABLE",
    "SolveConfig",
    "SolveResult",
    "Valid",
    "Verdict",
    "blind",
    "eval_ground",
    "eval_term",
    "ground",
    "h_add",
    "h_max_cost",
    "solve",
    "validate_plan",
]
