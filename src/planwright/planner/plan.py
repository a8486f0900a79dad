"""Plan values produced by the solver and consumed by translation/execution."""
from __future__ import annotations

from ..values import Value


class PlanStep(Value):
    name: str
    args: tuple[str, ...] = ()
    _json_kinds = {"name": str, "args": [str]}

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


class Plan(Value):
    steps: tuple[PlanStep, ...] = ()
    _json_keys = ("steps", "cost")

    @property
    def cost(self) -> int:
        # Unit action costs: cost and length coincide.
        return len(self.steps)
