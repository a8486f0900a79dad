"""Plan values produced by the solver and consumed by translation/execution."""
from __future__ import annotations

from ..values import Value


class PlanStep(Value):
    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


class Plan(Value):
    steps: tuple[PlanStep, ...] = ()

    @property
    def cost(self) -> int:
        # Unit action costs: cost and length coincide.
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "steps": [{"name": s.name, "args": list(s.args)} for s in self.steps],
            "cost": self.cost,
        }
