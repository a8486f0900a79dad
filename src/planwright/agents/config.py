"""Settings of the generate-validate-critic loop the three agents share."""
from __future__ import annotations

from ..values import Value


class PipelineConfig(Value):
    correction_limit: int = 10
    critic_threshold: float = 0.8  # tau
    critic_iterations: int = 3

    def __post_init__(self) -> None:
        if self.correction_limit < 1 or self.critic_iterations < 1:
            raise ValueError("limits must be >= 1")
        if not 0.0 <= self.critic_threshold <= 1.0:
            raise ValueError("critic threshold must lie in [0, 1]")
