"""Generator agents, critic loop, and the pipeline orchestrator."""
from .channel import InteractionError, RefusingUserChannel, ScriptedUserChannel, TerminalUserChannel, UserChannel
from .config import PipelineConfig
from .critic import CriticVerdict, critic_review
from .events import EventLog, PipelineEvent
from .generation import (
    AgentSession,
    CorrectionLimitReached,
    GenerationOutcome,
    generate_domain,
    generate_goal,
    generate_initial_state,
)
from .pipeline import (
    CallCeilingExceeded,
    GatewayMeter,
    PipelineResult,
    STATUS_COMPLETE,
    STATUS_CORRECTION_LIMIT,
    STATUS_FAILED,
    TaskSpec,
    UpstreamRequest,
    run_pipeline,
)
from . import tools

__all__ = [
    "AgentSession",
    "CallCeilingExceeded",
    "CorrectionLimitReached",
    "CriticVerdict",
    "EventLog",
    "GatewayMeter",
    "GenerationOutcome",
    "InteractionError",
    "PipelineConfig",
    "PipelineEvent",
    "PipelineResult",
    "RefusingUserChannel",
    "STATUS_COMPLETE",
    "STATUS_CORRECTION_LIMIT",
    "STATUS_FAILED",
    "ScriptedUserChannel",
    "TaskSpec",
    "TerminalUserChannel",
    "UpstreamRequest",
    "UserChannel",
    "critic_review",
    "generate_domain",
    "generate_goal",
    "generate_initial_state",
    "run_pipeline",
    "tools",
]
