"""Generator agents, critic loop, and the pipeline orchestrator."""
from .channel import InteractionError, RefusingUserChannel, ScriptedUserChannel, TerminalUserChannel, UserChannel
from .config import PipelineConfig
from .critic import CriticVerdict, critic_review
from .events import EventLog, PipelineEvent
from .generation import AgentSession, CorrectionLimitReached, GenerationOutcome
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
    "run_pipeline",
    "tools",
]
