"""Generator-critic self-reflection: score sigma against threshold tau."""
from __future__ import annotations

from dataclasses import dataclass

from ..gateway import ChatRequest, Gateway, system, user
from ..ir import jsonio
from .prompts import load_prompt


@dataclass(frozen=True)
class CriticVerdict:
    score: float  # sigma in [0, 1]
    feedback: str
    accepted: bool


def parse_score_payload(content: str) -> tuple[float, str] | None:
    try:
        data = jsonio.read_object(content)
        score = jsonio.field(data, "score", (int, float))
    except jsonio.IRDecodeError:
        return None
    if isinstance(score, bool):
        return None
    return float(score), str(data.get("feedback", ""))


def critic_review(
    candidate: str,
    criteria: str,
    threshold: float,
    gateway: Gateway,
    model: str = "default",
    temperature: float = 0.0,
) -> CriticVerdict:
    """One critic pass; unparsable critic output counts as a rejection with
    the raw text forwarded as feedback."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    prompt = load_prompt("critic") + f"\n\nAcceptance threshold: {threshold}\nReview criteria: {criteria}"
    request = ChatRequest(
        messages=(system(prompt), user(candidate)),
        temperature=temperature,
        model=model,
    )
    response = gateway.chat(request)
    parsed = parse_score_payload(response.content)
    if parsed is None:
        return CriticVerdict(0.0, response.content, accepted=False)
    score, feedback = parsed
    score = min(max(score, 0.0), 1.0)
    accepted = score >= threshold
    if not accepted and not feedback:
        feedback = "rejected without specific feedback"
    return CriticVerdict(score, feedback, accepted)
