"""Loader for the version-pinned system prompts shipped with the package."""
from __future__ import annotations

from functools import lru_cache

from ..data_paths import data_root

# System prompt of each generator agent, by role.
ROLE_PROMPTS = {
    "domain": "domain_generator",
    "initial-state": "initial_state_generator",
    "goal": "goal_generator",
}


@lru_cache(maxsize=None)
def load_prompt(name: str) -> str:
    return (data_root() / "prompts" / f"{name}.txt").read_text(encoding="utf-8").strip()
