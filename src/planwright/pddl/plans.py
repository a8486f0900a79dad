"""Plan text format: one ground action per line.

Accepts both the call-style surface syntax ``move(pos-0-1, pos-0-2, h0)``
and the classic s-expression style ``(move pos-0-1 pos-0-2 h0)``. Blank
lines, ``;`` comments, and a leading ``N.`` step number are tolerated so
display output can be read back.
"""
from __future__ import annotations

import re

from ..planner.plan import Plan, PlanStep
from .syntax import MALFORMED_STEP, PddlError

_CALL_RE = re.compile(r"^(?P<name>[a-zA-Z_][\w-]*)\s*\((?P<args>[^()]*)\)$")
_SEXP_RE = re.compile(r"^\(\s*(?P<body>[^()]*)\)$")
_INDEX_RE = re.compile(r"^[0-9]+[.):]\s*")


def parse_plan(text: str, filename: str = "<plan>") -> Plan:
    steps: list[PlanStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        line = _INDEX_RE.sub("", line)
        match = _CALL_RE.match(line)
        if match:
            args = [a.strip().lower() for a in match.group("args").split(",")] if match.group("args").strip() else []
            if any(not a for a in args):
                raise PddlError(MALFORMED_STEP, f"empty argument in step {line!r}", lineno, 1, filename)
            steps.append(PlanStep(match.group("name").lower(), tuple(args)))
            continue
        match = _SEXP_RE.match(line)
        if match:
            parts = match.group("body").split()
            if not parts:
                raise PddlError(MALFORMED_STEP, "empty step", lineno, 1, filename)
            steps.append(PlanStep(parts[0].lower(), tuple(p.lower() for p in parts[1:])))
            continue
        raise PddlError(MALFORMED_STEP, f"cannot parse step {line!r}", lineno, 1, filename)
    return Plan(tuple(steps))


def render_plan(plan: Plan) -> str:
    """Call-style rendering, the inverse of `parse_plan` on its own output."""
    lines = [str(step) for step in plan.steps]
    return "\n".join(lines) + ("\n" if lines else "")
