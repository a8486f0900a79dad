"""PDDL codec: parse and emit the supported subset, plus plan text."""
from .syntax import PddlError
from .parser import parse_domain, parse_problem
from .emitter import PddlEmitError, emit_domain, emit_problem, emit_expression, format_fraction
from .plans import parse_plan, render_plan

__all__ = [
    "PddlEmitError",
    "PddlError",
    "emit_domain",
    "emit_expression",
    "emit_problem",
    "format_fraction",
    "parse_domain",
    "parse_plan",
    "parse_problem",
    "render_plan",
]
