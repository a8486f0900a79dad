"""PDDL codec: parse and emit the supported subset, plus plan text."""
from ..ir import PddlEmitError, format_fraction
from .syntax import PddlError
from .parser import parse_domain, parse_problem
from .emitter import emit_domain, emit_problem, emit_expression
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
