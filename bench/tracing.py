"""Spans around the public functions of each planwright layer, installed from outside.

The program is not edited: `install` replaces every module-level binding of
each listed function in the loaded ``planwright`` modules (and the attribute
on the class, for methods) with a wrapper that records a span. A span holds
its layer, start, end and parent; spans stay in memory until the pass ends.
Only calls made inside an item's root span are recorded, so the benchmark's
own correctness checks never show up as layer time.
"""
from __future__ import annotations

import array
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

ITEM = "item"

# (module, attribute or Class.method, layer). Every layer named in a per-layer
# metric appears here; planwright.ragdebug is reached from no entry point and
# so is deliberately absent.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("planwright.pddl.parser", "parse_domain", "pddl.parse"),
    ("planwright.pddl.parser", "parse_problem", "pddl.parse"),
    ("planwright.pddl.emitter", "emit_domain", "pddl.emit"),
    ("planwright.pddl.emitter", "emit_problem", "pddl.emit"),
    ("planwright.pddl.emitter", "emit_expression", "pddl.emit"),
    ("planwright.ir.validate", "validate", "ir.validate"),
    ("planwright.planner.grounding", "ground", "planner.ground"),
    ("planwright.planner.search", "solve", "planner.search"),
    ("planwright.planner.heuristics", "h_add", "planner.heuristic"),
    ("planwright.planner.heuristics", "blind", "planner.heuristic"),
    ("planwright.planner.validation", "validate_plan", "planner.validate"),
    ("planwright.gateway.transcript", "Transcript.load", "gateway.fixture_load"),
    ("planwright.gateway", "Gateway.chat", "gateway.chat"),
    ("planwright.gateway.embedding", "HashedBagOfWordsEmbedder.embed", "gateway.embed"),
    ("planwright.gateway.embedding", "FixtureEmbedder.embed", "gateway.embed"),
    ("planwright.agents.pipeline", "run_pipeline", "agents.pipeline"),
    ("planwright.memory", "ProceduralStore.store", "memory.store"),
    ("planwright.memory", "ProceduralStore.retrieve", "memory.retrieve"),
    ("planwright.abstraction", "translate_plan", "abstraction.translate"),
    ("planwright.executor", "run_execution", "executor"),
    ("planwright.textworld", "apply_skill", "textworld.skill"),
    ("planwright.runs", "RunDirectory.write_text", "runs.write"),
    ("planwright.runs", "RunDirectory.write_json", "runs.write"),
    ("planwright.runs", "RunDirectory.fail", "runs.write"),
    ("planwright.runs", "RunDirectory.finalize", "runs.write"),
    ("planwright.cli", "build_parser", "cli.argparse"),
    ("planwright.cli", "_Parser.parse_args", "cli.argparse"),
)


def _count_ground(counts: dict, args, kwargs, result) -> None:
    counts["planner.atoms"] += len(result.atoms)
    counts["planner.actions_kept"] += len(result.actions)


def _count_solve(counts: dict, args, kwargs, result) -> None:
    counts["planner.nodes_expanded"] += result.nodes_expanded
    if result.plan is not None:
        counts["planner.plan_length"] += len(result.plan.steps)


def _count_pipeline(counts: dict, args, kwargs, result) -> None:
    counts["agents.upstream_requests"] += len(result.requests)


def _count_execution(counts: dict, args, kwargs, result) -> None:
    counts["executor.steps"] += len(result.log.records)


def _count_write(counts: dict, args, kwargs, result) -> None:
    # The manifest carries wall-clock fields whose printed length varies, so
    # only content files count towards the byte total.
    counts["runs.files"] += 1
    name, text = args[1], args[2]
    if name != "manifest.json":
        counts["runs.bytes"] += len(text.encode("utf-8"))


# Counters read from arguments or return values, keyed like TARGETS.
COUNTERS: dict[str, Callable] = {
    "ground": _count_ground,
    "solve": _count_solve,
    "run_pipeline": _count_pipeline,
    "run_execution": _count_execution,
    "RunDirectory.write_text": _count_write,
}

# Layers whose number of calls is itself a per-layer metric.
CALL_COUNTS = {
    "planner.heuristic": "planner.states_evaluated",
    "ir.validate": "ir.validate_calls",
    "gateway.chat": "gateway.chat_calls",
    "gateway.embed": "gateway.embed_calls",
    "memory.store": "memory.store_calls",
    "memory.retrieve": "memory.retrieve_calls",
    "textworld.skill": "textworld.skill_calls",
}

# Per-layer time metric -> layer whose summed self time it reports.
SELF_TIMES = {
    "planner.ground_s": "planner.ground",
    "planner.search_s": "planner.search",
    "planner.heuristic_s": "planner.heuristic",
    "planner.validate_s": "planner.validate",
    "pddl.parse_s": "pddl.parse",
    "pddl.emit_s": "pddl.emit",
    "ir.validate_s": "ir.validate",
    "gateway.fixture_load_s": "gateway.fixture_load",
    "gateway.chat_s": "gateway.chat",
    "gateway.embed_s": "gateway.embed",
    "agents.pipeline_self_s": "agents.pipeline",
    "memory.store_s": "memory.store",
    "memory.retrieve_s": "memory.retrieve",
    "abstraction.translate_s": "abstraction.translate",
    "executor.self_s": "executor",
    "textworld.skill_s": "textworld.skill",
    "runs.write_s": "runs.write",
    "cli.argparse_s": "cli.argparse",
    "trace.unattributed_s": ITEM,
}

COUNT_METRICS = (
    "planner.states_evaluated",
    "planner.atoms",
    "planner.actions_kept",
    "planner.nodes_expanded",
    "planner.plan_length",
    "ir.validate_calls",
    "gateway.chat_calls",
    "gateway.embed_calls",
    "agents.upstream_requests",
    "memory.store_calls",
    "memory.retrieve_calls",
    "executor.steps",
    "textworld.skill_calls",
    "runs.files",
    "runs.bytes",
)


class Tracer:
    """In-memory span recorder. Spans are kept in flat arrays to stay small."""

    def __init__(self) -> None:
        self.layers: list[str] = [ITEM]
        self._layer_ids: dict[str, int] = {ITEM: 0}
        self.layer = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self._stack: list[int] = []

    def _open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def run_item(self, fn: Callable[[], Any]) -> Any:
        """Run one benchmark item inside a root span."""
        index = self._open(0)
        try:
            return fn()
        finally:
            self._close(index)

    def wrap(self, layer: str, fn: Callable, counter: Optional[Callable] = None) -> Callable:
        layer_id = self._layer_ids.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        calls = CALL_COUNTS.get(layer)
        counts = self.counts
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if calls is not None:
                counts[calls] += 1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per layer: span duration minus its children's."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: 0.0 for name in self.layers}
        for i in range(n):
            totals[self.layers[self.layer[i]]] += self.end[i] - self.start[i] - child[i]
        return totals

    def wall(self) -> float:
        """Summed duration of the item root spans."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.layer)) if self.parent[i] < 0)

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {name: selfs.get(layer, 0.0) for name, layer in SELF_TIMES.items()}
        out.update(self.counts)
        out["trace.wall_s"] = self.wall()
        out["trace.spans"] = len(self.layer)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and four binary arrays in native order."""
        header = {
            "layers": self.layers,
            "spans": len(self.layer),
            "arrays": ["layer:i", "parent:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n", encoding="utf-8")
        with path.with_suffix(".bin").open("wb") as handle:
            for arr in (self.layer, self.parent, self.start, self.end):
                arr.tofile(handle)


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> None:
    """Replace every binding of each target with a traced wrapper."""
    for module_name, qualname, layer in TARGETS:
        owner, attr = _resolve(importlib.import_module(module_name), qualname)
        counter = COUNTERS.get(qualname)
        if isinstance(owner, type):
            raw = owner.__dict__.get(attr)
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(layer, raw.__func__, counter)))
            else:
                setattr(owner, attr, tracer.wrap(layer, getattr(owner, attr), counter))
            continue
        original = getattr(owner, attr)
        traced = tracer.wrap(layer, original, counter)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "planwright" or name.startswith("planwright.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
