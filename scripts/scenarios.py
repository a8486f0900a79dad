"""Canonical scripted scenarios and their fixture builders.

Each scenario pairs a task with the deterministic response script a live
model would have produced. Running the pipeline against the script in
record mode yields the replayable transcript fixtures shipped under
``src/planwright/data/scenarios``; ``make_fixtures.py`` writes them, and the
tests regenerate them into temporary directories and compare, so the
shipped fixtures cannot drift from the agent code.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from planwright.abstraction import InstructionList, translate_plan
from planwright.agents import PipelineConfig, ScriptedUserChannel, TaskSpec, run_pipeline
from planwright.cli import FIXED_CLOCK
from planwright.domains import blocksworld_domain, household_domain, household_problem
from planwright.executor import run_execution
from planwright.gateway import AgentMessage, Gateway, ScriptedBackend, ToolCall, Transcript, assistant
from planwright.ir import DomainModel, jsonio
from planwright.memory import ProceduralStore
from planwright.pddl import emit_domain, emit_expression
from planwright.planner import PlanStep, SolveConfig, ground, solve
from planwright.textworld import kitchen_fixture, save_world
from planwright.worldenv import TextWorldEnv

FRIDGE_MEMORY_SUMMARY = (
    "for problems involving the fridge, append a goal to close the fridge, even if not explicitly stated"
)


def ok_critic(score: float = 0.95, feedback: str = "meets the criteria") -> AgentMessage:
    return assistant(json.dumps({"score": score, "feedback": feedback}))


def _doc(payload: dict) -> AgentMessage:
    return assistant(jsonio.dumps(payload).rstrip("\n"))


@dataclass
class Scenario:
    name: str
    task: TaskSpec
    responses: list[AgentMessage]
    answers: list[str] = field(default_factory=list)
    provided_domain: Optional[DomainModel] = None
    seed_memory: list[str] = field(default_factory=list)
    expected_status: str = "complete"


# ----------------------------------------------------------------- color


def color_scenario() -> Scenario:
    domain = blocksworld_domain()
    color_fluent = {
        "name": "color",
        "parameters": [{"name": "?b", "type": "block"}, {"name": "?v", "type": "object"}],
        "kind": "boolean",
        "description": "block ?b carries color tag ?v",
    }
    base_objects = [{"name": f"b{i}", "type": "block"} for i in (1, 2, 3)]
    base_init = {
        "booleans": [
            {"op": "atom", "fluent": "arm-empty", "args": []},
            *[{"op": "atom", "fluent": "on-table", "args": [f"b{i}"]} for i in (1, 2, 3)],
            *[{"op": "atom", "fluent": "clear", "args": [f"b{i}"]} for i in (1, 2, 3)],
        ],
        "numerics": [],
    }
    colored_init = {
        "booleans": base_init["booleans"]
        + [
            {"op": "atom", "fluent": "color", "args": ["b1", "blue"]},
            {"op": "atom", "fluent": "color", "args": ["b2", "red"]},
            {"op": "atom", "fluent": "color", "args": ["b3", "green"]},
        ],
        "numerics": [],
    }
    color_objects = base_objects + [{"name": c, "type": "object"} for c in ("blue", "red", "green")]
    goal = {
        "goal": {
            "op": "and",
            "children": [
                {"op": "atom", "fluent": "color", "args": ["b1", "blue"]},
                {"op": "atom", "fluent": "color", "args": ["b2", "red"]},
                {"op": "atom", "fluent": "on", "args": ["b1", "b2"]},
            ],
        }
    }
    responses = [
        # domain generation + review
        _doc(jsonio.domain_to_json(domain)),
        ok_critic(),
        # first initial state + review
        _doc({"objects": base_objects, "init": base_init}),
        ok_critic(),
        # the goal agent detects the missing color fluent
        assistant(
            "The goal refers to block colors, which the domain cannot express.",
            (
                ToolCall(
                    "call-color-1",
                    "missing_or_incorrect_fluent",
                    {
                        "fluent_name": "color",
                        "fluent_description": "tags a block with a color value so goals can reference colors",
                    },
                ),
            ),
        ),
        # the domain owner applies the request
        _doc({"decision": "apply", "fluent": color_fluent}),
        # initial-state regeneration: ask the user for each block's color
        assistant("I need the color of each block.", (ToolCall("call-ask-1", "ask_user", {"question": "What is the color of block b1?"}),)),
        assistant("", (ToolCall("call-ask-2", "ask_user", {"question": "What is the color of block b2?"}),)),
        assistant("", (ToolCall("call-ask-3", "ask_user", {"question": "What is the color of block b3?"}),)),
        _doc({"objects": color_objects, "init": colored_init}),
        ok_critic(),
        # goal regeneration over the colored domain
        _doc(goal),
        ok_critic(),
    ]
    task = TaskSpec(
        name="color-goal",
        domain_description=(
            "Classic blocksworld: a one-armed robot stacks distinct blocks on a table. "
            "The arm can pick up a clear block from the table, put it down, stack it onto "
            "a clear block, or unstack it."
        ),
        initial_state_description="Three blocks b1, b2 and b3 all sit on the table, nothing is stacked.",
        goal_description="Place the blue block on top of the red block.",
    )
    return Scenario("color", task, responses, answers=["blue", "red", "green"])


# ----------------------------------------------------------------- fridge


def _household_docs() -> tuple[dict, dict]:
    problem = household_problem()
    objects = [{"name": o.name, "type": o.type} for o in problem.objects]
    init = jsonio.assignment_to_json(problem.init)
    return {"objects": objects, "init": init}, {"goal": jsonio.expression_to_json(problem.goal)}


FRIDGE_TASK_TEXTS = {
    "domain_description": (
        "A household kitchen for a service robot. Containers such as a fridge or a microwave "
        "can be opened and closed; items can be taken from and put into open containers, "
        "placed on surfaces, and heated inside a heater appliance. The robot holds one item "
        "at a time in the planning model."
    ),
    "initial_state_description": (
        "The kitchen has the fridge_305 with the salmon inside, a closed microwave, a pie on "
        "the counter, and an empty kitchentable. The robot's hand is empty."
    ),
}


def fridge_store_scenario() -> Scenario:
    init_doc, goal_doc = _household_docs()
    responses = [
        _doc(jsonio.domain_to_json(household_domain())),
        ok_critic(),
        _doc(init_doc),
        ok_critic(),
        assistant(
            "Saving the standing instruction before forming the goal.",
            (ToolCall("call-mem-1", "store_memory", {"summary": FRIDGE_MEMORY_SUMMARY}),),
        ),
        _doc(goal_doc),
        ok_critic(),
    ]
    task = TaskSpec(
        name="fridge-store",
        goal_description=(
            "Warm the salmon from the fridge and place it on the kitchen table. "
            "Save the following to memory: for problems involving the fridge, append a goal "
            "to close the fridge, even if not explicitly stated."
        ),
        **FRIDGE_TASK_TEXTS,
    )
    return Scenario("fridge_store", task, responses)


def fridge_recall_scenario() -> Scenario:
    init_doc, goal_doc = _household_docs()
    responses = [
        _doc(jsonio.domain_to_json(household_domain())),
        ok_critic(),
        _doc(init_doc),
        ok_critic(),
        _doc(goal_doc),  # the recalled memory adds the close-fridge conjunct
        ok_critic(),
    ]
    task = TaskSpec(
        name="fridge-recall",
        goal_description="Warm the salmon from the fridge and place it on the kitchen table.",
        **FRIDGE_TASK_TEXTS,
    )
    return Scenario("fridge_recall", task, responses, seed_memory=[FRIDGE_MEMORY_SUMMARY])


# ----------------------------------------------------------------- sizes


def size_tower_scenario() -> Scenario:
    size_fluent = {
        "name": "size",
        "parameters": [{"name": "?b", "type": "object"}],
        "kind": "numeric",
        "description": "relative size of a block",
    }
    stack_precondition = {
        "op": "and",
        "children": [
            {"op": "atom", "fluent": "holding", "args": ["?b1"]},
            {"op": "atom", "fluent": "clear", "args": ["?b2"]},
            {
                "op": "<",
                "left": {"op": "fluent", "fluent": "size", "args": ["?b1"]},
                "right": {"op": "fluent", "fluent": "size", "args": ["?b2"]},
            },
        ],
    }
    objects = [{"name": f"b{i}", "type": "block"} for i in (1, 2, 3, 4)]
    base_init = {
        "booleans": [
            {"op": "atom", "fluent": "arm-empty", "args": []},
            *[{"op": "atom", "fluent": "on-table", "args": [f"b{i}"]} for i in (1, 2, 3, 4)],
            *[{"op": "atom", "fluent": "clear", "args": [f"b{i}"]} for i in (1, 2, 3, 4)],
        ],
        "numerics": [],
    }
    sized_init = {
        "booleans": base_init["booleans"],
        "numerics": [
            {"fluent": "size", "args": [f"b{i}"], "value": str(i)} for i in (1, 2, 3, 4)
        ],
    }
    goal = {
        "goal": {
            "op": "and",
            "children": [
                {"op": "atom", "fluent": "on", "args": ["b1", "b2"]},
                {"op": "atom", "fluent": "on", "args": ["b2", "b3"]},
                {"op": "atom", "fluent": "on", "args": ["b3", "b4"]},
            ],
        }
    }
    ask = [
        assistant(
            "Sizes are required by the new constraint.",
            (ToolCall(f"call-size-{i}", "ask_user", {"question": f"What is the size of block b{i}?"}),),
        )
        for i in (1, 2, 3, 4)
    ]
    responses = [
        # initial state over the provided domain (no sizes needed yet)
        _doc({"objects": objects, "init": base_init}),
        ok_critic(),
        # goal agent introduces the numeric size fluent
        assistant(
            "The ordering constraint needs a size fluent.",
            (
                ToolCall(
                    "call-size-fluent",
                    "missing_or_incorrect_fluent",
                    {"fluent_name": "size", "fluent_description": "numeric size so stacking can compare blocks"},
                ),
            ),
        ),
        _doc({"decision": "apply", "fluent": size_fluent}),
        # initial state regenerates and queries the user for sizes
        *ask,
        _doc({"objects": objects, "init": sized_init}),
        ok_critic(),
        # goal agent now constrains the stack action
        assistant(
            "Stacking must be restricted to strictly larger targets.",
            (
                ToolCall(
                    "call-stack-mod",
                    "action_modification",
                    {"action_name": "stack", "change_description": "only allow stacking a block onto a strictly larger block"},
                ),
            ),
        ),
        _doc({"decision": "apply", "action": "stack", "precondition": stack_precondition}),
        # the domain changed again: initial state regenerates unchanged
        _doc({"objects": objects, "init": sized_init}),
        ok_critic(),
        # final goal
        _doc(goal),
        ok_critic(),
    ]
    task = TaskSpec(
        name="size-tower",
        domain_description="(domain provided)",
        initial_state_description="Four blocks b1, b2, b3 and b4 all sit on the table, nothing is stacked.",
        goal_description=(
            "The goal is to move the blocks to make a tower with the largest block on the bottom "
            "and the smallest block on top. Ensure that a block can be stacked only on top of a "
            "larger block in the action."
        ),
    )
    return Scenario(
        "size_tower",
        task,
        responses,
        answers=["1", "2", "3", "4"],
        provided_domain=blocksworld_domain(),
    )


# ----------------------------------------------------------------- limits


def always_failing_scenario() -> Scenario:
    responses = [assistant("this is not a domain document") for _ in range(10)]
    task = TaskSpec(
        name="always-failing",
        domain_description="A domain description no fixture answer ever satisfies.",
        initial_state_description="n/a",
        goal_description="n/a",
    )
    return Scenario("always_failing", task, responses, expected_status="correction-limit-reached")


SCENARIOS = {
    "color": color_scenario,
    "fridge_store": fridge_store_scenario,
    "fridge_recall": fridge_recall_scenario,
    "size_tower": size_tower_scenario,
    "always_failing": always_failing_scenario,
}


# ------------------------------------------------------------- recording


def record_scenario(scenario: Scenario, memory_path: Optional[Path] = None):
    """Run the pipeline against the scenario script in record mode.

    Returns (PipelineResult, Transcript). The transcript replays to the
    byte-identical result.
    """
    recording = Transcript()
    gateway = Gateway(ScriptedBackend(scenario.responses), recording=recording)
    memory = ProceduralStore(memory_path, clock=lambda: FIXED_CLOCK)
    for summary in scenario.seed_memory:
        if all(entry.summary != summary for entry in memory.entries):
            memory.store(summary, source_agent="goal")
    result = run_pipeline(
        scenario.task,
        PipelineConfig(),
        gateway,
        memory=memory,
        user_channel=ScriptedUserChannel(scenario.answers),
        provided_domain=scenario.provided_domain,
    )
    return result, recording


def write_scenario_files(root: Path) -> list[Path]:
    """Produce every scenario's fixture bundle under ``root``.

    Raises if any scenario no longer reaches its expected status, so fixture
    regeneration always reflects the current agent code.
    """
    written: list[Path] = []
    for name, factory in sorted(SCENARIOS.items()):
        scenario = factory()
        directory = root / name
        directory.mkdir(parents=True, exist_ok=True)
        task_path = directory / "task.json"
        task_path.write_text(
            json.dumps(
                {
                    "name": scenario.task.name,
                    "domain_description": scenario.task.domain_description,
                    "initial_state_description": scenario.task.initial_state_description,
                    "goal_description": scenario.task.goal_description,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        written.append(task_path)
        if scenario.answers:
            answers_path = directory / "answers.json"
            answers_path.write_text(json.dumps(scenario.answers, indent=2) + "\n", encoding="utf-8")
            written.append(answers_path)
        if scenario.provided_domain is not None:
            domain_path = directory / "domain.pddl"
            domain_path.write_text(emit_domain(scenario.provided_domain), encoding="utf-8")
            written.append(domain_path)

        memory_path = None
        if scenario.seed_memory:
            memory_path = directory / "memory.jsonl"
            memory_path.unlink(missing_ok=True)
        result, transcript = record_scenario(scenario, memory_path=memory_path)
        if result.status != scenario.expected_status:
            raise RuntimeError(f"scenario {name} ended {result.status!r}, expected {scenario.expected_status!r}: {result.error}")
        fixture_path = directory / "fixture.json"
        transcript.save(fixture_path)
        written.append(fixture_path)
        if memory_path is not None:
            written.append(memory_path)

        if name == "fridge_recall":
            world_path = directory / "world.json"
            save_world(kitchen_fixture(), world_path)
            written.append(world_path)
            outcome = solve(ground(result.problem), SolveConfig("astar", "blind"))
            if outcome.status != "plan":
                raise RuntimeError(f"fridge_recall problem did not solve: {outcome.status}")
            instructions = translate_plan(outcome.plan, result.problem.domain)
            exec_recording = Transcript()
            exec_gateway = Gateway(ScriptedBackend(executor_script_for(instructions)), recording=exec_recording)
            env = TextWorldEnv(kitchen_fixture(), result.problem.goal)
            report = run_execution(instructions, env, exec_gateway, emit_expression(result.problem.goal))
            if report.verdict.decision != "goal-met" or not env.goal_satisfied():
                raise RuntimeError(f"fridge_recall execution failed: {report.verdict}")
            exec_path = directory / "exec_fixture.json"
            exec_recording.save(exec_path)
            written.append(exec_path)
    return written


def executor_script_for(instructions: InstructionList) -> list[AgentMessage]:
    """Scripted executor behavior: walk to the relevant entity, apply the
    matching skill(s), then declare the sub-goal done."""
    script: list[AgentMessage] = []
    counter = 0

    def call(skill: str, **arguments) -> AgentMessage:
        nonlocal counter
        counter += 1
        return assistant(f"Using {skill}.", (ToolCall(f"exec-{counter}", skill, arguments),))

    for item in instructions.items:
        step: PlanStep = item.step
        name, args = step.name, step.args
        if name == "open":
            script += [call("walk_to", target=args[0]), call("open", target=args[0])]
        elif name == "close":
            script += [call("walk_to", target=args[0]), call("close", target=args[0])]
        elif name == "take-from":
            script += [call("walk_to", target=args[1]), call("grab", target=args[0])]
        elif name == "put-in":
            script += [call("walk_to", target=args[1]), call("put_in", target=args[0], destination=args[1])]
        elif name == "put-on":
            script += [call("walk_to", target=args[1]), call("put_on", target=args[0], destination=args[1])]
        elif name == "heat":
            script += [call("walk_to", target=args[1]), call("heat", target=args[0])]
        else:
            raise ValueError(f"no scripted behavior for action {name}")
        script.append(assistant("Sub-goal complete."))
    script.append(assistant(json.dumps({"decision": "goal-met"})))
    return script
