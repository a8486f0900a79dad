from __future__ import annotations

import json

import pytest

from planwright.abstraction import Instruction, InstructionList, translate_plan
from planwright.domains import household_problem
from planwright.executor import ExecutionLog, ValidatorVerdict, execute_plan, execute_step, run_execution, validate_execution
from planwright.gateway import Gateway, ScriptedBackend, ToolCall, assistant
from planwright.ir import And, Atom
from planwright.pddl import emit_expression
from planwright.planner import PlanStep, SolveConfig, ground, solve
from planwright.runs import RunDirectory
from planwright.textworld import TextWorldEnv
from scenarios import executor_script_for, kitchen_fixture


def instruction(text: str, step: PlanStep, index: int = 1) -> Instruction:
    return Instruction(index, text, step)


def fresh_env(goal=None):
    goal = goal if goal is not None else And(())
    return TextWorldEnv(kitchen_fixture(), goal)


def call(skill, call_id="c1", **arguments):
    return assistant(f"calling {skill}", (ToolCall(call_id, skill, arguments),))


class TestExecuteStep:
    def test_open_fridge(self):
        env = fresh_env()
        gw = Gateway(
            ScriptedBackend(
                [
                    call("walk_to", "c1", target="fridge_305"),
                    call("open", "c2", target="fridge_305"),
                    assistant("The fridge is open."),
                ]
            )
        )
        outcome, records = execute_step(instruction("Open the fridge.", PlanStep("open", ("fridge_305",))), env, gw)
        assert outcome.done
        assert env.state.entity("fridge_305").is_open
        assert [r.skill for r in records] == ["walk_to", "open", None]

    def test_unknown_skill_twice_fails(self):
        env = fresh_env()
        gw = Gateway(ScriptedBackend([call("levitate", "c1", target="salmon"), call("levitate", "c2", target="salmon")]))
        outcome, records = execute_step(instruction("Do magic.", PlanStep("magic", ())), env, gw)
        assert not outcome.done
        assert outcome.reason == "unknown-skill"

    def test_done_with_no_skill_call(self):
        env = fresh_env()
        gw = Gateway(ScriptedBackend([assistant("Nothing to do; the sub-goal already holds.")]))
        outcome, records = execute_step(instruction("Wait.", PlanStep("wait", ())), env, gw)
        assert outcome.done
        assert len(records) == 1 and records[0].skill is None

    def test_budget_exhausted(self):
        env = fresh_env()
        gw = Gateway(ScriptedBackend([call("walk_to", f"c{i}", target="counter") for i in range(10)]))
        outcome, _ = execute_step(instruction("Pace around.", PlanStep("pace", ())), env, gw, step_budget=3)
        assert not outcome.done
        assert outcome.reason == "step budget exhausted"

    def test_failed_observation_fed_back(self):
        env = fresh_env()
        gw = Gateway(
            ScriptedBackend(
                [
                    call("grab", "c1", target="salmon"),  # fails: fridge closed, not adjacent
                    call("walk_to", "c2", target="fridge_305"),
                    call("open", "c3", target="fridge_305"),
                    call("grab", "c4", target="salmon"),
                    assistant("Got it."),
                ]
            )
        )
        outcome, records = execute_step(
            instruction("Grab the salmon.", PlanStep("grab", ("salmon",))), env, gw, step_budget=6
        )
        assert outcome.done
        assert records[0].success is False
        assert env.state.entity("salmon").location.kind == "held"


class TestExecutePlan:
    def test_salmon_sequence_completes(self):
        problem = household_problem()
        outcome = solve(ground(problem), SolveConfig("astar", "blind"))
        instructions = translate_plan(outcome.plan, problem.domain)
        env = TextWorldEnv(kitchen_fixture(), problem.goal)
        gw = Gateway(ScriptedBackend(executor_script_for(instructions)))
        log = execute_plan(instructions, env, gw)
        assert log.status == "completed"
        assert env.goal_satisfied()

    def test_empty_instruction_list(self):
        env = fresh_env()
        log = execute_plan(InstructionList(()), env, Gateway(ScriptedBackend([])))
        assert log.status == "completed"
        assert log.records == ()

    def test_failure_at_step_two_stops(self):
        env = fresh_env()
        items = (
            instruction("Walk to the counter.", PlanStep("walk", ("counter",)), 1),
            instruction("Do magic.", PlanStep("magic", ()), 2),
            instruction("Never reached.", PlanStep("walk", ("counter",)), 3),
        )
        gw = Gateway(
            ScriptedBackend(
                [
                    call("walk_to", "c1", target="counter"),
                    assistant("done"),
                    call("levitate", "c2", target="pie"),
                    call("levitate", "c3", target="pie"),
                ]
            )
        )
        log = execute_plan(InstructionList(items), env, gw)
        assert log.status == "stopped-at-2"
        indices = {r.instruction_index for r in log.records}
        assert indices == {1, 2}


class TestValidateExecution:
    def test_goal_met_requires_env_check(self):
        # the model says goal-met but the environment disagrees: downgrade
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        gw = Gateway(ScriptedBackend([assistant(json.dumps({"decision": "goal-met"}))]))
        from planwright.executor import ExecutionLog

        verdict = validate_execution(ExecutionLog(), "(is_open fridge_305)", env, gw, retry_budget=1)
        assert verdict.decision == "retry"
        assert "environment goal check" in verdict.feedback

    def test_goal_met_with_env_agreement(self):
        env = fresh_env(goal=And(()))
        gw = Gateway(ScriptedBackend([assistant(json.dumps({"decision": "goal-met"}))]))
        from planwright.executor import ExecutionLog

        verdict = validate_execution(ExecutionLog(), "(and)", env, gw, retry_budget=1)
        assert verdict.decision == "goal-met"

    def test_retry_with_feedback(self):
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        gw = Gateway(
            ScriptedBackend([assistant(json.dumps({"decision": "retry", "feedback": "grab the salmon before heating"}))])
        )
        from planwright.executor import ExecutionLog

        verdict = validate_execution(ExecutionLog(), "(is_open fridge_305)", env, gw, retry_budget=2)
        assert verdict.decision == "retry"
        assert verdict.feedback == "grab the salmon before heating"

    def test_feedback_that_is_no_string_is_not_parseable(self):
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        text = json.dumps({"decision": "retry", "feedback": None})
        gw = Gateway(ScriptedBackend([assistant(text)]))
        verdict = validate_execution(ExecutionLog(), "(is_open fridge_305)", env, gw, retry_budget=2)
        assert verdict == ValidatorVerdict("retry", feedback=f"validator answer was not parseable: {text}")

    def test_retry_budget_zero_aborts(self):
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        gw = Gateway(ScriptedBackend([assistant(json.dumps({"decision": "retry", "feedback": "try again"}))]))
        from planwright.executor import ExecutionLog

        verdict = validate_execution(ExecutionLog(), "(is_open fridge_305)", env, gw, retry_budget=0)
        assert verdict.decision == "abort"
        assert "retry budget exhausted" in verdict.notification


    @pytest.mark.parametrize(
        "reply, budget, expected",
        [
            ('{"decision": "retry"}', 1, ValidatorVerdict("retry", feedback="try again")),
            ('{"decision": "retry"}', 0, ValidatorVerdict("abort", notification="retry budget exhausted: goal not met")),
            ('{"decision": "retry", "feedback": ""}', 1, ValidatorVerdict("retry", feedback="")),
            ('{"decision": "retry", "feedback": ""}', 0, ValidatorVerdict("abort", notification="retry budget exhausted: ")),
            (
                '{"decision": "retry", "feedback": 3}',
                1,
                ValidatorVerdict("retry", feedback='validator answer was not parseable: {"decision": "retry", "feedback": 3}'),
            ),
            (
                '{"decision": "retry", "feedback": 3}',
                0,
                ValidatorVerdict(
                    "abort",
                    notification='retry budget exhausted: validator answer was not parseable: {"decision": "retry", "feedback": 3}',
                ),
            ),
            ('{"decision": "abort"}', 1, ValidatorVerdict("abort", notification="execution aborted")),
            ('{"decision": "abort"}', 0, ValidatorVerdict("abort", notification="execution aborted")),
            ('{"decision": "abort", "notification": "stop", "feedback": "x"}', 1, ValidatorVerdict("abort", notification="stop")),
            ("not json", 1, ValidatorVerdict("retry", feedback="validator answer was not parseable: not json")),
            ("not json", 0, ValidatorVerdict("abort", notification="retry budget exhausted: validator answer was not parseable: not json")),
        ],
        ids=[
            "feedback-absent-1", "feedback-absent-0", "feedback-empty-1", "feedback-empty-0",
            "feedback-no-string-1", "feedback-no-string-0", "notification-absent-1", "notification-absent-0",
            "notification-given", "unparseable-1", "unparseable-0",
        ],
    )
    def test_verdict_for_each_reply_form(self, reply, budget, expected):
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        gw = Gateway(ScriptedBackend([assistant(reply)]))
        assert validate_execution(ExecutionLog(), "(is_open fridge_305)", env, gw, retry_budget=budget) == expected

    @pytest.mark.parametrize(
        "reply",
        ['{"decision": "goal-met", "feedback": 3}', '{"decision": "goal-met", "notification": ["x"]}'],
        ids=["feedback", "notification"],
    )
    def test_met_goal_ignores_free_text_it_does_not_show(self, reply):
        """A goal-met verdict shows neither free-text key, so a key that is
        no string does not turn a met goal into an abort."""
        gw = Gateway(ScriptedBackend([assistant(reply)]))
        assert validate_execution(ExecutionLog(), "(and)", fresh_env(), gw, retry_budget=0) == ValidatorVerdict("goal-met")


class TestRunExecution:
    def test_retry_path_reruns_plan(self):
        problem = household_problem()
        outcome = solve(ground(problem), SolveConfig("astar", "blind"))
        instructions = translate_plan(outcome.plan, problem.domain)
        env = TextWorldEnv(kitchen_fixture(), problem.goal)
        # first pass: the executor idles every step; validator demands retry;
        # second pass: the scripted competent behavior succeeds.
        idle_pass = [assistant("skipping") for _ in instructions.items]
        retry = [assistant(json.dumps({"decision": "retry", "feedback": "actually use the skills"}))]
        good_pass = executor_script_for(instructions)
        gw = Gateway(ScriptedBackend(idle_pass + retry + good_pass))
        report = run_execution(instructions, env, gw, emit_expression(problem.goal), retry_budget=2)
        assert report.verdict.decision == "goal-met"
        assert report.passes == 2
        assert env.goal_satisfied()

    def test_abort_after_exhausted_retries(self):
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        items = (instruction("Idle.", PlanStep("idle", ()), 1),)
        script = []
        for _ in range(3):  # initial pass + 2 retries
            script.append(assistant("not doing anything"))
            script.append(assistant(json.dumps({"decision": "retry", "feedback": "open the fridge"})))
        gw = Gateway(ScriptedBackend(script))
        report = run_execution(InstructionList(items), env, gw, "(is_open fridge_305)", retry_budget=2)
        assert report.verdict.decision == "abort"
        assert report.passes == 3

    @pytest.mark.parametrize("n, step_budget, retry_budget", [(1, 1, 0), (2, 3, 1), (3, 2, 2)])
    def test_calls_reach_but_never_pass_the_budget_bound(self, n, step_budget, retry_budget):
        """A pass makes at most n·step_budget + 1 calls and there are at most
        retry_budget + 1 passes. Each instruction here takes every turn of its
        budget (skill calls, then a reply that declares it done) and every
        verdict is retry, so the run uses exactly that many replies."""
        items = tuple(instruction(f"Step {i}.", PlanStep("pace", ()), i) for i in range(1, n + 1))
        per_instruction = [call("walk_to", f"c{t}", target="counter") for t in range(step_budget - 1)] + [assistant("Done.")]
        retry = assistant(json.dumps({"decision": "retry", "feedback": "again"}))
        script = (per_instruction * n + [retry]) * (retry_budget + 1)
        assert len(script) == (retry_budget + 1) * (n * step_budget + 1)
        backend = ScriptedBackend(script)
        report = run_execution(InstructionList(items), fresh_env(), Gateway(backend), "(and)", step_budget, retry_budget)
        assert backend.position == len(script)
        assert (report.passes, report.verdict.decision, report.log.status) == (retry_budget + 1, "abort", "completed")

    def test_two_passes_write_one_log(self, tmp_path):
        """A pass that stops, a retry and a pass that completes: the log
        written holds every pass's records and the last pass's status."""
        env = fresh_env(goal=Atom("is_open", ("fridge_305",)))
        items = (instruction("Open the fridge.", PlanStep("open", ("fridge_305",))),)
        script = [
            call("levitate", "c1", target="fridge_305"),
            call("levitate", "c2", target="fridge_305"),
            assistant(json.dumps({"decision": "retry", "feedback": "use the open skill"})),
            call("walk_to", "c3", target="fridge_305"),
            call("open", "c4", target="fridge_305"),
            assistant("The fridge is open."),
            assistant(json.dumps({"decision": "goal-met"})),
        ]
        report = run_execution(InstructionList(items), env, Gateway(ScriptedBackend(script)), "(is_open fridge_305)", retry_budget=1)
        assert (report.passes, report.verdict.decision) == (2, "goal-met")
        RunDirectory(tmp_path, "execute").write_json("execution_log.json", report.log)
        empty = {"skill": None, "arguments": None, "observation": None, "success": None}
        assert json.loads((tmp_path / "execution_log.json").read_text()) == {
            "status": "completed",
            "records": [
                {"instruction_index": 1, "thought": "tool call rejected: unknown tool 'levitate'", **empty},
                {"instruction_index": 1, "thought": "instruction abandoned: unknown-skill", **empty},
                {
                    "instruction_index": 1,
                    "thought": "calling walk_to",
                    "skill": "walk_to",
                    "arguments": {"target": "fridge_305"},
                    "observation": "You walk to the fridge_305.",
                    "success": True,
                },
                {
                    "instruction_index": 1,
                    "thought": "calling open",
                    "skill": "open",
                    "arguments": {"target": "fridge_305"},
                    "observation": "The fridge_305 is now open.",
                    "success": True,
                },
                {"instruction_index": 1, "thought": "The fridge is open.", **empty},
            ],
        }
