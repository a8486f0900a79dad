from __future__ import annotations

import json
from pathlib import Path

import pytest

from planwright.cli import build_parser, main
from planwright.data_paths import benchmarks_root, scenario_dir
from planwright.domains import blocksworld_domain
from planwright.gateway import Gateway, ScriptedBackend, Transcript, assistant
from planwright.ir import DomainModel, jsonio
from planwright.pddl import emit_domain
from planwright.runs import normalized_tree
from planwright.textworld import WorldState, check_goal
from helpers import nested_domain_text, run_python
from scenarios import ok_critic


def plan_args(scenario: str, out: Path, **overrides) -> list[str]:
    d = scenario_dir(scenario)
    args = [
        "plan",
        "--task", str(d / "task.json"),
        "--mode", "replay",
        "--fixture", str(d / "fixture.json"),
        "--out-dir", str(out),
    ]
    if (d / "answers.json").exists():
        args += ["--answers-file", str(d / "answers.json")]
    if (d / "domain.pddl").exists():
        args += ["--domain", str(d / "domain.pddl")]
    if (d / "memory.jsonl").exists():
        args += ["--memory-store", str(d / "memory.jsonl")]
    elif scenario == "fridge_store":
        # recorded with a store configured; replay writes a fresh one per run
        args += ["--memory-store", str(out / "memory.jsonl")]
    for key, value in overrides.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestPlanCommand:
    def test_color_scenario_exit_zero_with_color_artifact(self, tmp_path):
        out = tmp_path / "run"
        assert main(plan_args("color", out)) == 0
        domain_text = (out / "domain.pddl").read_text()
        assert "color" in domain_text
        plan_text = (out / "plan.txt").read_text()
        assert plan_text.splitlines() == ["pick-up(b1)", "stack(b1, b2)"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 0
        assert "instructions.txt" in manifest["files"]
        assert list(manifest["timings"]) == ["ground", "pipeline", "search", "validate"]

    def test_unsolvable_goal_exits_two_and_names_goal(self, tmp_path):
        fixture = tmp_path / "fixture.json"
        task = tmp_path / "task.json"
        domain_file = tmp_path / "domain.pddl"
        out = tmp_path / "run"
        domain_file.write_text(emit_domain(blocksworld_domain()))
        task.write_text(json.dumps({
            "name": "impossible",
            "domain_description": "(provided)",
            "initial_state_description": "one block",
            "goal_description": "b1 on itself",
        }))
        init_doc = {
            "objects": [{"name": "b1", "type": "block"}],
            "init": {"booleans": [
                {"op": "atom", "fluent": "arm-empty", "args": []},
                {"op": "atom", "fluent": "on-table", "args": ["b1"]},
                {"op": "atom", "fluent": "clear", "args": ["b1"]},
            ], "numerics": []},
        }
        goal_doc = {"goal": {"op": "atom", "fluent": "on", "args": ["b1", "b1"]}}
        responses = [
            assistant(jsonio.dumps(init_doc).rstrip("\n")), ok_critic(),
            assistant(jsonio.dumps(goal_doc).rstrip("\n")), ok_critic(),
        ]
        recording = Transcript()
        # record the fixture by replaying the CLI path once against a script
        from planwright.agents import PipelineConfig, TaskSpec, run_pipeline
        from planwright.memory import ProceduralStore

        run_pipeline(
            TaskSpec("impossible", "(provided)", "one block", "b1 on itself"),
            PipelineConfig(),
            Gateway(ScriptedBackend(responses), recording=recording),
            memory=ProceduralStore(clock=lambda: 0.0),
            provided_domain=blocksworld_domain(),
        )
        recording.save(fixture)
        code = main([
            "plan", "--task", str(task), "--mode", "replay", "--fixture", str(fixture),
            "--out-dir", str(out), "--domain", str(domain_file),
        ])
        assert code == 2
        failure = json.loads((out / "failure.json").read_text())
        assert failure["code"] == "unsolvable"
        assert "(on b1 b1)" in failure["message"]

    def test_missing_fixture_in_replay_mode_is_config_error(self, tmp_path):
        d = scenario_dir("color")
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", "replay",
            "--out-dir", str(tmp_path / "run"),
        ])
        assert code == 64
        failure = json.loads((tmp_path / "run" / "failure.json").read_text())
        assert failure["stage"] == "config"

    def test_exhausted_answers_exits_65(self, tmp_path):
        short_answers = tmp_path / "answers.json"
        short_answers.write_text(json.dumps(["blue"]))
        out = tmp_path / "run"
        d = scenario_dir("color")
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", "replay",
            "--fixture", str(d / "fixture.json"), "--out-dir", str(out),
            "--answers-file", str(short_answers),
        ])
        assert code == 65

    @pytest.mark.parametrize("answers", [["blue", 1], [None], [{"a": 2}]])
    def test_answers_file_of_non_strings_is_config_error(self, tmp_path, answers):
        answers_file = tmp_path / "answers.json"
        answers_file.write_text(json.dumps(answers))
        out = tmp_path / "run"
        assert main(plan_args("color", out) + ["--answers-file", str(answers_file)]) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": "answers file must hold a JSON list of strings"}

    def test_too_deep_answers_file_is_config_error(self, tmp_path):
        answers_file = tmp_path / "answers.json"
        answers_file.write_text("[" * 5000 + "]" * 5000)
        out = tmp_path / "run"
        assert main(plan_args("color", out) + ["--answers-file", str(answers_file)]) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        assert failure["message"].endswith(f"JSON nests more than {jsonio.MAX_JSON_DEPTH} deep")

    def test_always_failing_scenario_exits_one(self, tmp_path):
        out = tmp_path / "run"
        code = main(plan_args("always_failing", out))
        assert code == 1
        record = json.loads((out / "pipeline_result.json").read_text())
        assert record["status"] == "correction-limit-reached"

    def test_grounding_budget_exceeded_exits_one(self, tmp_path, monkeypatch):
        import planwright.planner.grounding as grounding

        monkeypatch.setattr(grounding, "GROUNDING_BUDGET", 1)
        out = tmp_path / "run"
        assert main(plan_args("color", out)) == 1
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("solve", "grounding-error")
        assert "exceeds the budget of 1 bindings" in failure["message"]
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 1

    def test_dnf_budget_exceeded_exits_one(self, tmp_path, monkeypatch):
        import planwright.planner.grounding as grounding

        # The goal's one branch is counted, and refused, before it is built.
        monkeypatch.setattr(grounding, "GROUNDING_BUDGET", 0)
        out = tmp_path / "run"
        assert main(plan_args("color", out)) == 1
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "solve", "code": "grounding-error", "message": "the goal exceeds the budget of 0 DNF branches"}

    def test_size_tower_scenario(self, tmp_path):
        out = tmp_path / "run"
        assert main(plan_args("size_tower", out)) == 0
        text = (out / "domain.pddl").read_text()
        assert "(:functions (size ?b))" in text
        assert "(< (size ?b1) (size ?b2))" in text

    def test_domain_constant_without_decimal_form_gets_correction_feedback(self, tmp_path):
        """A generated domain whose constant PDDL cannot write is sent back
        to its agent like any other violation, and the corrected one plans."""
        from fractions import Fraction

        from planwright.agents import TaskSpec
        from planwright.ir import ActionSchema, Assignment, Comparison, DomainModel, FluentDecl, NumConst, NumFluent, NumericEffect
        from scenarios import Scenario, _doc, record_scenario

        level = NumFluent("level")

        def tank(step: Fraction) -> DomainModel:
            fill = ActionSchema("fill", (), Comparison("<", level, NumConst(Fraction(1))), (NumericEffect("increase", level, NumConst(step)),))
            return DomainModel("tank", fluents=(FluentDecl("level", kind="numeric"),), actions=(fill,))

        init = Assignment.create(numeric={level: Fraction(0)})
        goal = Comparison(">=", level, NumConst(Fraction(1)))
        task = TaskSpec("tank", "a tank filled in steps", "the tank is empty", "the tank is full")
        responses = [
            _doc(tank(Fraction(1, 3)).to_json()),
            _doc(tank(Fraction(1, 2)).to_json()),
            ok_critic(),
            _doc({"objects": [], "init": init.to_json()}),
            ok_critic(),
            _doc({"goal": goal.to_json()}),
            ok_critic(),
        ]
        _, recording = record_scenario(Scenario("tank", task, responses))
        fixture, task_file, out = tmp_path / "fixture.json", tmp_path / "task.json", tmp_path / "run"
        recording.save(fixture)
        task_file.write_text(json.dumps(vars(task)))
        code = main(["plan", "--task", str(task_file), "--mode", "replay", "--fixture", str(fixture), "--out-dir", str(out)])
        assert code == 0
        assert (out / "plan.txt").read_text().splitlines() == ["fill()", "fill()"]
        events = json.loads((out / "pipeline_result.json").read_text())["events"]
        [rejected] = [e for e in events if e["kind"] == "validation-error"]
        assert rejected["agent"] == "domain"
        assert any("1/3" in error and "no finite decimal form" in error for error in rejected["data"]["errors"])


class TestExecuteCommand:
    def run_fridge_plan(self, tmp_path: Path) -> Path:
        out = tmp_path / "plan-run"
        assert main(plan_args("fridge_recall", out)) == 0
        return out

    def test_salmon_execution_goal_met(self, tmp_path):
        artifacts = self.run_fridge_plan(tmp_path)
        d = scenario_dir("fridge_recall")
        out = tmp_path / "exec-run"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(d / "exec_fixture.json"),
            "--out-dir", str(out),
        ])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["decision"] == "goal-met"
        final = WorldState.from_json(json.loads((out / "world_final.json").read_text()))
        problem = jsonio.problem_from_json(json.loads((artifacts / "problem.json").read_text()))
        assert check_goal(final, problem.goal)

    def test_config_file_sets_execute_flags(self, tmp_path):
        artifacts = self.run_fridge_plan(tmp_path)
        d = scenario_dir("fridge_recall")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "replay", "fixture": str(d / "exec_fixture.json"), "step-budget": 9}))
        out = tmp_path / "exec-run"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(d / "world.json"),
            "--out-dir", str(out), "--config", str(config),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["config"]["fixture"], manifest["config"]["step_budget"]) == (str(d / "exec_fixture.json"), 9)

    def test_validator_abort_exits_three(self, tmp_path):
        artifacts = self.run_fridge_plan(tmp_path)
        d = scenario_dir("fridge_recall")
        # a fixture whose executor idles and whose validator aborts
        instructions = json.loads((artifacts / "instructions.json").read_text())
        n = len(instructions["instructions"])
        responses = [assistant("not acting") for _ in range(n)]
        responses.append(assistant(json.dumps({"decision": "abort", "notification": "cannot recover"})))
        recording = Transcript()
        gw = Gateway(ScriptedBackend(responses), recording=recording)
        from planwright.abstraction import InstructionList
        from planwright.executor import run_execution
        from planwright.pddl import emit_expression
        from planwright.textworld import TextWorldEnv, load_world

        problem = jsonio.problem_from_json(json.loads((artifacts / "problem.json").read_text()))
        env = TextWorldEnv(load_world(d / "world.json"), problem.goal)
        run_execution(InstructionList.from_json(instructions), env, gw, emit_expression(problem.goal), retry_budget=2)
        fixture = tmp_path / "abort_fixture.json"
        recording.save(fixture)

        out = tmp_path / "exec-abort"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(fixture), "--out-dir", str(out),
            "--retry-budget", "2",
        ])
        assert code == 3
        failure = json.loads((out / "failure.json").read_text())
        assert failure["code"] == "validator-abort"

    def test_empty_instruction_list_on_satisfied_goal(self, tmp_path):
        artifacts = tmp_path / "artifacts"
        artifacts.mkdir()
        from planwright.domains import household_problem
        from planwright.ir import And, ProblemInstance

        problem = household_problem()
        trivial = ProblemInstance(problem.domain, problem.objects, problem.init, And(()), "trivial")
        (artifacts / "problem.json").write_text(json.dumps(trivial.to_json()))
        (artifacts / "instructions.json").write_text(json.dumps({"instructions": []}))
        responses = [assistant(json.dumps({"decision": "goal-met"}))]
        recording = Transcript()
        gw = Gateway(ScriptedBackend(responses), recording=recording)
        from planwright.abstraction import InstructionList
        from planwright.executor import run_execution
        from planwright.textworld import TextWorldEnv
        from scenarios import kitchen_fixture

        run_execution(InstructionList(()), TextWorldEnv(kitchen_fixture(), And(())), gw, "(and)")
        fixture = tmp_path / "noop_fixture.json"
        recording.save(fixture)
        d = scenario_dir("fridge_recall")
        out = tmp_path / "exec-noop"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(fixture), "--out-dir", str(out),
        ])
        assert code == 0

    def test_goal_without_decimal_form_is_config_error(self, tmp_path):
        artifacts = self.run_fridge_plan(tmp_path)
        doc = json.loads((artifacts / "problem.json").read_text())
        doc["goal"] = {"op": "<", "left": {"op": "const", "value": "1/3"}, "right": {"op": "const", "value": "1"}}
        (artifacts / "problem.json").write_text(json.dumps(doc))
        d = scenario_dir("fridge_recall")
        out = tmp_path / "exec-run"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", str(out),
        ])
        assert code == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        assert "no finite decimal form" in failure["message"]
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    def execute_without_kitchentable(self, tmp_path, fixture: str, **world_changes) -> dict:
        """Run `execute` in replay mode in the fridge world minus the
        kitchentable, with ``world_changes`` applied, and return its failure
        record after checking that it is a config error. The ``empty``
        fixture holds no exchange, so the run must fail before any model
        call."""
        artifacts = self.run_fridge_plan(tmp_path)
        d = scenario_dir("fridge_recall")
        world = json.loads((d / "world.json").read_text())
        world["entities"] = [e for e in world["entities"] if e["id"] != "kitchentable"]
        world.update(world_changes)
        (tmp_path / "world.json").write_text(json.dumps(world))
        exchanges = d / "exec_fixture.json"
        if fixture == "empty":
            exchanges = tmp_path / "empty_fixture.json"
            Transcript().save(exchanges)
        out = tmp_path / "exec-run"
        code = main([
            "execute", "--artifacts", str(artifacts), "--world", str(tmp_path / "world.json"),
            "--mode", "replay", "--fixture", str(exchanges), "--out-dir", str(out),
        ])
        assert code == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        return failure

    @pytest.mark.parametrize("fixture", ["shipped", "empty"])
    def test_goal_naming_an_entity_the_world_lacks_is_config_error(self, tmp_path, fixture):
        """The fridge goal puts the salmon on the kitchentable. In a world
        without it the goal check fails before any model call. The agent
        starts at the counter, so the world itself loads."""
        failure = self.execute_without_kitchentable(tmp_path, fixture, agent_at="counter")
        assert failure["message"] == "the world has no entity 'kitchentable'"

    @pytest.mark.parametrize("fixture", ["shipped", "empty"])
    def test_world_whose_agent_stands_at_a_missing_entity_is_config_error(self, tmp_path, fixture):
        """The fridge world's agent starts at the kitchentable. Without that
        entity the world is refused as it loads."""
        failure = self.execute_without_kitchentable(tmp_path, fixture)
        assert failure["message"] == "agent_at names 'kitchentable', which the world lacks"


class TestMalformedInputFiles:
    PLAN_INPUTS = {
        "task-list": ("task", "[]"),
        "fixture-list": ("fixture", "[]"),
        "memory-entry-without-summary": ("memory_store", '{"version": 1}\n{"embedding": [1]}\n'),
        "memory-entry-of-wrong-dimension": ("memory_store", '{"version": 1}\n{"summary": "s", "embedding": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n'),
        "memory-entry-not-finite": ("memory_store", '{"version": 1}\n{"summary": "s", "embedding": [1e400' + ', 0' * 255 + ']}\n'),
        "domain-too-deep": ("domain", nested_domain_text(3000)),
        "memory-without-header": ("memory_store", "".join((scenario_dir("fridge_recall") / "memory.jsonl").read_text().splitlines(True)[1:])),
    }

    EXECUTE_FLAGS = {
        "step-budget-zero": ["--step-budget", "0"],
        "retry-budget-negative": ["--retry-budget", "-1"],
    }

    @pytest.mark.parametrize(
        "case", [*PLAN_INPUTS, "instruction-without-index", "world-list", "world-with-one-hand", *EXECUTE_FLAGS]
    )
    def test_exits_64_with_config_error(self, tmp_path, case):
        d = scenario_dir("fridge_recall")
        out = tmp_path / "run"
        bad = tmp_path / "bad.json"
        if case in self.PLAN_INPUTS:
            flag, text = self.PLAN_INPUTS[case]
            bad.write_text(text)
            argv = plan_args("fridge_recall", out, **{flag: bad})
        else:
            bad.write_text("[]")
            artifacts = tmp_path / "plan-run"
            assert main(plan_args("fridge_recall", artifacts)) == 0
            world = bad if case.startswith("world-") else d / "world.json"
            if case == "world-with-one-hand":
                doc = json.loads((d / "world.json").read_text())
                doc["hands"] = ["cup"]
                bad.write_text(json.dumps(doc))
            if case == "instruction-without-index":
                doc = json.loads((artifacts / "instructions.json").read_text())
                del doc["instructions"][0]["index"]
                (artifacts / "instructions.json").write_text(json.dumps(doc))
            argv = [
                "execute", "--artifacts", str(artifacts), "--world", str(world),
                "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", str(out),
                *self.EXECUTE_FLAGS.get(case, ()),
            ]
        assert main(argv) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    def test_bench_reports_a_too_deep_domain_in_its_row(self, tmp_path):
        from planwright.data_paths import benchmarks_root

        domain = tmp_path / "domain.pddl"
        domain.write_text(nested_domain_text(3000))
        out = tmp_path / "bench"
        argv = ["bench", "--domain", str(domain), "--problems", str(benchmarks_root() / "blocksworld"), "--out-dir", str(out)]
        assert main(argv) == 0
        [row] = json.loads((out / "bench_report.json").read_text())["rows"]
        assert "too-deep" in row["error"] and row["attempted"] == 0


class TestBenchCommand:
    def test_blocksworld_twenty_of_twenty(self, tmp_path):
        from planwright.data_paths import benchmarks_root

        out = tmp_path / "bench"
        code = main([
            "bench", "--domain", str(benchmarks_root() / "blocksworld" / "domain.pddl"),
            "--problems", str(benchmarks_root() / "blocksworld"),
            "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "bench_report.json").read_text())
        row = report["rows"][0]
        assert row["solved"] == 20 and row["attempted"] == 20
        assert row["percent"] == 100.0

    def test_empty_problem_dir(self, tmp_path):
        from planwright.data_paths import benchmarks_root

        empty = tmp_path / "none"
        empty.mkdir()
        out = tmp_path / "bench"
        code = main([
            "bench", "--domain", str(benchmarks_root() / "blocksworld" / "domain.pddl"),
            "--problems", str(empty), "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "bench_report.json").read_text())
        assert report["rows"][0]["attempted"] == 0

    def test_empty_suite_reports_zero_rows(self, tmp_path):
        empty = tmp_path / "suite"
        empty.mkdir()
        out = tmp_path / "bench"
        code = main(["bench", "--suite", str(empty), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "bench_report.json").read_text())
        assert report["rows"] == []

    def test_corrupt_problem_isolated(self, tmp_path):
        from planwright.data_paths import benchmarks_root

        problems = tmp_path / "problems"
        problems.mkdir()
        src = benchmarks_root() / "blocksworld"
        for name in ("p01.pddl", "p02.pddl"):
            (problems / name).write_text((src / name).read_text())
        (problems / "p03.pddl").write_text("(define (problem broken")
        out = tmp_path / "bench"
        code = main([
            "bench", "--domain", str(src / "domain.pddl"),
            "--problems", str(problems), "--out-dir", str(out),
        ])
        assert code == 0
        report = json.loads((out / "bench_report.json").read_text())
        row = report["rows"][0]
        assert row["solved"] == 2
        statuses = {p["problem"]: p["status"] for p in row["problems"]}
        assert statuses["p03.pddl"].startswith("parse-error")

    def _bench_blocksworld(self, tmp_path) -> dict:
        from planwright.data_paths import benchmarks_root

        problems = tmp_path / "problems"
        problems.mkdir()
        src = benchmarks_root() / "blocksworld"
        for name in ("p01.pddl", "p02.pddl", "p03.pddl"):
            (problems / name).write_text((src / name).read_text())
        out = tmp_path / "bench"
        code = main([
            "bench", "--domain", str(src / "domain.pddl"),
            "--problems", str(problems), "--out-dir", str(out),
        ])
        assert code == 0
        row = json.loads((out / "bench_report.json").read_text())["rows"][0]
        assert row["attempted"] == 3
        return row

    def test_grounding_error_reported_as_grounding_error(self, tmp_path, monkeypatch):
        import planwright.cli as cli
        from planwright.planner import GroundingError

        real_ground = cli.ground

        def failing_ground(problem):
            if problem.name == "blocksworld-02":
                raise GroundingError("numeric atom (fuel) is used but uninitialized")
            return real_ground(problem)

        monkeypatch.setattr(cli, "ground", failing_ground)
        row = self._bench_blocksworld(tmp_path)
        statuses = {p["problem"]: p["status"] for p in row["problems"]}
        assert statuses["p02.pddl"] == "grounding-error: numeric atom (fuel) is used but uninitialized"
        assert row["solved"] == 2

    def test_grounding_budget_reported_per_row(self, tmp_path, monkeypatch):
        import planwright.planner.grounding as grounding

        # p01 and p02 instantiate 24 actions, p03 instantiates 40.
        monkeypatch.setattr(grounding, "GROUNDING_BUDGET", 30)
        row = self._bench_blocksworld(tmp_path)
        statuses = {p["problem"]: p["status"] for p in row["problems"]}
        assert statuses == {
            "p01.pddl": "solved",
            "p02.pddl": "solved",
            "p03.pddl": "grounding-error: grounding exceeds the budget of 30 actions",
        }
        assert row["solved"] == 2

    def test_unexpected_error_isolated_per_row(self, tmp_path, monkeypatch):
        import planwright.cli as cli

        real_solve = cli.solve

        def failing_solve(task, cfg):
            if task.problem.name == "blocksworld-02":
                raise ZeroDivisionError("division by zero")
            return real_solve(task, cfg)

        monkeypatch.setattr(cli, "solve", failing_solve)
        row = self._bench_blocksworld(tmp_path)
        statuses = {p["problem"]: p["status"] for p in row["problems"]}
        assert statuses == {"p01.pddl": "solved", "p02.pddl": "internal-error: ZeroDivisionError", "p03.pddl": "solved"}
        assert row["solved"] == 2

    @pytest.fixture(scope="class")
    def suite_rows(self, tmp_path_factory) -> dict:
        out = tmp_path_factory.mktemp("suite") / "bench"
        assert main(["bench", "--suite", str(benchmarks_root()), "--out-dir", str(out)]) == 0
        return {row["domain"]: row for row in json.loads((out / "bench_report.json").read_text())["rows"]}

    @pytest.mark.parametrize(
        "domain", ["barman", "blocksworld", "floortile", "grippers", "storage", "termes", "tyreworld"]
    )
    def test_domain_form_writes_the_suite_row(self, tmp_path, suite_rows, domain):
        """`--domain D/domain.pddl --problems D` reads its problem set as
        `--suite` reads D, so its one row equals D's suite row."""
        assert len(suite_rows) == 7
        d = benchmarks_root() / domain
        out = tmp_path / "bench"
        assert main(["bench", "--domain", str(d / "domain.pddl"), "--problems", str(d), "--out-dir", str(out)]) == 0
        assert json.loads((out / "bench_report.json").read_text())["rows"] == [suite_rows[domain]]

    def test_bench_aggregate_equals_sum_of_rows(self, tmp_path):
        from planwright.data_paths import benchmarks_root

        out = tmp_path / "bench"
        main([
            "bench", "--domain", str(benchmarks_root() / "grippers" / "domain.pddl"),
            "--problems", str(benchmarks_root() / "grippers"),
            "--out-dir", str(out), "--repeat", "2",
        ])
        report = json.loads((out / "bench_report.json").read_text())
        row = report["rows"][0]
        assert row["attempted"] == 40
        assert row["solved"] == sum(1 for p in row["problems"] if p["status"] == "solved")


class TestConfigFile:
    def test_config_file_fills_defaults_flags_override(self, tmp_path):
        d = scenario_dir("color")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mode": "replay",
            "fixture": str(d / "fixture.json"),
            "answers-file": str(d / "answers.json"),
            "heuristic": "h_add",
        }))
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(out),
            "--config", str(config), "--heuristic", "blind",
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["heuristic"] == "blind"  # flag beat the file
        assert manifest["config"]["mode"] == "replay"

    def test_config_values_do_not_outlive_their_run(self, tmp_path):
        """Every `main` call in a process shares one parser, so a config
        file's values must not become the defaults of the next run."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"node_budget": 7}))
        with_config, without = tmp_path / "with", tmp_path / "without"
        main(plan_args("color", with_config, config=config))
        assert main(plan_args("color", without)) == 0
        budgets = [json.loads((out / "manifest.json").read_text())["config"]["node_budget"] for out in (with_config, without)]
        assert budgets == [7, 1_000_000]

    def test_config_run_leaves_every_default_as_it_was(self, tmp_path):
        """The file's values go into the run's namespace, never onto the
        parsers that every `main` call in the process shares."""
        def defaults():
            return {(command, a.dest): a.default for command, p in build_parser()[1].items() for a in p._actions}

        before = defaults()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"node-budget": 7, "heuristic": "h_add", "temperature": 1, "model": "m"}))
        out = tmp_path / "run"
        assert main(plan_args("color", out, config=config)) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert [snapshot[k] for k in ("node_budget", "heuristic", "temperature", "model")] == [7, "h_add", 1.0, "m"]
        assert defaults() == before

    @pytest.mark.parametrize("spelling", [["--conf", "{}"], ["--conf={}"]])
    def test_abbreviated_config_flag_applies_the_file(self, tmp_path, spelling):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"node_budget": 1}))
        out = tmp_path / "run"
        assert main(plan_args("color", out) + [s.format(config) for s in spelling]) == 2
        assert json.loads((out / "outcome.json").read_text())["status"] == "budget-exhausted"
        assert json.loads((out / "manifest.json").read_text())["config"]["node_budget"] == 1

    def test_bench_takes_no_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"repeat": 2}))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--suite", str(tmp_path), "--out-dir", str(out), "--config", str(config)])
        assert exit_info.value.code == 64
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "usage"
        assert not out.exists()

    @staticmethod
    def assert_config_error_recorded(out: Path, message: str) -> None:
        """A --config error leaves the run directory every other config error leaves."""
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": message}
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["command"], manifest["exit_code"], manifest["files"]) == ("plan", 64, ["failure.json"])

    def test_unknown_config_key_is_config_error(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"warp-speed": 11}))
        d = scenario_dir("color")
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(out),
            "--config", str(config), "--mode", "replay", "--fixture", str(d / "fixture.json"),
        ])
        assert code == 64
        self.assert_config_error_recorded(out, "unknown config key 'warp-speed'")

    def test_unreadable_config_file_is_config_error(self, tmp_path):
        d = scenario_dir("color")
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(out),
            "--config", str(tmp_path / "missing.json"), "--mode", "replay", "--fixture", str(d / "fixture.json"),
        ])
        assert code == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure["message"].startswith(f"cannot read config file {tmp_path / 'missing.json'}")
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"node-budget": [1]}, "'node-budget' must be int, got list"),
            ({"node_budget": "5"}, "'node_budget' must be int, got str"),
            ({"critic-iterations": True}, "'critic-iterations' must be int, got bool"),
            ({"temperature": "0.5"}, "'temperature' must be float, got str"),
            ({"heuristic": "h_max"}, "'heuristic' must be one of blind, h_add, got 'h_max'"),
        ],
    )
    def test_wrong_typed_config_value_is_config_error(self, tmp_path, capsys, entry, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        d = scenario_dir("color")
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(out),
            "--config", str(config), "--mode", "replay", "--fixture", str(d / "fixture.json"),
        ])
        assert code == 64
        failure = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (failure["code"], failure["message"]) == ("config-error", f"config key {message}")
        self.assert_config_error_recorded(out, f"config key {message}")

    def test_numeric_config_values_are_converted_like_flags(self, tmp_path):
        d = scenario_dir("color")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"temperature": 0, "node-budget": 50_000}))
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(out), "--config", str(config),
            "--mode", "replay", "--fixture", str(d / "fixture.json"), "--answers-file", str(d / "answers.json"),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["temperature"] == 0.0 and isinstance(manifest["config"]["temperature"], float)

    def test_non_object_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[]")
        d = scenario_dir("color")
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(tmp_path / "run"),
            "--config", str(config), "--mode", "replay", "--fixture", str(d / "fixture.json"),
        ])
        assert code == 64
        assert "expected object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_nan_time_budget_is_config_error(self, tmp_path, command):
        from planwright.data_paths import benchmarks_root

        out = tmp_path / "run"
        if command == "plan":
            argv = plan_args("color", out, time_budget="nan")
        else:
            blocksworld = benchmarks_root() / "blocksworld"
            argv = [
                "bench", "--domain", str(blocksworld / "domain.pddl"), "--problems", str(blocksworld),
                "--out-dir", str(out), "--time-budget", "nan",
            ]
        assert main(argv) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": "budgets must be positive"}
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("tau", 1.5, "critic threshold must lie in [0, 1]"),
            ("correction_limit", 0, "limits must be >= 1"),
            ("critic_iterations", 0, "limits must be >= 1"),
        ],
    )
    def test_bad_agent_limit_is_config_error(self, tmp_path, flag, value, message):
        out = tmp_path / "run"
        assert main(plan_args("color", out, **{flag: value})) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": message}
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    def test_bad_temperature_is_config_error(self, tmp_path):
        d = scenario_dir("color")
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(tmp_path / "run"),
            "--mode", "replay", "--fixture", str(d / "fixture.json"),
            "--temperature", "3.5",
        ])
        assert code == 64


class TestExitPaths:
    """Every exit leaves its record, wherever the run stops."""

    def test_out_dir_that_is_a_file_is_config_error_on_stderr(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        assert main(plan_args("color", blocker)) == 64
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert (record["stage"], record["code"]) == ("config", "config-error")
        assert record["message"].startswith(f"cannot create run directory {blocker}")
        assert blocker.read_text() == "not a directory"

    def test_unreadable_suite_is_config_error(self, tmp_path, monkeypatch):
        suite = tmp_path / "suite"
        suite.mkdir()
        listdir = Path.iterdir

        def iterdir(self):
            if self == suite:
                raise PermissionError(13, "Permission denied", str(self))
            return listdir(self)

        monkeypatch.setattr(Path, "iterdir", iterdir)
        out = tmp_path / "bench"
        assert main(["bench", "--suite", str(suite), "--out-dir", str(out)]) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        assert "Permission denied" in failure["message"]
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64

    def test_record_mode_saves_transcript_on_internal_error(self, tmp_path, monkeypatch):
        from planwright.gateway import ChatRequest, system, user

        monkeypatch.setattr("planwright.cli.LiveBackend", lambda **kwargs: ScriptedBackend([assistant("hello")]))
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")

        def failing_pipeline(task, config, gateway, **kwargs):
            gateway.chat(ChatRequest(messages=(system("s"), user("u"))))
            raise RuntimeError("pipeline blew up")

        monkeypatch.setattr("planwright.cli.run_pipeline", failing_pipeline)
        d = scenario_dir("color")
        fixture = tmp_path / "recorded.json"
        out = tmp_path / "run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", "record", "--model", "gpt-test",
            "--fixture", str(fixture), "--out-dir", str(out),
        ])
        assert code == 70
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "internal", "code": "RuntimeError", "message": "pipeline blew up"}
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 70
        assert [e.response.content for e in Transcript.load(fixture).exchanges] == ["hello"]

    @pytest.mark.parametrize(
        "backend, stage, code, message",
        [
            ("http", "gateway", "BackendError", "chat backend unreachable: timed out"),
            ("exhausted", "gateway", "fixture-divergence", "script exhausted after 0 responses"),
        ],
    )
    def test_backend_failure_is_stage_gateway(self, tmp_path, monkeypatch, backend, stage, code, message):
        """A live backend that fails is the gateway's failure, exit 70; a
        script that runs out (a `BackendError` too) stays a fixture divergence."""
        import urllib.request

        def timeout(request, timeout):
            raise TimeoutError("timed out")

        monkeypatch.setattr(urllib.request, "urlopen", timeout)
        if backend == "exhausted":
            monkeypatch.setattr("planwright.cli.LiveBackend", lambda **kwargs: ScriptedBackend([]))
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        out = tmp_path / "run"
        d = scenario_dir("color")
        assert main(["plan", "--task", str(d / "task.json"), "--mode", "live", "--model", "m", "--out-dir", str(out)]) == 70
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": stage, "code": code, "message": message}
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 70

    @pytest.mark.parametrize("scenario, blocked", [("color", "manifest.json"), ("always_failing", "failure.json")])
    def test_record_that_cannot_be_written_goes_to_stderr(self, tmp_path, capsys, scenario, blocked):
        """A run directory that cannot take the run's own record (here a
        directory stands where the file goes) is an output failure, exit 70,
        with the record on stderr; the run's earlier failure is named in it."""
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        assert main(plan_args(scenario, out)) == 70
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert (record["stage"], record["code"]) == ("output", "IsADirectoryError")
        assert record["message"].startswith("cannot write the run record: ")
        assert ("the run had failed first, stage pipeline" in record["message"]) == (scenario == "always_failing")
        assert not (out / "manifest.json").is_file()


class TestRecordThenReplay:
    @staticmethod
    def record_then_replay(tmp_path, monkeypatch, responses, *flags) -> tuple[Path, list[dict]]:
        """Record the color scenario with `--mode record` against a stubbed
        live backend serving ``responses``, replay the fixture, and require
        the replay to reproduce the run byte for byte, exit status included.
        Returns the recorded run and the keyword arguments of each backend built."""
        built: list[dict] = []

        def live_backend(**kwargs):
            built.append(kwargs)
            return ScriptedBackend(list(responses))

        monkeypatch.setattr("planwright.cli.LiveBackend", live_backend)
        monkeypatch.setenv("PLANWRIGHT_API_KEY", "test-key")
        d = scenario_dir("color")
        fixture = tmp_path / "recorded.json"
        common = ["plan", "--task", str(d / "task.json"), "--answers-file", str(d / "answers.json"), *flags]
        recorded_run = tmp_path / "recorded-run"
        code = main([*common, "--mode", "record", "--fixture", str(fixture), "--out-dir", str(recorded_run)])
        assert code == 0
        assert fixture.exists()

        replayed_run = tmp_path / "replayed-run"
        replay_code = main([*common, "--mode", "replay", "--fixture", str(fixture), "--out-dir", str(replayed_run)])
        assert replay_code == code
        recorded = normalized_tree(recorded_run)
        replayed = normalized_tree(replayed_run)
        # the manifest config legitimately differs in mode; blank it out
        for tree in (recorded, replayed):
            manifest = json.loads(tree["manifest.json"])
            manifest["config"].pop("mode", None)
            tree["manifest.json"] = json.dumps(manifest, sort_keys=True)
        assert recorded == replayed
        return recorded_run, built

    def test_cli_record_then_replay_reproduces_artifacts(self, tmp_path, monkeypatch):
        from scenarios import color_scenario

        _, built = self.record_then_replay(
            tmp_path, monkeypatch, color_scenario().responses, "--model", "gpt-test", "--temperature", "0.3"
        )
        assert [(kw["model"], kw["temperature"]) for kw in built] == [("gpt-test", 0.3)]

    def test_llm_translation_recorded_and_replayed(self, tmp_path, monkeypatch):
        """`--translate llm` sends the plan to the translator, which gets one
        retry after an answer with the wrong instruction count."""
        from scenarios import color_scenario

        texts = ["Pick up the red block b1.", "Put b1 on top of b2."]
        responses = [
            *color_scenario().responses,
            assistant(json.dumps({"instructions": texts[:1]})),
            assistant(json.dumps({"instructions": texts})),
        ]
        run, _ = self.record_then_replay(tmp_path, monkeypatch, responses, "--translate", "llm", "--model", "gpt-test")
        instructions = json.loads((run / "instructions.json").read_text())["instructions"]
        assert [(i["text"], i["step"]["name"]) for i in instructions] == [(texts[0], "pick-up"), (texts[1], "stack")]


    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_live_model_required(self, tmp_path, monkeypatch, mode):
        """The `--model` default is a placeholder that no endpoint knows, so
        a run that would reach one without `--model` stops before it."""
        built = []
        monkeypatch.setattr("planwright.cli.LiveBackend", lambda **kwargs: built.append(kwargs))
        d = scenario_dir("color")
        out = tmp_path / "run"
        fixture = tmp_path / "recorded.json"
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", mode, "--fixture", str(fixture), "--out-dir", str(out),
        ])
        assert code == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": f"{mode} mode requires --model"}
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64
        assert built == [] and not fixture.exists()

    @pytest.mark.parametrize(
        "variable, key", [("PLANWRIGHT_API_KEY", None), ("MY_KEY", None), ("MY_KEY", "")], ids=["default-unset", "unset", "empty"]
    )
    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_live_api_key_required(self, tmp_path, monkeypatch, mode, variable, key):
        """A run that would reach the endpoint without a key in the
        `--api-key-env` variable is a configuration error, found before any
        backend is built."""
        built = []
        monkeypatch.setattr("planwright.cli.LiveBackend", lambda **kwargs: built.append(kwargs))
        if key is None:
            monkeypatch.delenv(variable, raising=False)
        else:
            monkeypatch.setenv(variable, key)
        key_flag = [] if variable == "PLANWRIGHT_API_KEY" else ["--api-key-env", variable]
        d = scenario_dir("color")
        out = tmp_path / "run"
        fixture = tmp_path / "recorded.json"
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", mode, "--model", "m", *key_flag,
            "--fixture", str(fixture), "--out-dir", str(out),
        ])
        assert code == 64
        failure = json.loads((out / "failure.json").read_text())
        assert failure == {"stage": "config", "code": "config-error", "message": f"{mode} mode requires an API key in ${variable}"}
        assert built == [] and not fixture.exists()


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ["color", "size_tower", "fridge_store", "fridge_recall", "always_failing"])
    def test_replay_twice_byte_identical(self, tmp_path, scenario):
        first = tmp_path / "first"
        second = tmp_path / "second"
        code_a = main(plan_args(scenario, first))
        code_b = main(plan_args(scenario, second))
        assert code_a == code_b
        assert normalized_tree(first) == normalized_tree(second)

    def test_replay_ignores_sampling_flags(self, tmp_path):
        """Model id and temperature reach only the live backend, so a replay
        with other values writes the same content; only the manifest config,
        which records the flags, differs."""
        default, other = tmp_path / "default", tmp_path / "other"
        assert main(plan_args("color", default)) == 0
        assert main(plan_args("color", other, model="other", temperature=0.7)) == 0
        trees = [normalized_tree(default), normalized_tree(other)]
        manifests = [json.loads(tree.pop("manifest.json")) for tree in trees]
        assert trees[0] == trees[1]
        configs = [manifest.pop("config") for manifest in manifests]
        assert manifests[0] == manifests[1]
        assert {k: v for k, v in configs[1].items() if configs[0][k] != v} == {"model": "other", "temperature": 0.7}

    def test_replay_identical_across_fresh_interpreters(self, tmp_path):
        """Two separate Python processes (distinct hash seeds) must produce
        the same run directory."""
        import subprocess
        import sys

        import planwright

        # The child imports the very package under test, installed or not,
        # and writes no bytecode into it.
        package_root = str(Path(planwright.__file__).resolve().parents[1])
        for leg, seed in (("a", "101"), ("b", "202")):
            out = tmp_path / leg
            argv = plan_args("color", out)
            proc = subprocess.run(
                [sys.executable, "-B", "-m", "planwright.cli", *argv],
                capture_output=True,
                text=True,
                env={
                    "PYTHONHASHSEED": seed,
                    "PATH": "/usr/bin:/bin",
                    "PYTHONPATH": package_root,
                },
            )
            assert proc.returncode == 0, proc.stderr
        assert normalized_tree(tmp_path / "a") == normalized_tree(tmp_path / "b")


class TestReplayEncoding:
    def test_each_domain_is_encoded_once_per_round(self, tmp_path, monkeypatch):
        """One replay round of the shipped scenarios, with the benchmark's
        arguments, turns each distinct `DomainModel` into JSON once: every
        prompt and run-directory file after the first reuses its text."""
        from test_replay_golden import replay_round

        encoded = []  # keeps every model alive, so no id is reused
        json_items = DomainModel.json_items

        def counting(domain):
            encoded.append(domain)
            return json_items(domain)

        monkeypatch.setattr(DomainModel, "json_items", counting)
        replay_round(tmp_path / "round")
        assert len(encoded) == len({id(domain) for domain in encoded}) == 7

    def test_each_domain_is_checked_once_per_round(self, tmp_path, monkeypatch):
        """One replay round checks the domain-level invariants of each
        distinct `DomainModel` once, and every later `validate_domain` or
        `validate` call reports them, byte for byte, as a fresh check would."""
        import importlib

        from test_replay_golden import replay_round

        # The module, not the function that planwright.ir exports under its name.
        validation = importlib.import_module("planwright.ir.validate")

        checked = []  # keeps every model alive, so no id is reused
        reports = []
        check_domain, domain_report = validation._check_domain, validation._domain_report

        def counting_check(domain, type_names, out):
            checked.append(domain)
            check_domain(domain, type_names, out)

        def recording_report(domain):
            report = domain_report(domain)
            reports.append((domain, report))
            return report

        monkeypatch.setattr(validation, "_check_domain", counting_check)
        monkeypatch.setattr(validation, "_domain_report", recording_report)
        replay_round(tmp_path / "round")
        assert len(checked) == len({id(domain) for domain in checked}) == 7
        assert len(reports) == 18
        for domain, report in reports:
            fresh: list = []
            check_domain(domain, validation._type_names(domain), fresh)
            assert [repr(v) for v in report] == [repr(v) for v in fresh]


class TestImports:
    def test_cli_import_does_not_load_http_stack(self):
        """Only live mode talks HTTP, so importing the CLI leaves urllib.request unloaded."""
        proc = run_python("import sys, planwright.cli; print('urllib.request' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_does_not_load_openssl(self):
        """Only the fingerprint and the bag-of-words embedder take a digest,
        so importing the CLI loads neither ``hashlib`` nor OpenSSL's ``_hashlib``."""
        proc = run_python("import sys, planwright.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, loads_openssl", [("bench", False), ("plan", True)])
    def test_only_the_llm_half_loads_openssl(self, tmp_path, command, loads_openssl):
        """A bench run never hashes, so it never loads ``_hashlib``; a replay
        fingerprints every request, so it does (the control that the probe
        sees the module at all)."""
        if command == "bench":
            d = benchmarks_root() / "blocksworld"
            argv = ["bench", "--domain", str(d / "domain.pddl"), "--problems", str(d), "--out-dir", str(tmp_path / "run")]
        else:
            argv = plan_args("color", tmp_path / "run")
        proc = run_python(f"import sys; from planwright.cli import main; print(main({argv!r}), '_hashlib' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"0 {loads_openssl}"

    def test_cli_import_creates_no_dataclasses(self):
        """The value types are built on ``planwright.values``, whose methods
        sit in the bytecode cache, so importing the CLI loads neither
        ``dataclasses`` nor the ``inspect`` module it imports, and no module of
        the package imports ``dataclasses``."""
        import ast

        import planwright

        proc = run_python("import sys, planwright.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        imported = set()
        for path in Path(planwright.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update((path.name, alias.name) for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    imported.add((path.name, node.module))
        assert [name for name, module in imported if module == "dataclasses"] == []

    def test_only_jsonio_parses_json(self):
        """Every JSON text from outside the program goes through
        `jsonio.loads`, which refuses a document nested too deep to parse: no
        other module of the package calls ``json.loads`` or ``json.load``."""
        import ast

        import planwright

        root = Path(planwright.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "json":
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom) and node.module == "json":
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if {"load", "loads"} & set(names):
                    offenders.append(f"{path.relative_to(root)}:{node.lineno}")
        assert [o for o in offenders if not o.startswith("ir/jsonio.py:")] == []
        assert offenders  # the check sees jsonio's own call

    def test_cli_reaches_every_runtime_module(self):
        """Importing the CLI loads every module of the package except one that
        no entry point needs: ``bench/workloads.py``, the scripts and the tests
        import ``domains`` (problem builders). Any other module the CLI leaves
        unloaded is unreachable."""
        import textwrap

        probe = textwrap.dedent(
            """
            import json, sys
            from pathlib import Path
            import planwright.cli
            root = Path(planwright.cli.__file__).parent
            names = set()
            for path in root.rglob("*.py"):
                parts = ("planwright",) + path.relative_to(root).with_suffix("").parts
                names.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
            print(json.dumps(sorted(names - set(sys.modules))))
            """
        )
        proc = run_python(probe)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["planwright.domains"]


class TestSolverNames:
    def test_choices_are_the_solver_tables(self):
        """`plan` and `bench` offer exactly the planner's names, in its order."""
        from planwright.planner.search import HEURISTICS, STRATEGIES

        assert (STRATEGIES, tuple(HEURISTICS)) == (("astar", "greedy"), ("blind", "h_add"))
        for command in ("plan", "bench"):
            actions = {a.dest: a for a in build_parser()[1][command]._actions}
            assert (actions["strategy"].choices, tuple(actions["heuristic"].choices)) == (STRATEGIES, tuple(HEURISTICS))

    def test_solve_config_accepts_exactly_the_table_names(self):
        from planwright.planner import SolveConfig, ground, solve
        from planwright.planner.search import HEURISTICS, STRATEGIES
        from planwright.pddl import parse_domain, parse_problem

        d = benchmarks_root() / "blocksworld"
        domain = parse_domain((d / "domain.pddl").read_text())
        task = ground(parse_problem((d / "p01.pddl").read_text(), domain))
        for strategy in STRATEGIES:
            for heuristic in HEURISTICS:
                assert solve(task, SolveConfig(strategy, heuristic)).status == "plan"
        # Other names of the heuristics module are no heuristic names.
        for name in ("", "Blind", "h_max", "h_max_cost", "INF", "lmcut"):
            with pytest.raises(ValueError, match="unknown heuristic"):
                SolveConfig(heuristic=name)
        for name in ("", "bfs", "Astar"):
            with pytest.raises(ValueError, match="unknown strategy"):
                SolveConfig(strategy=name)
