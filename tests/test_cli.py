from __future__ import annotations

import json
from pathlib import Path

import pytest

from planwright.cli import main
from planwright.data_paths import scenario_dir
from planwright.domains import blocksworld_domain
from planwright.gateway import Gateway, ScriptedBackend, Transcript, assistant
from planwright.ir import jsonio
from planwright.pddl import emit_domain
from planwright.runs import normalized_tree
from planwright.textworld import check_goal, state_from_json
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

    def test_always_failing_scenario_exits_one(self, tmp_path):
        out = tmp_path / "run"
        code = main(plan_args("always_failing", out))
        assert code == 1
        record = json.loads((out / "pipeline_result.json").read_text())
        assert record["status"] == "correction-limit-reached"

    def test_size_tower_scenario(self, tmp_path):
        out = tmp_path / "run"
        assert main(plan_args("size_tower", out)) == 0
        text = (out / "domain.pddl").read_text()
        assert "(:functions (size ?b))" in text
        assert "(< (size ?b1) (size ?b2))" in text


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
        final = state_from_json(json.loads((out / "world_final.json").read_text()))
        problem = jsonio.problem_from_json(json.loads((artifacts / "problem.json").read_text()))
        assert check_goal(final, problem.goal)

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
        from planwright.textworld import load_world
        from planwright.worldenv import TextWorldEnv

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
        (artifacts / "problem.json").write_text(json.dumps(jsonio.problem_to_json(trivial)))
        (artifacts / "instructions.json").write_text(json.dumps({"instructions": []}))
        responses = [assistant(json.dumps({"decision": "goal-met"}))]
        recording = Transcript()
        gw = Gateway(ScriptedBackend(responses), recording=recording)
        from planwright.abstraction import InstructionList
        from planwright.executor import run_execution
        from planwright.textworld import kitchen_fixture
        from planwright.worldenv import TextWorldEnv

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


class TestMalformedInputFiles:
    PLAN_INPUTS = {
        "task-list": ("task", "[]"),
        "fixture-list": ("fixture", "[]"),
        "memory-entry-without-summary": ("memory_store", '{"version": 1}\n{"embedding": [1]}\n'),
    }

    @pytest.mark.parametrize(
        "case", [*PLAN_INPUTS, "instruction-without-index", "world-list"]
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
            world = bad if case == "world-list" else d / "world.json"
            if case == "instruction-without-index":
                doc = json.loads((artifacts / "instructions.json").read_text())
                del doc["instructions"][0]["index"]
                (artifacts / "instructions.json").write_text(json.dumps(doc))
            argv = [
                "execute", "--artifacts", str(artifacts), "--world", str(world),
                "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", str(out),
            ]
        assert main(argv) == 64
        failure = json.loads((out / "failure.json").read_text())
        assert (failure["stage"], failure["code"]) == ("config", "config-error")
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 64


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

    def test_bad_temperature_is_config_error(self, tmp_path):
        d = scenario_dir("color")
        code = main([
            "plan", "--task", str(d / "task.json"), "--out-dir", str(tmp_path / "run"),
            "--mode", "replay", "--fixture", str(d / "fixture.json"),
            "--temperature", "3.5",
        ])
        assert code == 64


class TestRecordThenReplay:
    def test_cli_record_then_replay_reproduces_artifacts(self, tmp_path, monkeypatch):
        """`--mode record` against a (stubbed) live backend writes a fixture
        whose replay reproduces the run byte for byte, exit status included."""
        from scenarios import color_scenario

        scenario = color_scenario()
        monkeypatch.setattr(
            "planwright.cli.LiveBackend",
            lambda **kwargs: ScriptedBackend(list(scenario.responses)),
        )
        d = scenario_dir("color")
        fixture = tmp_path / "recorded.json"
        recorded_run = tmp_path / "recorded-run"
        code = main([
            "plan", "--task", str(d / "task.json"), "--mode", "record",
            "--fixture", str(fixture), "--answers-file", str(d / "answers.json"),
            "--out-dir", str(recorded_run),
        ])
        assert code == 0
        assert fixture.exists()

        replayed_run = tmp_path / "replayed-run"
        replay_code = main([
            "plan", "--task", str(d / "task.json"), "--mode", "replay",
            "--fixture", str(fixture), "--answers-file", str(d / "answers.json"),
            "--out-dir", str(replayed_run),
        ])
        assert replay_code == code
        recorded = normalized_tree(recorded_run)
        replayed = normalized_tree(replayed_run)
        # the manifest config legitimately differs in mode; blank it out
        for tree in (recorded, replayed):
            manifest = json.loads(tree["manifest.json"])
            manifest["config"].pop("mode", None)
            tree["manifest.json"] = json.dumps(manifest, sort_keys=True)
        assert recorded == replayed


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ["color", "size_tower", "fridge_store", "fridge_recall", "always_failing"])
    def test_replay_twice_byte_identical(self, tmp_path, scenario):
        first = tmp_path / "first"
        second = tmp_path / "second"
        code_a = main(plan_args(scenario, first))
        code_b = main(plan_args(scenario, second))
        assert code_a == code_b
        assert normalized_tree(first) == normalized_tree(second)

    def test_replay_identical_across_fresh_interpreters(self, tmp_path):
        """Two separate Python processes (distinct hash seeds) must produce
        the same run directory."""
        import subprocess
        import sys

        import planwright

        # The child imports the very package under test, installed or not.
        package_root = str(Path(planwright.__file__).resolve().parents[1])
        for leg, seed in (("a", "101"), ("b", "202")):
            out = tmp_path / leg
            argv = plan_args("color", out)
            proc = subprocess.run(
                [sys.executable, "-m", "planwright.cli", *argv],
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


class TestImports:
    def test_cli_import_does_not_load_http_stack(self):
        """Only live mode talks HTTP, so importing the CLI leaves urllib.request unloaded."""
        import subprocess
        import sys

        import planwright

        package_root = str(Path(planwright.__file__).resolve().parents[1])
        probe = "import sys, planwright.cli; print('urllib.request' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_reaches_every_runtime_module(self):
        """Importing the CLI loads every module of the package except two that
        no entry point needs: ``bench/workloads.py``, the scripts and the tests
        import ``domains`` (problem builders) and ``data_paths`` (bundled file
        locations). Any other module the CLI leaves unloaded is unreachable."""
        import subprocess
        import sys
        import textwrap

        import planwright

        package_root = str(Path(planwright.__file__).resolve().parents[1])
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
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["planwright.data_paths", "planwright.domains"]
