"""Command-line interface: plan, execute, and bench.

Exit codes are scripting-stable:
  0   success
  1   task failure (pipeline incomplete or grounding failure)
  2   no plan (unsolvable or search budget exhausted)
  3   execution aborted by the validator
  64  configuration error, including a malformed input file (task,
      config, fixture, instructions, problem or world JSON)
  65  interaction failure (user answers unavailable/exhausted)
  70  internal error
Every nonzero path leaves a machine-readable failure record in the run
directory (or on stderr when no run directory exists yet).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import __version__
from .abstraction import InstructionList, translate_plan
from .agents import (
    PipelineConfig,
    AgentConfig,
    RefusingUserChannel,
    ScriptedUserChannel,
    TaskSpec,
    TerminalUserChannel,
    run_pipeline,
)
from .executor import run_execution
from .gateway import (
    FingerprintMismatch,
    Gateway,
    LiveBackend,
    ScriptExhausted,
    Transcript,
    replay_gateway,
)
from .ir import jsonio, validate
from .memory import ProceduralStore
from .pddl import PddlError, emit_domain, emit_expression, emit_problem, parse_domain, parse_problem, render_plan
from .planner import GroundingError, Invalid, SolveConfig, ground, solve, validate_plan
from .runs import RunDirectory
from .textworld import load_world
from .worldenv import TextWorldEnv

EX_OK = 0
EX_TASK_FAILED = 1
EX_UNSOLVABLE = 2
EX_EXEC_ABORT = 3
EX_CONFIG = 64
EX_INTERACTION = 65
EX_INTERNAL = 70

MODES = ("live", "record", "replay")

# Procedural-memory timestamps in replay mode, so a replayed run writes the
# same memory.jsonl bytes as the recorded fixture.
FIXED_CLOCK = 0.0


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64, not argparse's default 2
        sys.stderr.write(json.dumps({"stage": "config", "code": "usage", "message": message}) + "\n")
        raise SystemExit(EX_CONFIG)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="planwright", description="Adaptive task planning pipeline.")
    parser.add_argument("--version", action="version", version=f"planwright {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=MODES, default="replay")
        p.add_argument("--fixture", help="transcript fixture path (required for record/replay)")
        p.add_argument("--model", default="default")
        p.add_argument("--temperature", type=float, default=0.0)
        p.add_argument("--out-dir", required=True, help="run directory for artifacts")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--api-base", default="https://api.openai.com/v1")
        p.add_argument("--api-key-env", default="PLANWRIGHT_API_KEY")

    plan = sub.add_parser("plan", help="generate a problem, solve it, translate the plan")
    common(plan)
    plan.add_argument("--task", required=True, help="task JSON file (descriptions of domain/init/goal)")
    plan.add_argument("--domain", help="provide a PDDL domain and bypass domain generation")
    plan.add_argument("--answers-file", help="JSON list of scripted user answers")
    plan.add_argument("--memory-store", help="procedural memory JSONL path")
    plan.add_argument("--tau", type=float, default=0.8)
    plan.add_argument("--correction-limit", type=int, default=10)
    plan.add_argument("--critic-iterations", type=int, default=3)
    plan.add_argument("--strategy", choices=("astar", "greedy"), default="astar")
    plan.add_argument("--heuristic", choices=("blind", "h_add"), default="blind")
    plan.add_argument("--node-budget", type=int, default=1_000_000)
    plan.add_argument("--time-budget", type=float, default=60.0)
    plan.add_argument("--translate", choices=("fallback", "llm"), default="fallback")

    execute = sub.add_parser("execute", help="execute translated instructions in the text world")
    common(execute)
    execute.add_argument("--artifacts", required=True, help="run directory produced by `plan`")
    execute.add_argument("--world", required=True, help="world fixture JSON")
    execute.add_argument("--step-budget", type=int, default=6)
    execute.add_argument("--retry-budget", type=int, default=2)

    bench = sub.add_parser("bench", help="solve a problem set against a provided domain")
    bench.add_argument("--out-dir", required=True)
    bench.add_argument("--suite", help="directory of <name>/domain.pddl + <name>/*.pddl problem files")
    bench.add_argument("--domain", help="single domain PDDL file")
    bench.add_argument("--problems", help="directory of problem PDDL files for --domain")
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument("--strategy", choices=("astar", "greedy"), default="astar")
    bench.add_argument("--heuristic", choices=("blind", "h_add"), default="blind")
    bench.add_argument("--node-budget", type=int, default=1_000_000)
    bench.add_argument("--time-budget", type=float, default=60.0)

    subparsers.update(plan=plan, execute=execute, bench=bench)
    return parser, subparsers


def _preload_config(argv: list[str], subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Install config-file values as subparser defaults before parsing, so
    explicitly passed flags always win over the file."""
    config_path: Optional[str] = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    command = next((t for t in argv if t in subparsers), None)
    if config_path is None or command is None:
        return
    try:
        data = jsonio.read_object(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, jsonio.IRDecodeError) as exc:
        raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
    target = subparsers[command]
    actions = {a.dest: a for a in target._actions}
    overrides = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        overrides[attr] = _config_value(key, value, actions[attr])
    target.set_defaults(**overrides)


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked against its flag's type and choices.

    argparse converts only string defaults, so a value of the wrong JSON
    type would otherwise reach the command unconverted. Strings are not
    parsed as numbers: a number must be a JSON number.
    """
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
    return kind(value)


def _gateway_for(args) -> tuple[Gateway, Optional[Transcript], Optional[Path]]:
    """Build the gateway for the requested mode.

    Returns (gateway, recording transcript or None, fixture path to save)."""
    mode = args.mode
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if mode in ("record", "replay") and not args.fixture:
        raise ConfigError(f"{mode} mode requires --fixture")
    if not 0.0 <= args.temperature <= 2.0:
        raise ConfigError(f"temperature {args.temperature} outside [0, 2]")
    if mode == "replay":
        try:
            transcript = Transcript.load(args.fixture)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load fixture {args.fixture}: {exc}") from exc
        return replay_gateway(transcript), None, None
    backend = LiveBackend(base_url=args.api_base, model=args.model, api_key_env=args.api_key_env)
    if mode == "record":
        recording = Transcript()
        return Gateway(backend, recording=recording), recording, Path(args.fixture)
    return Gateway(backend), None, None


def _user_channel(args):
    answers = getattr(args, "answers_file", None)
    if answers:
        try:
            data = json.loads(Path(answers).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read answers file {answers}: {exc}") from exc
        if not isinstance(data, list):
            raise ConfigError("answers file must hold a JSON list of strings")
        return ScriptedUserChannel([str(a) for a in data])
    if args.mode == "live":
        return TerminalUserChannel()
    return RefusingUserChannel()


def _config_snapshot(args, run: RunDirectory) -> dict:
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in ("command", "config"):
            continue
        if isinstance(value, str) and key in ("out_dir", "memory_store", "fixture", "task", "domain", "answers_file", "artifacts", "world", "problems", "suite"):
            value = run.relative_to_run(value)
        out[key] = value
    return out


# ----------------------------------------------------------------- plan


def cmd_plan(args) -> int:
    run = RunDirectory(args.out_dir, "plan", {})
    run.config_snapshot = _config_snapshot(args, run)
    try:
        task = TaskSpec.from_json(jsonio.read_object(Path(args.task).read_text(encoding="utf-8")))
        gateway, recording, fixture_out = _gateway_for(args)
        channel = _user_channel(args)
        provided_domain = None
        if args.domain:
            provided_domain = parse_domain(Path(args.domain).read_text(encoding="utf-8"), filename=args.domain)
        memory = None
        if args.memory_store:
            clock = (lambda: FIXED_CLOCK) if args.mode == "replay" else time.time
            memory = ProceduralStore(args.memory_store, clock=clock)
        solve_cfg = SolveConfig(args.strategy, args.heuristic, args.node_budget, args.time_budget)
        pipeline_config = PipelineConfig(
            domain=AgentConfig("domain", correction_limit=args.correction_limit, critic_threshold=args.tau, critic_iterations=args.critic_iterations),
            initial_state=AgentConfig("initial-state", correction_limit=args.correction_limit, critic_threshold=args.tau, critic_iterations=args.critic_iterations),
            goal=AgentConfig("goal", correction_limit=args.correction_limit, critic_threshold=args.tau, critic_iterations=args.critic_iterations),
            model=args.model,
            temperature=args.temperature,
        )
    except (ConfigError, PddlError, OSError, ValueError) as exc:
        run.fail("config", "config-error", str(exc))
        run.finalize(EX_CONFIG)
        return EX_CONFIG

    try:
        run.start("pipeline")
        result = run_pipeline(task, pipeline_config, gateway, memory=memory, user_channel=channel, provided_domain=provided_domain)
        run.stop("pipeline")
        run.write_json("pipeline_result.json", result.to_json())

        if result.status != "complete":
            code = EX_INTERACTION if result.failure_kind == "interaction" else EX_TASK_FAILED
            run.fail("pipeline", result.failure_kind or result.status, result.error)
            _save_fixture(recording, fixture_out)
            run.finalize(code)
            return code

        problem = result.problem
        run.write_text("domain.pddl", emit_domain(problem.domain))
        run.write_text("problem.pddl", emit_problem(problem))
        run.write_json("problem.json", jsonio.problem_to_json(problem))

        run.start("solve")
        try:
            task_ground = ground(problem)
        except GroundingError as exc:
            run.fail("solve", "grounding-error", str(exc))
            _save_fixture(recording, fixture_out)
            run.finalize(EX_TASK_FAILED)
            return EX_TASK_FAILED
        outcome = solve(task_ground, solve_cfg)
        run.stop("solve")
        run.add_timing("solve_wall", outcome.wall_time)
        run.write_json("outcome.json", outcome.to_json())

        if outcome.status != "plan":
            run.fail("solve", outcome.status, f"no plan for goal {emit_expression(problem.goal)}")
            _save_fixture(recording, fixture_out)
            run.finalize(EX_UNSOLVABLE)
            return EX_UNSOLVABLE

        verdict = validate_plan(task_ground, outcome.plan)
        if isinstance(verdict, Invalid):
            run.fail("solve", "invalid-plan", f"solver returned an invalid plan: step {verdict.step_index}, {verdict.violated}")
            _save_fixture(recording, fixture_out)
            run.finalize(EX_INTERNAL)
            return EX_INTERNAL
        run.write_text("plan.txt", render_plan(outcome.plan))

        translator_gateway = gateway if args.translate == "llm" else None
        instructions = translate_plan(outcome.plan, problem.domain, translator_gateway, model=args.model, temperature=args.temperature)
        run.write_json("instructions.json", instructions.to_json())
        run.write_text("instructions.txt", instructions.render())

        _save_fixture(recording, fixture_out)
        run.finalize(EX_OK)
        return EX_OK
    except (FingerprintMismatch, ScriptExhausted) as exc:
        run.fail("gateway", "fixture-divergence", str(exc))
        run.finalize(EX_INTERNAL)
        return EX_INTERNAL
    except Exception as exc:  # keep the exit-code map total
        run.fail("internal", type(exc).__name__, str(exc))
        run.finalize(EX_INTERNAL)
        return EX_INTERNAL


def _save_fixture(recording: Optional[Transcript], target: Optional[Path]) -> None:
    if recording is not None and target is not None:
        target.parent.mkdir(parents=True, exist_ok=True)
        recording.save(target)


# ----------------------------------------------------------------- execute


def cmd_execute(args) -> int:
    run = RunDirectory(args.out_dir, "execute", {})
    run.config_snapshot = _config_snapshot(args, run)
    try:
        artifacts = Path(args.artifacts)
        instructions = InstructionList.from_json(jsonio.read_object((artifacts / "instructions.json").read_text(encoding="utf-8")))
        problem = jsonio.problem_from_json(jsonio.read_object((artifacts / "problem.json").read_text(encoding="utf-8")))
        world = load_world(args.world)
        gateway, recording, fixture_out = _gateway_for(args)
    except (ConfigError, OSError, ValueError) as exc:
        run.fail("config", "config-error", str(exc))
        run.finalize(EX_CONFIG)
        return EX_CONFIG

    env = TextWorldEnv(world, problem.goal)
    goal_text = emit_expression(problem.goal)
    try:
        run.start("execute")
        report = run_execution(
            instructions,
            env,
            gateway,
            goal_text,
            step_budget=args.step_budget,
            retry_budget=args.retry_budget,
            model=args.model,
            temperature=args.temperature,
        )
        run.stop("execute")
        run.write_json("execution_log.json", report.log.to_json())
        run.write_json("verdict.json", report.verdict.to_json())
        from .textworld import state_to_json

        run.write_json("world_final.json", state_to_json(env.state))
        _save_fixture(recording, fixture_out)
        if report.verdict.decision == "goal-met":
            run.finalize(EX_OK)
            return EX_OK
        run.fail("execute", "validator-abort", report.verdict.notification)
        run.finalize(EX_EXEC_ABORT)
        return EX_EXEC_ABORT
    except (FingerprintMismatch, ScriptExhausted) as exc:
        run.fail("gateway", "fixture-divergence", str(exc))
        run.finalize(EX_INTERNAL)
        return EX_INTERNAL
    except Exception as exc:
        run.fail("internal", type(exc).__name__, str(exc))
        run.finalize(EX_INTERNAL)
        return EX_INTERNAL


# ----------------------------------------------------------------- bench


def cmd_bench(args) -> int:
    run = RunDirectory(args.out_dir, "bench", {})
    run.config_snapshot = _config_snapshot(args, run)
    try:
        if args.suite:
            suite_dir = Path(args.suite)
            if not suite_dir.is_dir():
                raise ConfigError(f"suite directory {args.suite} does not exist")
            entries = [
                (sub.name, sub / "domain.pddl", sorted(p for p in sub.glob("*.pddl") if p.name != "domain.pddl"))
                for sub in sorted(suite_dir.iterdir())
                if sub.is_dir()
            ]
        elif args.domain and args.problems:
            problems_dir = Path(args.problems)
            if not problems_dir.is_dir():
                raise ConfigError(f"problems directory {args.problems} does not exist")
            domain_path = Path(args.domain).resolve()
            problem_paths = sorted(
                p for p in problems_dir.glob("*.pddl")
                if p.resolve() != domain_path and p.name != "domain.pddl"
            )
            label = domain_path.parent.name if domain_path.stem == "domain" else domain_path.stem
            entries = [(label, Path(args.domain), problem_paths)]
        else:
            raise ConfigError("bench needs either --suite or both --domain and --problems")
        if args.repeat < 1:
            raise ConfigError("--repeat must be >= 1")
        cfg = SolveConfig(args.strategy, args.heuristic, args.node_budget, args.time_budget)
    except (ConfigError, ValueError) as exc:
        run.fail("config", "config-error", str(exc))
        run.finalize(EX_CONFIG)
        return EX_CONFIG
    report_rows = []
    run.start("bench")
    for name, domain_path, problem_paths in entries:
        solved = 0
        attempted = 0
        problems_report = []
        try:
            domain = parse_domain(domain_path.read_text(encoding="utf-8"), filename=str(domain_path))
        except (OSError, PddlError) as exc:
            report_rows.append({"domain": name, "error": str(exc), "solved": 0, "attempted": 0, "percent": 0.0, "problems": []})
            continue
        for problem_path in problem_paths:
            for _ in range(args.repeat):
                attempted += 1
                row = {"problem": problem_path.name, "status": "", "plan_length": None}
                try:
                    problem = parse_problem(problem_path.read_text(encoding="utf-8"), domain, filename=str(problem_path))
                    violations = validate(problem)
                    if violations:
                        row["status"] = "invalid: " + "; ".join(str(v) for v in violations)
                        problems_report.append(row)
                        continue
                    outcome = solve(ground(problem), cfg)
                    if outcome.status == "plan":
                        verdict = validate_plan(problem, outcome.plan)
                        if isinstance(verdict, Invalid):
                            row["status"] = f"invalid-plan: step {verdict.step_index} {verdict.violated}"
                        else:
                            row["status"] = "solved"
                            row["plan_length"] = len(outcome.plan.steps)
                            solved += 1
                    else:
                        row["status"] = outcome.status
                except (PddlError, OSError) as exc:
                    row["status"] = f"parse-error: {exc}"
                except GroundingError as exc:
                    row["status"] = f"grounding-error: {exc}"
                except Exception as exc:  # one faulty problem must not lose the other rows
                    import traceback  # only on this path; keeps CLI start-up lean

                    traceback.print_exc(file=sys.stderr)
                    row["status"] = f"internal-error: {type(exc).__name__}"
                problems_report.append(row)
        percent = round(100.0 * solved / attempted, 2) if attempted else 0.0
        report_rows.append(
            {"domain": name, "solved": solved, "attempted": attempted, "percent": percent, "problems": problems_report}
        )
    run.stop("bench")

    report = {"rows": report_rows, "repeat": args.repeat}
    run.write_json("bench_report.json", report)
    _print_bench_table(report_rows)
    run.finalize(EX_OK)
    return EX_OK


def _print_bench_table(rows) -> None:
    print(f"{'domain':<16} {'solved':>6} {'attempted':>9} {'percent':>8}")
    for row in rows:
        print(f"{row['domain']:<16} {row['solved']:>6} {row['attempted']:>9} {row['percent']:>7.1f}%")


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        _preload_config(argv, subparsers)
        config_error = None
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"stage": "config", "code": "config-error", "message": str(exc)}) + "\n")
        config_error = exc
    # A rejected config file installs no defaults; parsing the flags alone
    # still finds --out-dir, so the error is recorded like any other.
    args = parser.parse_args(argv)
    if config_error is not None:
        run = RunDirectory(args.out_dir, args.command, {})
        run.config_snapshot = _config_snapshot(args, run)
        run.fail("config", "config-error", str(config_error))
        run.finalize(EX_CONFIG)
        return EX_CONFIG
    if args.command == "plan":
        return cmd_plan(args)
    if args.command == "execute":
        return cmd_execute(args)
    if args.command == "bench":
        return cmd_bench(args)
    return EX_CONFIG


if __name__ == "__main__":
    sys.exit(main())
