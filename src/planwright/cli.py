"""Command-line interface: plan, execute, and bench.

Exit codes are scripting-stable:
  0   success
  1   task failure (pipeline incomplete or grounding failure)
  2   no plan (unsolvable or search budget exhausted)
  3   execution aborted by the validator
  64  configuration error, including a malformed input file (task,
      config, fixture, instructions, problem or world JSON), a live or
      record run without an API key in --api-key-env, a goal that names
      what the world lacks, and an --out-dir that cannot be created
  65  interaction failure (user answers unavailable/exhausted)
  70  internal error, replay fixture divergence, a failed chat backend
      (stage gateway), and a run directory that cannot take its own failure
      record or manifest (stage output; the record goes to stderr)
Every nonzero path leaves a machine-readable failure record in the run
directory (or on stderr when no run directory exists yet, or the directory
cannot take the record). `main` alone opens the run directory and ends it:
a command returns on success and raises on any other outcome. In record
mode `plan` and `execute` save the transcript on every exit once their
inputs have been accepted.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Optional

from . import __version__
from .abstraction import InstructionList, translate_plan
from .agents import (
    PipelineConfig,
    RefusingUserChannel,
    ScriptedUserChannel,
    TaskSpec,
    TerminalUserChannel,
    run_pipeline,
)
from .executor import run_execution
from .gateway import (
    BackendError,
    FingerprintMismatch,
    Gateway,
    LiveBackend,
    ScriptExhausted,
    Transcript,
    replay_gateway,
)
from .ir import ProblemInstance, jsonio, validate
from .memory import ProceduralStore
from .pddl import PddlError, emit_domain, emit_expression, emit_problem, parse_domain, parse_problem, render_plan
from .planner import GroundingError, Invalid, SolveConfig, ground, solve, validate_plan
from .planner.search import HEURISTICS, STRATEGIES
from .runs import RunDirectory
from .textworld import TextWorldEnv, UnknownEntityError, load_world

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


class _Exit(Exception):
    """A nonzero outcome of a command: its exit code and failure record."""

    def __init__(self, code: int, stage: str, failure: str, message: str):
        super().__init__(message)
        self.code = code
        self.stage = stage
        self.failure = failure


def _config_exit(exc: Exception) -> _Exit:
    return _Exit(EX_CONFIG, "config", "config-error", str(exc))


def _stderr_record(stage: str, code: str, message: str) -> None:
    """The failure record of a run whose run directory cannot hold it."""
    sys.stderr.write(json.dumps({"stage": stage, "code": code, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 64, not argparse's default 2
        _stderr_record("config", "usage", message)
        raise SystemExit(EX_CONFIG)


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers, built once per process: every
    in-process `main` call shares them, so none may leave state on them."""
    parser = _Parser(prog="planwright", description="Adaptive task planning pipeline.")
    parser.add_argument("--version", action="version", version=f"planwright {__version__}")
    parser.set_defaults(config=None)  # `bench` takes no --config
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=MODES, default="replay")
        p.add_argument("--fixture", help="transcript fixture path (required for record/replay)")
        p.add_argument("--model", default="default")
        p.add_argument("--temperature", type=float, default=0.0)
        p.add_argument("--out-dir", required=True, help="run directory for artifacts")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--api-base", default="https://api.openai.com/v1")
        p.add_argument("--api-key-env", default="PLANWRIGHT_API_KEY")

    def solver(p: argparse.ArgumentParser) -> None:
        p.add_argument("--strategy", choices=STRATEGIES, default="astar")
        p.add_argument("--heuristic", choices=HEURISTICS, default="blind")
        p.add_argument("--node-budget", type=int, default=1_000_000)
        p.add_argument("--time-budget", type=float, default=60.0)

    plan = sub.add_parser("plan", help="generate a problem, solve it, translate the plan")
    common(plan)
    plan.add_argument("--task", required=True, help="task JSON file (descriptions of domain/init/goal)")
    plan.add_argument("--domain", help="provide a PDDL domain and bypass domain generation")
    plan.add_argument("--answers-file", help="JSON list of scripted user answers")
    plan.add_argument("--memory-store", help="procedural memory JSONL path")
    plan.add_argument("--tau", type=float, default=0.8)
    plan.add_argument("--correction-limit", type=int, default=10)
    plan.add_argument("--critic-iterations", type=int, default=3)
    solver(plan)
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
    solver(bench)
    return parser, sub.choices  # the subcommand parsers by name


def _read_config(config_path: str, subparser: argparse.ArgumentParser) -> dict[str, Any]:
    """The config file's values, each checked by `_config_value`, keyed by
    the ``dest`` of its subcommand flag: the namespace `main` parses into."""
    try:
        data = jsonio.read_object(Path(config_path).read_text(encoding="utf-8"))
    except (OSError, jsonio.IRDecodeError) as exc:
        raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
    actions = {a.dest: a for a in subparser._actions}
    values = {}
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        values[attr] = _config_value(key, value, actions[attr])
    return values


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked against its flag's type and choices.

    argparse neither converts nor checks a value that its namespace holds,
    so a value of the wrong JSON type would otherwise reach the command
    unconverted. Strings are not parsed as numbers: a number must be a JSON number.
    """
    kind = action.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}")
    return kind(value)


def _gateway_for(args) -> Gateway:
    """Build the gateway for the requested mode; in record mode it records
    into a fresh transcript, which `_save_fixture` writes to --fixture."""
    mode = args.mode
    if mode in ("record", "replay") and not args.fixture:
        raise ConfigError(f"{mode} mode requires --fixture")
    if mode != "replay" and args.model == "default":
        raise ConfigError(f"{mode} mode requires --model")
    if not 0.0 <= args.temperature <= 2.0:
        raise ConfigError(f"temperature {args.temperature} outside [0, 2]")
    if mode == "replay":
        try:
            transcript = Transcript.load(args.fixture)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load fixture {args.fixture}: {exc}") from exc
        return replay_gateway(transcript)
    if not os.environ.get(args.api_key_env):
        raise ConfigError(f"{mode} mode requires an API key in ${args.api_key_env}")
    backend = LiveBackend(
        base_url=args.api_base, model=args.model, temperature=args.temperature, api_key_env=args.api_key_env
    )
    return Gateway(backend, recording=Transcript() if mode == "record" else None)


def _user_channel(args):
    answers = getattr(args, "answers_file", None)
    if answers:
        try:
            data = jsonio.loads(Path(answers).read_text(encoding="utf-8"))
        except (OSError, jsonio.IRDecodeError) as exc:
            raise ConfigError(f"cannot read answers file {answers}: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(a, str) for a in data):
            raise ConfigError("answers file must hold a JSON list of strings")
        return ScriptedUserChannel(data)
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


def cmd_plan(args, run: RunDirectory) -> None:
    try:
        task = TaskSpec.from_json(jsonio.read_object(Path(args.task).read_text(encoding="utf-8")))
        gateway = _gateway_for(args)
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
            correction_limit=args.correction_limit, critic_threshold=args.tau, critic_iterations=args.critic_iterations
        )
    except (ConfigError, PddlError, OSError, ValueError) as exc:
        raise _config_exit(exc) from exc

    try:
        run.start("pipeline")
        result = run_pipeline(task, pipeline_config, gateway, memory=memory, user_channel=channel, provided_domain=provided_domain)
        run.stop("pipeline")
        run.write_json("pipeline_result.json", result)

        if result.failure_kind:
            code = EX_INTERACTION if result.failure_kind == "interaction" else EX_TASK_FAILED
            raise _Exit(code, "pipeline", result.failure_kind, result.error)

        problem = result.problem
        run.write_text("domain.pddl", emit_domain(problem.domain))
        run.write_text("problem.pddl", emit_problem(problem))
        run.write_json("problem.json", problem)

        run.start("ground")
        try:
            task_ground = ground(problem)
        except GroundingError as exc:
            raise _Exit(EX_TASK_FAILED, "solve", "grounding-error", str(exc)) from exc
        run.stop("ground")
        run.start("search")
        outcome = solve(task_ground, solve_cfg)
        run.stop("search")
        run.write_json("outcome.json", outcome)

        if outcome.status != "plan":
            raise _Exit(EX_UNSOLVABLE, "solve", outcome.status, f"no plan for goal {emit_expression(problem.goal)}")

        run.start("validate")
        verdict = validate_plan(problem, outcome.plan)
        run.stop("validate")
        if isinstance(verdict, Invalid):
            message = f"solver returned an invalid plan: step {verdict.step_index}, {verdict.violated}"
            raise _Exit(EX_INTERNAL, "solve", "invalid-plan", message)
        run.write_text("plan.txt", render_plan(outcome.plan))

        translator_gateway = gateway if args.translate == "llm" else None
        instructions = translate_plan(outcome.plan, problem.domain, translator_gateway)
        run.write_json("instructions.json", instructions)
        run.write_text("instructions.txt", instructions.render())
    finally:
        _save_fixture(gateway, args.fixture)


def _save_fixture(gateway: Gateway, fixture: Optional[str]) -> None:
    """Save what record mode captured to --fixture, whatever the outcome of the run."""
    if gateway.recording is not None:
        target = Path(fixture)
        target.parent.mkdir(parents=True, exist_ok=True)
        gateway.recording.save(target)


# ----------------------------------------------------------------- execute


def cmd_execute(args, run: RunDirectory) -> None:
    try:
        if args.step_budget < 1:
            raise ConfigError("--step-budget must be >= 1")
        if args.retry_budget < 0:
            raise ConfigError("--retry-budget must be >= 0")
        artifacts = Path(args.artifacts)
        instructions = InstructionList.from_json(jsonio.read_object((artifacts / "instructions.json").read_text(encoding="utf-8")))
        problem = ProblemInstance.from_json(jsonio.read_object((artifacts / "problem.json").read_text(encoding="utf-8")))
        env = TextWorldEnv(load_world(args.world), problem.goal)
        goal_text = emit_expression(problem.goal)
        env.goal_satisfied()  # a goal the world cannot evaluate fails here, before any model call
        gateway = _gateway_for(args)
    except (ConfigError, OSError, ValueError, UnknownEntityError) as exc:
        raise _config_exit(exc) from exc

    try:
        run.start("execute")
        report = run_execution(
            instructions, env, gateway, goal_text, step_budget=args.step_budget, retry_budget=args.retry_budget
        )
        run.stop("execute")
        run.write_json("execution_log.json", report.log)
        run.write_json("verdict.json", report.verdict)
        run.write_json("world_final.json", env.state)
    finally:
        _save_fixture(gateway, args.fixture)
    if report.verdict.decision != "goal-met":
        raise _Exit(EX_EXEC_ABORT, "execute", "validator-abort", report.verdict.notification)


# ----------------------------------------------------------------- bench


def cmd_bench(args, run: RunDirectory) -> None:
    try:
        if args.suite:
            suite_dir = Path(args.suite)
            if not suite_dir.is_dir():
                raise ConfigError(f"suite directory {args.suite} does not exist")
            sets = [(sub.name, sub / "domain.pddl", sub) for sub in sorted(suite_dir.iterdir()) if sub.is_dir()]
        elif args.domain and args.problems:
            problems_dir = Path(args.problems)
            if not problems_dir.is_dir():
                raise ConfigError(f"problems directory {args.problems} does not exist")
            domain = Path(args.domain).resolve()
            sets = [(domain.parent.name if domain.stem == "domain" else domain.stem, Path(args.domain), problems_dir)]
        else:
            raise ConfigError("bench needs either --suite or both --domain and --problems")
        # Both forms read a problem set alike: every *.pddl but the domain file and any domain.pddl.
        entries = [
            (label, path, sorted(p for p in d.glob("*.pddl") if p.name != "domain.pddl" and p.resolve() != path.resolve()))
            for label, path, d in sets
        ]
        if args.repeat < 1:
            raise ConfigError("--repeat must be >= 1")
        cfg = SolveConfig(args.strategy, args.heuristic, args.node_budget, args.time_budget)
    except (ConfigError, OSError, ValueError) as exc:
        raise _config_exit(exc) from exc
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


def _print_bench_table(rows) -> None:
    print(f"{'domain':<16} {'solved':>6} {'attempted':>9} {'percent':>8}")
    for row in rows:
        print(f"{row['domain']:<16} {row['solved']:>6} {row['attempted']:>9} {row['percent']:>7.1f}%")


COMMANDS = {"plan": cmd_plan, "execute": cmd_execute, "bench": cmd_bench}

# Exit code, stage and failure code of an exception that no command turns into
# an _Exit itself: the entry of the first class in its MRO that has one (so a
# ScriptExhausted is a fixture divergence, not a BackendError). Any other
# exception is an internal error named by its class.
FAILURES: dict[type, tuple[int, str, str]] = {
    FingerprintMismatch: (EX_INTERNAL, "gateway", "fixture-divergence"),
    ScriptExhausted: (EX_INTERNAL, "gateway", "fixture-divergence"),
    BackendError: (EX_INTERNAL, "gateway", "BackendError"),
}


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command in ``argv`` (default ``sys.argv[1:]``); return its exit
    code. With ``--config``, the command's parser reads its flags again into a
    namespace that holds the file's values; argparse adds only the defaults a
    namespace lacks, so flags replace file values and no parser keeps one."""
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        run = RunDirectory(args.out_dir, args.command)
    except OSError as exc:
        _stderr_record("config", "config-error", f"cannot create run directory {args.out_dir}: {exc}")
        return EX_CONFIG
    failure: Optional[_Exit] = None
    try:
        if args.config is not None:
            subparser = subparsers[args.command]
            namespace = argparse.Namespace(command=args.command, **_read_config(args.config, subparser))
            args = subparser.parse_args(argv[1:], namespace)  # argv[0] is the command
        COMMANDS[args.command](args, run)
    except ConfigError as exc:  # the config file's: a command turns its own into an _Exit
        _stderr_record("config", "config-error", str(exc))
        failure = _config_exit(exc)
    except _Exit as exc:
        failure = exc
    except Exception as exc:  # keep the exit-code map total
        internal = (EX_INTERNAL, "internal", type(exc).__name__)
        exit_code, stage, name = next((FAILURES[kind] for kind in type(exc).__mro__ if kind in FAILURES), internal)
        failure = _Exit(exit_code, stage, name, str(exc))
    code = EX_OK if failure is None else failure.code
    run.config_snapshot = _config_snapshot(args, run)
    try:
        if failure is not None:
            run.fail(failure.stage, failure.failure, str(failure))
        run.finalize(code)
    except OSError as exc:  # the run directory cannot hold its own record
        message = f"cannot write the run record: {exc}"
        if failure is not None:
            message += f"; the run had failed first, stage {failure.stage}, code {failure.failure}: {failure}"
        _stderr_record("output", type(exc).__name__, message)
        return EX_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
