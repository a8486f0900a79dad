"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an ``ACCEPTANCE`` line on success.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import cmp_to_key

import pytest

from planwright.agents import PipelineConfig, ScriptedUserChannel, TaskSpec, run_pipeline
from planwright.cli import main
from planwright.data_paths import benchmarks_root, data_root, scenario_dir
from planwright.domains import blocksworld_domain, blocksworld_problem
from planwright.gateway import (
    Gateway,
    HashedBagOfWordsEmbedder,
    ReplayBackend,
    ScriptedBackend,
    Transcript,
    assistant,
)
from planwright.ir import (
    AddOrModifyFluent,
    And,
    Assignment,
    Comparison,
    FluentDecl,
    ModifyAction,
    NumFluent,
    Parameter,
    ProblemInstance,
    apply_edit,
    jsonio,
)
from planwright.memory import CosineScore, ProceduralStore
from planwright.pddl import emit_domain, emit_expression, parse_domain, parse_problem
from planwright.planner import SolveConfig, Valid, ground, solve, validate_plan
from planwright.runs import normalized_tree
from scenarios import FRIDGE_MEMORY_SUMMARY, fridge_recall_scenario
from planwright.textworld import check_goal, state_from_json

from helpers import bfs_optimal_plan
from test_planner import battery_problem

ASTAR = SolveConfig(strategy="astar", heuristic="blind")


@pytest.fixture(autouse=True)
def announce(request):
    yield
    print(f"\nACCEPTANCE PASS: {request.node.name}")


def replay_plan_args(scenario: str, out) -> list[str]:
    d = scenario_dir(scenario)
    args = [
        "plan", "--task", str(d / "task.json"), "--mode", "replay",
        "--fixture", str(d / "fixture.json"), "--out-dir", str(out),
    ]
    if (d / "answers.json").exists():
        args += ["--answers-file", str(d / "answers.json")]
    if (d / "domain.pddl").exists():
        args += ["--domain", str(d / "domain.pddl")]
    if (d / "memory.jsonl").exists():
        args += ["--memory-store", str(d / "memory.jsonl")]
    elif scenario == "fridge_store":
        args += ["--memory-store", str(out / "memory.jsonl")]
    return args


def test_planner_soundness_and_optimality_on_bundled_instances():
    """40 bundled instances: valid plans, BFS-optimal lengths, < 60 s."""
    started = time.monotonic()
    solved = 0
    for name in ("blocksworld", "grippers"):
        directory = benchmarks_root() / name
        domain = parse_domain((directory / "domain.pddl").read_text(), filename="domain.pddl")
        problems = sorted(directory.glob("p*.pddl"))
        assert len(problems) == 20
        for path in problems:
            problem = parse_problem(path.read_text(), domain, filename=path.name)
            if name == "blocksworld":
                assert sum(1 for o in problem.objects if o.type == "block") <= 6
            else:
                assert sum(1 for o in problem.objects if o.type == "ball") <= 4
            outcome = solve(ground(problem), ASTAR)
            assert outcome.status == "plan", f"{path.name}: {outcome.status}"
            assert isinstance(validate_plan(problem, outcome.plan), Valid), path.name
            oracle = bfs_optimal_plan(problem)
            assert oracle is not None
            assert len(outcome.plan.steps) == len(oracle), (
                f"{path.name}: got {len(outcome.plan.steps)}, optimum {len(oracle)}"
            )
            solved += 1
    elapsed = time.monotonic() - started
    assert solved == 40
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_numeric_adaptation_fig_parity_and_size_tower():
    """Scripted size edits reproduce the documented PDDL fragments and the
    4-block tower plan respects sizes at every stack step."""
    base = blocksworld_domain()
    with_size = apply_edit(
        base,
        (),
        AddOrModifyFluent(FluentDecl("size", (Parameter("?b", "object"),), kind="numeric"), provenance="goal"),
    )
    assert with_size.applied
    stack = with_size.domain.action_map()["stack"]
    new_pre = And(stack.precondition.children + (Comparison("<", NumFluent("size", ("?b1",)), NumFluent("size", ("?b2",))),))
    edited = apply_edit(with_size.domain, (), ModifyAction("stack", new_pre, None, provenance="goal"))
    assert edited.applied

    text = emit_domain(edited.domain)
    assert "(:requirements :strips :typing :numeric-fluents)" in text
    assert "(:functions (size ?b))" in text
    assert ":parameters (?b1 ?b2 - block)" in text
    assert "(< (size ?b1) (size ?b2))" in text

    tower = blocksworld_problem("size-tower", [["b1"], ["b2"], ["b3"], ["b4"]], [["b4", "b3", "b2", "b1"]])
    problem = ProblemInstance(
        edited.domain,
        tower.objects,
        Assignment.create(
            tower.init.true_atoms,
            [(NumFluent("size", (f"b{i}",)), Fraction(i)) for i in (1, 2, 3, 4)],
        ),
        tower.goal,
        "size-tower",
    )
    outcome = solve(ground(problem), ASTAR)
    assert outcome.status == "plan"
    verdict = validate_plan(problem, outcome.plan)
    assert isinstance(verdict, Valid)
    sizes = {f"b{i}": i for i in (1, 2, 3, 4)}
    stacks = [s for s in outcome.plan.steps if s.name == "stack"]
    assert stacks
    for step in stacks:
        assert sizes[step.args[0]] < sizes[step.args[1]]


def test_battery_scenario_bounds_and_unsolvable_case():
    """Battery 30 with 5-per-move cost and a >= 20 floor allows at most two
    moves; battery 10 with a required move is unsolvable."""
    feasible = battery_problem(30)
    outcome = solve(ground(feasible), ASTAR)
    assert outcome.status == "plan"
    assert sum(1 for s in outcome.plan.steps if s.name == "move") <= 2
    verdict = validate_plan(feasible, outcome.plan)
    assert isinstance(verdict, Valid)
    assert verdict.numeric_value("battery_level", ("robot1",)) >= 20

    infeasible = battery_problem(10)
    assert bfs_optimal_plan(infeasible) is None
    assert solve(ground(infeasible), ASTAR).status == "unsolvable"


def test_color_goal_pipeline_replay_ten_times():
    """The recorded color scenario replays to complete with the color tool
    call, user color queries, and a valid plan, identically 10 times."""
    d = scenario_dir("color")
    task = TaskSpec.from_json(json.loads((d / "task.json").read_text()))
    answers = json.loads((d / "answers.json").read_text())
    transcript_data = json.loads((d / "fixture.json").read_text())
    serialized = set()
    for _ in range(10):
        gateway = Gateway(ReplayBackend(Transcript.from_json(transcript_data)))
        result = run_pipeline(
            task,
            PipelineConfig(),
            gateway,
            memory=ProceduralStore(clock=lambda: 0.0),
            user_channel=ScriptedUserChannel(list(answers)),
        )
        assert result.status == "complete"
        calls = result.events.tool_calls("missing_or_incorrect_fluent")
        assert calls and calls[0].data["arguments"]["fluent_name"] == "color"
        queries = [e for e in result.events.events if e.kind == "user-query"]
        assert len(queries) == 3 and all("color" in q.data["question"] for q in queries)
        outcome = solve(ground(result.problem), ASTAR)
        assert outcome.status == "plan"
        assert isinstance(validate_plan(result.problem, outcome.plan), Valid)
        serialized.add(json.dumps(result.to_json(), sort_keys=True) + json.dumps(outcome.to_json()))
    assert len(serialized) == 1, "replays diverged"


def test_fridge_memory_scenario_end_to_end(tmp_path):
    """Storing the fridge instruction makes a later fridge task close the
    fridge, and executing the plan satisfies the full goal conjunction."""
    store_run = tmp_path / "store-run"
    assert main(replay_plan_args("fridge_store", store_run)) == 0
    store_path = store_run / "memory.jsonl"
    store = ProceduralStore(store_path, clock=lambda: 0.0)
    assert any(e.summary == FRIDGE_MEMORY_SUMMARY for e in store.entries)
    # the store run reproduces exactly the store the recall fixture was built on
    shipped = (scenario_dir("fridge_recall") / "memory.jsonl").read_bytes()
    assert store_path.read_bytes() == shipped

    recall = fridge_recall_scenario()
    transcript = Transcript.load(scenario_dir("fridge_recall") / "fixture.json")
    result = run_pipeline(
        recall.task,
        PipelineConfig(),
        Gateway(ReplayBackend(transcript)),
        memory=store,
        user_channel=ScriptedUserChannel([]),
    )
    assert result.status == "complete"
    goal_text = emit_expression(result.problem.goal)
    assert "(not (is_open fridge_305))" in goal_text

    # execute the translated plan in the text world
    out_plan = tmp_path / "plan-run"
    assert main(replay_plan_args("fridge_recall", out_plan)) == 0
    out_exec = tmp_path / "exec-run"
    d = scenario_dir("fridge_recall")
    code = main([
        "execute", "--artifacts", str(out_plan), "--world", str(d / "world.json"),
        "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", str(out_exec),
    ])
    assert code == 0
    final = state_from_json(json.loads((out_exec / "world_final.json").read_text()))
    assert check_goal(final, result.problem.goal)


def test_self_reflection_contract():
    """accept <=> score >= tau; rejections <= iteration limit; limit-hit
    runs proceed with the latest response."""
    from planwright.agents import AgentConfig, AgentSession, critic_review, generate_domain
    from planwright.agents.events import EventLog

    rng = random.Random(13)
    for _ in range(40):
        sigma = round(rng.random(), 3)
        tau = round(rng.random(), 3)
        gw = Gateway(ScriptedBackend([assistant(json.dumps({"score": sigma, "feedback": "x"}))]))
        verdict = critic_review("candidate", "criteria", tau, gw)
        assert verdict.accepted == (sigma >= tau)

    domain_doc = jsonio.dumps(jsonio.domain_to_json(blocksworld_domain())).rstrip("\n")
    for limit in (1, 2, 3, 4):
        reject = assistant(json.dumps({"score": 0.1, "feedback": "no"}))
        responses = []
        for _ in range(limit):
            responses += [assistant(domain_doc), reject]
        responses += [assistant(domain_doc), assistant(json.dumps({"score": 0.99, "feedback": "ok"}))]
        session = AgentSession(AgentConfig("domain", critic_iterations=limit))
        events = EventLog()
        outcome = generate_domain(
            "desc", session, Gateway(ScriptedBackend(responses)), lambda o, c: ("", False), events
        )
        assert outcome.critic_rejections <= limit
        assert outcome.critic_limit_hit
        assert outcome.artifact is not None  # the latest response was used


def test_memory_retrieval_matches_bruteforce_oracle():
    """200 random stores x 50 random queries: exact score and order parity
    with a full-scan cosine oracle."""
    words = [
        "fridge", "salmon", "battery", "block", "tower", "goal", "close",
        "open", "heat", "table", "robot", "move", "color", "size", "room",
    ]
    rng = random.Random(99)
    embedder = HashedBagOfWordsEmbedder()
    store = ProceduralStore()
    for _ in range(200):
        store.store(" ".join(rng.choices(words, k=rng.randint(1, 7))))

    def oracle_order(query_vec):
        rows = []
        for pos, entry in enumerate(store.entries):
            dot = sum(a * b for a, b in zip(query_vec, entry.embedding))
            n2 = sum(a * a for a in query_vec) * sum(b * b for b in entry.embedding)
            rows.append((dot, n2, pos))

        def compare(x, y):
            (da, na, pa), (db, nb, pb) = x, y
            sa = 0 if da == 0 or na == 0 else (1 if da > 0 else -1)
            sb = 0 if db == 0 or nb == 0 else (1 if db > 0 else -1)
            if sa != sb:
                return -1 if sa > sb else 1
            if sa != 0:
                lhs, rhs = da * da * nb, db * db * na
                if lhs != rhs:
                    bigger = lhs > rhs if sa > 0 else lhs < rhs
                    return -1 if bigger else 1
            return -1 if pa < pb else 1

        rows.sort(key=cmp_to_key(compare))
        return [pos for _, _, pos in rows]

    for _ in range(50):
        query = " ".join(rng.choices(words, k=rng.randint(1, 4)))
        qvec = embedder.embed(query)
        expected = oracle_order(qvec)
        got = store.retrieve(query, k=len(store.entries), threshold=Fraction(-1))
        assert [store.entries.index(e) for e, _ in got] == expected
        for entry, score in got:
            exact = CosineScore.of(qvec, entry.embedding)
            assert score == exact.as_float()


def test_codec_round_trip_on_all_bundled_benchmarks():
    """emit/parse fixpoints over 7 domains and 140 problems."""
    domains = 0
    problems = 0
    for directory in sorted(benchmarks_root().iterdir()):
        if not directory.is_dir():
            continue
        domain_text = (directory / "domain.pddl").read_text()
        domain = parse_domain(domain_text, filename="domain.pddl")
        assert emit_domain(domain) == domain_text  # emit . parse fixpoint
        domains += 1
        for path in sorted(directory.glob("p*.pddl")):
            text = path.read_text()
            problem = parse_problem(text, domain, filename=path.name)
            from planwright.pddl import emit_problem

            assert emit_problem(problem) == text
            assert parse_problem(emit_problem(problem), domain) == problem  # parse . emit identity
            problems += 1
    assert domains == 7
    assert problems == 140


def test_recursion_limit_and_global_ceiling():
    """An always-failing fixture stops after exactly 10 generation turns,
    and no shipped fixture needs more than the 60-call ceiling."""
    d = scenario_dir("always_failing")
    task = TaskSpec.from_json(json.loads((d / "task.json").read_text()))
    transcript = Transcript.load(d / "fixture.json")
    result = run_pipeline(
        task,
        PipelineConfig(),
        Gateway(ReplayBackend(transcript)),
        memory=ProceduralStore(clock=lambda: 0.0),
        user_channel=ScriptedUserChannel([]),
    )
    assert result.status == "correction-limit-reached"
    generation_turns = [e for e in result.events.events if e.kind == "chat" and e.agent == "domain"]
    assert len(generation_turns) == 10

    for fixture in sorted((data_root() / "scenarios").rglob("*fixture.json")):
        exchanges = json.loads(fixture.read_text()).get("exchanges", [])
        assert len(exchanges) <= 60, f"{fixture} holds {len(exchanges)} exchanges"


def test_end_to_end_determinism_of_all_shipped_scenarios(tmp_path):
    """Every shipped scenario, replayed twice, yields byte-identical run
    directories once manifest timestamps are normalized."""
    for scenario in ("always_failing", "color", "fridge_recall", "fridge_store", "size_tower"):
        first = tmp_path / scenario / "a"
        second = tmp_path / scenario / "b"
        code_a = main(replay_plan_args(scenario, first))
        code_b = main(replay_plan_args(scenario, second))
        assert code_a == code_b
        assert normalized_tree(first) == normalized_tree(second), scenario

    d = scenario_dir("fridge_recall")
    plan_out = tmp_path / "fridge_recall" / "a"
    for leg in ("x", "y"):
        out = tmp_path / "exec" / leg
        code = main([
            "execute", "--artifacts", str(plan_out), "--world", str(d / "world.json"),
            "--mode", "replay", "--fixture", str(d / "exec_fixture.json"), "--out-dir", str(out),
        ])
        assert code == 0
    assert normalized_tree(tmp_path / "exec" / "x") == normalized_tree(tmp_path / "exec" / "y")
