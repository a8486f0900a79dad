"""Self-check of the benchmark's own helpers.

Run from the root of a checkout: python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from stats import METRIC_NAME, PROBE_REF_S, at_reference_speed, beyond, check_metric_name, percentile, tail_percentile  # noqa: E402
from workloads import Context, plan_is_valid, replay, scale_instances  # noqa: E402


class TestTailRule:
    @pytest.mark.parametrize("n, expected", [(19, None), (20, 50.0), (40, 75.0), (139, 90.0), (140, 90.0), (240, 95.0), (1000, 99.0)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected
        if expected is not None:
            assert beyond(expected, n) >= 10
            higher = [p for p in (75.0, 90.0, 95.0, 99.0, 99.9) if p > expected]
            assert all(beyond(p, n) < 10 for p in higher)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == 50
        assert percentile(values, 90.0) == 90
        assert beyond(90.0, 100) == 10

    def test_scaling_to_reference_speed(self):
        latencies = [0.010, 0.020, 0.030]
        assert at_reference_speed(latencies, [PROBE_REF_S] * 4) == pytest.approx(latencies)
        assert at_reference_speed(latencies, [2 * PROBE_REF_S] * 4) == pytest.approx([0.005, 0.010, 0.015])

    def test_every_workload_has_a_tail(self):
        for spec in run.WORKLOADS.values():
            assert tail_percentile(spec.items_per_pass) is not None


class TestMetricNames:
    def test_pattern(self):
        for good in ("items_per_s", "planner.ground_s", "cli.argparse_s", "p99.9-x"):
            assert check_metric_name(good) == good
        for bad in ("", "bad name", "_lead", "a/b", "x" * 65):
            with pytest.raises(ValueError):
                check_metric_name(bad)

    def test_benchmark_json_matches_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared_e2e == run.END_TO_END
        assert declared_layer == run.PER_LAYER
        assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
        for name in [*declared_e2e, *declared_layer]:
            assert METRIC_NAME.fullmatch(name)


class TestCorrectnessGate:
    def test_rejects_corrupted_plan(self):
        from planwright.planner import Plan, SolveConfig, ground, solve

        problem = scale_instances(0)[0]
        outcome = solve(ground(problem), SolveConfig("greedy", "h_add"))
        steps = outcome.plan.steps
        assert plan_is_valid(problem, outcome.plan)
        assert not plan_is_valid(problem, Plan(steps[1:]))
        assert not plan_is_valid(problem, Plan(steps[:-1]))

    def _drive_replay(self, work: Path, tamper_round: int | None) -> Context:
        """Run replay rounds 0 and 1; optionally edit round 1's output before it is checked."""
        ctx = Context(seed=0, work=work)
        gen = replay(ctx)
        item = next(gen)
        per_round = 6
        for index in range(2 * per_round):
            ctx.items += 1
            result = item()
            if tamper_round is not None and index == (tamper_round + 1) * per_round - 1:
                plan = work / f"round-{tamper_round:03d}" / "color" / "plan.txt"
                plan.write_text(plan.read_text(encoding="utf-8") + "noop()\n", encoding="utf-8")
            item = gen.send(result)
        gen.close()
        return ctx

    def test_identical_rounds_pass(self, tmp_path):
        ctx = self._drive_replay(tmp_path, tamper_round=None)
        assert not ctx.failed_items, ctx.messages

    def test_rejects_changed_replay_tree(self, tmp_path):
        ctx = self._drive_replay(tmp_path, tamper_round=1)
        assert ctx.failed_items
        assert any("differ from round 0" in m for m in ctx.messages)
