"""planwright benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the root of a checkout):
    python3 bench/run.py --workload {suite-blind,scale-hadd,replay} --seed N --seconds S --trace {0,1}

Every pass of a workload runs in a fresh interpreter (bench/worker.py) with
one client in a closed loop, and every pass of a run repeats the same items.
A run makes as many passes as fit ``--seconds`` at the workload's nominal pass
length, at least one. An item's latency is the fastest over the passes of its
wall time scaled to reference speed by a probe timed before and after it.
The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}. See bench/README.md for why the workloads, metrics and
this run scheme are what they are.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "planwright" / "data"

sys.path.insert(0, str(HERE))
from stats import at_reference_speed, check_metric_name, percentile, tail_percentile  # noqa: E402
from tracing import COUNT_METRICS, SELF_TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {name: "s" for name in SELF_TIMES}
PER_LAYER.update({name: "count" for name in COUNT_METRICS})
PER_LAYER["runs.bytes"] = "bytes"
PER_LAYER.update({"trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count"})

SETUP_SAMPLES = 9
PASS_TIMEOUT_S = 150
IMPORT_PROBE = "import time; t = time.perf_counter(); import planwright.cli; print(time.perf_counter() - t)"


def data_digest() -> str:
    """Hash of every file under the package's data directory, names included."""
    digest = hashlib.sha256()
    for path in sorted(DATA.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(DATA)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Import time of planwright.cli in fresh interpreters; the first warms the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            samples.append(float(proc.stdout.strip()))
    return samples


def run_pass(workload: str, seed: int, index: int, trace: bool, work: Path, env: dict[str, str]) -> dict:
    pass_dir = work / f"pass-{index:03d}"
    pass_dir.mkdir()
    result = work / f"pass-{index:03d}.json"
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0", str(pass_dir), str(result)]
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"pass {index} of {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    if trace:  # keep the spans of the latest traced pass once the run ends
        for suffix in (".json", ".bin"):
            spans = work / f"pass-{index:03d}-spans{suffix}"
            spans.replace(work.parent / f"spans-{workload}-{seed}{suffix}")
    return json.loads(result.read_text(encoding="utf-8"))


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload].nominal_pass_s))


def run_passes(workload: str, seed: int, seconds: float, trace: bool, work: Path, env: dict[str, str]) -> list[dict]:
    """The run's passes; a traced run alternates untraced and traced passes, half as many pairs."""
    passes: list[dict] = []
    count = pass_count(workload, seconds)
    for _ in range(max(1, count // 2) if trace else count):
        passes.append(run_pass(workload, seed, len(passes), False, work, env) | {"traced": False})
        if trace:
            passes.append(run_pass(workload, seed, len(passes), True, work, env) | {"traced": True})
    return passes


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's latency at reference speed, the fastest over the passes.

    Items line up across passes because every pass repeats the same items.
    Scaling by the speed probes removes most of the machine's slow spells
    (bench/README.md), and the minimum drops the spells the probes missed.
    """
    per_pass = [at_reference_speed(p["latencies"], p["probes"]) for p in passes]
    return [min(times) for times in zip(*per_pass)]


def end_to_end(workload: str, passes: list[dict], setup: list[float]) -> dict[str, float]:
    latencies = item_latencies(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tail_p = tail_percentile(len(latencies))
    wall = [statistics.median(times) for times in zip(*(p["latencies"] for p in passes))]
    print(
        f"{workload}: {len(passes)} passes; item_tail_ms is p{tail_p:g} of {len(latencies)} items;"
        f" unscaled wall clock: {len(wall) / sum(wall):.4g} items/s, p50 {1000 * percentile(wall, 50.0):.4g} ms"
    )
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1000.0 * percentile(latencies, 50.0),
        "item_tail_ms": 1000.0 * percentile(latencies, tail_p),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Layer metrics of the fastest traced pass, so its self times add up to its wall time."""
    traced = [p["layers"] for p in passes if p["traced"]]
    problems = []
    for name in COUNT_METRICS:
        values = {layers[name] for layers in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between identical passes: {sorted(values)}")
    out = dict(min(traced, key=lambda layers: layers["trace.wall_s"]))
    untraced_wall = min(sum(p["latencies"]) for p in passes if not p["traced"])
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "planwright" / "__init__.py").is_file():
        sys.stderr.write(f"no planwright sources under {SRC}; run from the root of a checkout\n")
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    env = child_env(tmp)
    # Start and end with no writes pending, so one run's files (replay writes
    # about 50 MB) are not flushed while the next run is being timed.
    os.sync()
    try:
        before = data_digest()
        setup = [] if args.trace else measure_setup(env)
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), work, env)
        problems = [m for p in passes for m in p["messages"]]
        if data_digest() != before:
            problems.append("src/planwright/data changed during the run")
        if args.trace:
            values, count_problems = per_layer(passes)
            problems += count_problems
            units = PER_LAYER
        else:
            values, units = end_to_end(args.workload, passes, setup), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    for message in problems:
        sys.stderr.write(message.rstrip() + "\n")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not problems and failed == 0
    metrics = {check_metric_name(name): {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
