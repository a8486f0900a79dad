"""One pass of one workload, in a fresh interpreter.

Usage: worker.py <workload> <seed> <trace 0|1> <work-dir> <result.json>

Imports planwright from the checkout's ``src``, runs the workload's items in
a closed loop (one client, no think time), checks each output, and writes the
per-item latencies, speed probes, failures, peak RSS and, when traced, the per-layer
metrics to the result file. A traced pass also writes its spans next to it.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def probe() -> float:
    """Time a fixed pure-Python loop: a gauge of how fast the machine runs right now.

    It allocates no container, so it never triggers the garbage collector
    and its time does not depend on the state the program left behind.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(3000):
        total += len(str(i * 7919))
    return time.perf_counter() - t0


def run_pass(workload: str, seed: int, trace: bool, work: Path, result_path: Path) -> int:
    import planwright.cli  # noqa: F401  (loads every layer before wrapping)

    from tracing import Tracer, install
    from workloads import WORKLOADS, Context

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    spec = WORKLOADS[workload]
    ctx = Context(seed, work)
    latencies: list[float] = []
    probes: list[float] = []  # probes[i] and probes[i + 1] bracket item i
    error = None
    gen = spec.generate(ctx)
    try:
        item = next(gen)
        probes.append(probe())
        while True:
            ctx.items += 1
            t0 = time.perf_counter()
            result = tracer.run_item(item) if tracer else item()
            latencies.append(time.perf_counter() - t0)
            probes.append(probe())
            item = gen.send(result)
    except StopIteration:
        pass
    except Exception:  # a crashed pass is reported as a failure, not raised
        error = traceback.format_exc()
        ctx.failed_items.add(ctx.items - 1)
    if error is None and ctx.items != spec.items_per_pass:
        error = f"{ctx.items} items in a pass, expected {spec.items_per_pass}"
    out = {
        "latencies": latencies,
        "probes": probes,
        "attempted": max(ctx.items, spec.items_per_pass),
        "failed": len(ctx.failed_items) + max(0, spec.items_per_pass - ctx.items),
        "messages": ctx.messages + ([error] if error else []),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.dump(result_path.with_name(result_path.stem + "-spans"))
    result_path.write_text(json.dumps(out), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    workload, seed, trace, work, result = argv
    src = Path(__file__).resolve().parents[1] / "src"
    import planwright

    if Path(planwright.__file__).resolve().parent != src / "planwright":
        sys.stderr.write(f"planwright imported from {planwright.__file__}, not {src}\n")
        return 2
    return run_pass(workload, int(seed), trace == "1", Path(work), Path(result))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
