"""Benchmark runner for the activevars library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One process runs one workload with one client in a
closed loop: each step starts when the previous one returned, with no
threads and BLAS/OpenMP pinned to one thread.

``--trace 0`` sets the workload up three times, then repeats passes over
the workload's fixed inputs for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and
traced passes for ``--seconds``, times the CLI in fresh processes and
reports the per-layer metrics.  Every output of every pass is checked
after the pass; the last stdout line is the result object, the line
before it a detail object with the environment and sample counts.
README.md next to this file describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# setup_s is the median of this many set-ups; the first import is this
# process's own, the others run in fresh interpreters.
SETUP_REPEATS = 3
# fail_ratio is failed/attempted, floored so that it never reads 0.  Any
# run attempts far fewer than 1e8 steps, so one failure lifts it over tenfold.
FAIL_RATIO_FLOOR = 1e-9


def percentile(values: list[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (linear interpolation)."""
    n = len(values)
    if n <= 10:
        return {"pct": None, "value": None, "samples": n}
    pct = 100.0 * (1.0 - 10.0 / n)
    return {"pct": pct, "value": percentile(values, pct), "samples": n}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "_us_per_" in name or ".us_per_" in name:
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("terms_per_label"):
        return "terms/label"
    if "ratio" in name:
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import platform
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "caches": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_pass(workload, av, inputs, refs, tracer=None):
    """One closed-loop pass; returns its wall time and the step records."""
    from workloads import Record

    clock = time.perf_counter
    records = []
    start = clock()
    for i, step in enumerate(workload.steps(av, inputs, refs)):
        if tracer is not None:
            tracer.enter_op(i, step.kind)
        t0 = clock()
        try:
            out, error = step.run(), None
        except Exception as exc:  # a raising step is a failed operation; the pass goes on
            out, error = None, exc
        records.append(Record(step, clock() - t0, out, error))
    return clock() - start, records


class Tally:
    """Failures, attempts and latencies over every checked pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.op_latency: list[float] = []
        self.info: dict = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, workload, records, refs) -> None:
        bad: dict[int, str] = {}
        for i, rec in enumerate(records):
            if rec.error is not None:
                bad[i] = f"{rec.step.label}: raised {rec.error!r}"
            else:
                problems = rec.step.check(rec.out)
                if problems:
                    bad[i] = f"{rec.step.label}: {'; '.join(problems)}"
        failures, info = workload.gate(records, refs)
        for i, message in failures:
            bad.setdefault(i, message)
        self.info.update(info)
        self.attempted += len(records)
        for message in bad.values():
            self.fail(message)
        self.op_latency += [r.seconds for r in records if r.step.kind == "op"]


def import_library() -> tuple[object, float]:
    """Import activevars from the checkout's sources and time the import."""
    for var in THREAD_VARS:  # before numpy is first imported, here and in children
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import activevars

    seconds = time.perf_counter() - t0
    if Path(activevars.__file__).resolve().parent != SRC / "activevars":
        raise RuntimeError(f"imported activevars from {activevars.__file__}, not from {SRC}")
    return activevars, seconds


def run_benchmark(
    av, first_import: float, name: str, seed: int, seconds: float, trace: bool, references: dict
) -> tuple[dict, dict]:
    """Run one workload; returns (detail, result) as printed by :func:`main`."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    refs = references.get(name) if seed == 0 else None
    tally = Tally()
    detail: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        metrics = measure_traced(av, workload, seed, seconds, refs, tally, detail)
    else:
        metrics = measure_untraced(av, workload, seed, seconds, refs, first_import, tally, detail)
    detail.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        problems=tally.problems,
        workload_info=tally.info,
        environment=environment(),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return detail, result


def measure_untraced(av, workload, seed, seconds, refs, first_import, tally, detail) -> dict:
    """The end-to-end metrics: set up three times, then pass after pass for ``seconds``."""
    import fresh

    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [first_import] + [fresh.import_seconds(ROOT, env) for _ in range(SETUP_REPEATS - 1)]
    setups = []
    for imported in imports:
        t0 = time.perf_counter()
        inputs = workload.setup(av, seed)
        setups.append(imported + time.perf_counter() - t0)
    walls = []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < seconds:
        wall, records = run_pass(workload, av, inputs, refs)
        walls.append(wall)
        tally.check(workload, records, refs)
    ops = tally.op_latency
    op_tail = percentile(ops, workload.tail_pct)
    metrics = {
        "wall_s": median(walls),
        "op_p50_ms": 1e3 * median(ops),
        "op_tail_ms": 1e3 * op_tail,
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": max(tally.failed / tally.attempted, FAIL_RATIO_FLOOR),
    }
    detail.update(
        passes=len(walls),
        setup_samples_s=setups,
        wall_s={"median": metrics["wall_s"], "tail": tail(walls), "samples": walls},
        op_ms={
            "samples": len(ops),
            "p50": metrics["op_p50_ms"],
            "tail_pct": workload.tail_pct,
            "tail": metrics["op_tail_ms"],
            "beyond_tail": sum(1 for v in ops if v > op_tail),
        },
    )
    return metrics


def measure_traced(av, workload, seed, seconds, refs, tally, detail) -> dict:
    """The per-layer metrics: one traced set-up, then untraced and traced passes in turn."""
    import fresh
    import spans

    t_origin = time.perf_counter()
    tracer = spans.Tracer()
    tracer.start_pass(0)
    with tracer:
        inputs = workload.setup(av, seed)
    walls, traced_walls, op_kinds = [], [], {}
    t_start = time.perf_counter()
    while not traced_walls or time.perf_counter() - t_start < seconds:
        wall, records = run_pass(workload, av, inputs, refs)
        walls.append(wall)
        tally.check(workload, records, refs)
        pass_no = len(traced_walls) + 1
        tracer.start_pass(pass_no)
        with tracer:
            wall, records = run_pass(workload, av, inputs, refs, tracer)
        traced_walls.append(wall)
        op_kinds[pass_no] = [r.step.kind for r in records]
        tally.check(workload, records, refs)
    table = tracer.table()
    per_pass = {
        k: spans.layer_metrics(table, tracer.counts[0] + tracer.counts[k], kinds, k)
        for k, kinds in op_kinds.items()
    }
    for metric, expected in (refs or {}).get("trace_counts", {}).items():
        for k, m in per_pass.items():
            tally.attempted += 1
            if m[metric] != expected:
                tally.fail(f"traced pass {k}: {metric} = {m[metric]} != pinned {expected}")
    # The lower median is an observed value, so counts stay whole numbers.
    metrics = {key: median_low(m[key] for m in per_pass.values()) for key in per_pass[1]}
    metrics["harness.mc_inside_ratio"] = tally.info.get("mc_inside_ratio", 0.0)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cli_metrics, cli_problems, cli_runs = fresh.time_cli(ROOT, env, SETUP_REPEATS)
    metrics.update(cli_metrics)
    tally.attempted += cli_runs
    for message in cli_problems:
        tally.fail(message)
    metrics["trace.overhead_ratio"] = median(traced_walls) / median(walls)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{workload.name}-seed{seed}-spans.csv.gz"
    tracer.write(spans_path, t_origin)
    detail.update(
        untraced_wall_s=walls,
        traced_wall_s=traced_walls,
        spans=len(table),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "activevars" / "__init__.py").is_file():
        print(f"error: no activevars sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    av, first_import = import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "references.json").read_text())
    detail, result = run_benchmark(
        av, first_import, args.workload, args.seed, args.seconds, bool(args.trace), references
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=2) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
