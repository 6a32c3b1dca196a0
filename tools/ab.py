"""Alternating A/B runs of the benchmark: a git revision against the working tree.

    python3 tools/ab.py --base REV --pairs N --workload W [--seconds S]

The committed files of ``REV`` are extracted into a temporary directory
with ``git archive``, which is removed when the runs end.  Each pair runs
``perfbench/run.py --workload W --seed 0 --seconds S --trace 0`` once in
that directory and once in this checkout, each side with its own
unchanged runner and sources; the side that goes first alternates from
pair to pair.  For each end-to-end metric of ``BENCHMARK.json`` the
script prints both medians, the distance between the quartiles of the
base's runs, the change's median relative to the base, the change's win
count (the pairs in which it was strictly better) and the two-sided
sign-test p-value of that count, with tied pairs left out.  It exits 1
when a run fails or reports ``correct: false``, and judges no gain.
``--seconds`` defaults to the benchmark's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, target: Path) -> None:
    """Write the committed files of ``rev`` under ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:  # a Python without extraction filters
            tar.extractall(target)


def run_side(root: Path, workload: str, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """One seed-0 benchmark run in ``root``; the runner's detail and result objects."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0"]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        detail, result = {}, {"correct": False, "metrics": {}}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(f"{root}: run failed (exit {proc.returncode})\n{proc.stderr}")
        result["correct"] = False
    return detail, result


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties are not counted)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2**n)


def spread(values: list[float]) -> float:
    """The distance between the quartiles of ``values``; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    low, _, high = quantiles(values, n=4)
    return high - low


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    # A terminated run still stops its child and removes the extracted tree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    metrics = bench["end_to_end"]
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_root = Path(tmp)
        extract(args.base, base_root)
        sides = {"base": base_root, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_side(sides[side], args.workload, args.seconds)[1])
    ok = all(r["correct"] for side in runs.values() for r in side)
    print(f"workload {args.workload}, base {args.base}, {args.pairs} pairs of {args.seconds:g} s")
    print(
        f"{'metric':<12} {'unit':<6} {'base':>12} {'base IQR':>12} {'change':>12}"
        f" {'ratio':>8} {'wins':>6} {'p':>8}"
    )
    for m in metrics:
        name = m["name"]
        try:
            base = [r["metrics"][name]["value"] for r in runs["base"]]
            change = [r["metrics"][name]["value"] for r in runs["change"]]
        except KeyError:
            print(f"{name:<12} missing from a run")
            ok = False
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        mb, mc = median(base), median(change)
        ratio = f"{mc / mb:.3f}" if mb else "-"
        print(
            f"{name:<12} {m['unit']:<6} {mb:>12.6g} {spread(base):>12.6g} {mc:>12.6g}"
            f" {ratio:>8} {wins:>3}/{len(base)} {sign_test(wins, losses):>8.4f}"
        )
    if not ok:
        print("a run failed or reported correct: false", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
