"""One point of the benchmark's trajectory: every workload at seed 0, into one JSON file.

    python3 tools/bench.py --out FILE [--seconds S]

For each workload of ``BENCHMARK.json`` the script runs the unchanged
``perfbench/run.py --workload W --seed 0 --seconds S`` of this checkout
twice, with ``--trace 0`` and then with ``--trace 1``.  ``FILE`` gets, per
workload, the end-to-end metrics of the untraced run and the exact counters
of the traced one (every metric it reports in ``count``), together with the
Python, numpy and scipy versions the runner records, the commit and whether
the checkout had uncommitted changes.  An existing ``FILE``'s ``previous``
entry, which quotes the point before this one, is kept.  The script exits 1
when a run fails or reports ``correct: false``, and then writes nothing.
``--seconds`` defaults to the benchmark's ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

from ab import ROOT, run_side


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    args = parser.parse_args(argv)
    # A terminated run still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ok, environment, workloads = True, None, {}
    for workload in (w["name"] for w in bench["workloads"]):
        _, untraced = run_side(ROOT, workload, args.seconds)
        detail, traced = run_side(ROOT, workload, args.seconds, trace=1)
        ok = ok and untraced["correct"] and traced["correct"]
        environment = environment or detail.get("environment")
        metrics = untraced["metrics"]
        workloads[workload] = {
            "end_to_end": {
                m["name"]: metrics[m["name"]]["value"]
                for m in bench["end_to_end"]
                if m["name"] in metrics
            },
            "counters": {
                name: m["value"] for name, m in traced["metrics"].items() if m["unit"] == "count"
            },
        }
        print(f"{workload}: {json.dumps(workloads[workload]['end_to_end'])}")
    if not ok:
        print("a run failed or reported correct: false; nothing written", file=sys.stderr)
        return 1
    previous = json.loads(args.out.read_text()).get("previous") if args.out.is_file() else None
    doc = {
        "commit": git("rev-parse", "HEAD"),
        "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no")),
        "seed": 0,
        "seconds": args.seconds,
        "versions": {k: (environment or {}).get(k) for k in ("python", "numpy", "scipy")},
        "workloads": workloads,
        "previous": previous,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
