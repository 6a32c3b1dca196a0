"""Self-check of the benchmark's correctness gate and metric names.

    python3 perfbench/selfcheck.py

For every workload, one reference value the gate relies on is perturbed
and a single seed-0 pass is run: the run must report the failure
(``correct`` false, ``failed`` > 0, ``fail_ratio`` above its floor).  The
unperturbed run must pass, and the metric names it reports, untraced and
traced, must be exactly those declared in BENCHMARK.json.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run


def perturbations(workloads):
    """(workload, label, edit) triples; ``edit`` changes references in place."""

    def bump_point(refs):
        refs["spectral-grid"]["points"]["d=10 eps=0.001"][0] += 1

    def bump_worst(refs):
        pin = refs["label-stream"]["optimal"]["custom d=3 eps=0.002"]
        pin["worst_case_error"] *= 1.0 + 1e-9

    def bump_kept(refs):
        refs["cda-apply"]["kept"]["d=5 eps=0.01"] -= 1

    def tighten_mean(_refs):
        workloads.MEAN_ATOL = 1e-9

    return [
        ("spectral-grid", "pinned n_terms + 1", bump_point),
        ("label-stream", "pinned worst_case_error * (1 + 1e-9)", bump_worst),
        ("cda-apply", "pinned kept total - 1", bump_kept),
        ("mc-pointwise", "mean-function tolerance 1e-9", tighten_mean),
    ]


def main() -> int:
    av, first_import = run.import_library()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    references = json.loads((run.HERE / "references.json").read_text())
    ok = True

    def report(passed: bool, message: str) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {message}")

    for name, label, edit in perturbations(workloads):
        saved = workloads.MEAN_ATOL
        refs = copy.deepcopy(references)
        edit(refs)
        _, result = run.run_benchmark(av, first_import, name, 0, 0.0, False, refs)
        workloads.MEAN_ATOL = saved
        fail_ratio = result["metrics"]["fail_ratio"]["value"]
        caught = not result["correct"] and result["failed"] > 0 and fail_ratio > run.FAIL_RATIO_FLOOR
        report(caught, f"{name}: {label} -> failed={result['failed']} fail_ratio={fail_ratio:.3g}")

    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        _, result = run.run_benchmark(av, first_import, "label-stream", 0, 0.0, trace, references)
        report(result["correct"], f"label-stream trace={int(trace)} unperturbed run passes")
        declared = [m["name"] for m in spec[key]]
        report(
            sorted(declared) == sorted(result["metrics"]),
            f"trace={int(trace)} reports exactly the {len(declared)} {key} metrics",
        )
        units = {m["name"]: m["unit"] for m in spec[key]}
        wrong = [k for k, v in result["metrics"].items() if units.get(k) != v["unit"]]
        report(not wrong, f"trace={int(trace)} units match BENCHMARK.json {wrong or ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
