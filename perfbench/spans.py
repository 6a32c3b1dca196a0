"""Span tracing of the library's layers, from outside the library.

:class:`Tracer` replaces each traced function or method with a wrapper at
every name its callers look it up by: a method on its class, and a
function in every ``activevars`` module that bound it by name.  Each call
records one span (id, name, start, end, parent span, pass, operation)
into a flat in-memory array; nested calls become child spans, and a
span's self time is its duration minus its children's.  Counts are read
off the returned objects by small per-name hooks.  Spans are written out
once the run ends.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

import numpy as np

FUNCTIONS = (
    "spectrum.build_spectrum",
    "spectrum.power_sum",
    "spectrum.eval_eigenfunction",
    "optimal.optimal_algorithm",
    "truncation.truncation_level",
    "truncation.orthogonal_truncation_level",
    "cda.build_plan",
    "cda.price_plan",
    "cost.complexity_curve",
    "space.eval_pointwise",
    "space.g_norm_exact",
    "space.h_norm",
    "harness.random_function",
    "harness.mc_l2_error",
)
METHODS = (
    "spectrum.Spectrum.eigenvalue",
    "optimal.TensorEigenStream.__next__",
    "optimal.TensorEigenStream.next_eigenvalue",
    "cda.CdaApplier.apply",
)
NAMES = FUNCTIONS + METHODS
PACKAGE = "activevars"
FIELDS = 7  # id, name index, start, end, parent id, pass, operation index


def _hook_optimal(counts, _kind, _args, _kwargs, alg) -> None:
    counts["optimal.entries_kept"] += len(alg.entries)
    counts["optimal.terms_counted"] += alg.n_terms


def _hook_curve(counts, _kind, _args, _kwargs, report) -> None:
    for p in report.points:
        if p.flagged:
            counts["cost.points_flagged"] += 1
        else:
            counts["cost.points_priced"] += 1
            counts["optimal.terms_counted"] += p.n_terms


def _hook_apply(counts, kind, args, _kwargs, result) -> None:
    applier, f = args[0], args[1]
    if kind == "rank":
        plan = applier.plan
        counts["cda.rank_budget"] += sum(row.n_l for row in plan.rows if row.cardinality >= 2)
        return
    counts["cda.coeffs_seen"] += sum(len(c) for c in f.terms.values())
    counts["cda.coeffs_kept"] += sum(len(c) for c in result.approx.terms.values())


def _hook_pointwise(counts, _kind, args, _kwargs, _out) -> None:
    f, x = args[0], args[2]
    per_point = sum(len(u) * len(c) for u, c in f.terms.items())
    counts["space.term_point_products"] += per_point * len(x)


def _hook_mc(counts, _kind, args, kwargs, _out) -> None:
    counts["harness.mc_samples"] += kwargs["samples"] if "samples" in kwargs else args[3]


HOOKS = {
    "optimal.optimal_algorithm": _hook_optimal,
    "cost.complexity_curve": _hook_curve,
    "cda.CdaApplier.apply": _hook_apply,
    "space.eval_pointwise": _hook_pointwise,
    "harness.mc_l2_error": _hook_mc,
}


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` scopes them."""

    def __init__(self) -> None:
        self.rows = array("d")
        self.counts: dict[int, Counter] = {}
        self.pass_no = 0
        self.op = -1
        self.kind = "setup"
        self._next_id = 0
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    def start_pass(self, pass_no: int) -> None:
        self.pass_no = pass_no
        self.counts[pass_no] = Counter()
        self.enter_op(-1, "setup")

    def enter_op(self, op: int, kind: str) -> None:
        self.op = op
        self.kind = kind

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name_idx: int, fn, hook):
        rows = self.rows
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._current
            sid = tracer._next_id
            tracer._next_id = sid + 1
            tracer._current = sid
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._current = parent
                rows.extend((sid, name_idx, t0, t1, parent, tracer.pass_no, tracer.op))
            if hook is not None:
                hook(tracer.counts[tracer.pass_no], tracer.kind, args, kwargs, out)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for idx, name in enumerate(NAMES):
            module_name, *attrs = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if name in METHODS:
                cls = getattr(owner, attrs[0])
                orig = cls.__dict__[attrs[1]]
                self._set(cls, attrs[1], self._wrap(idx, orig, HOOKS.get(name)))
                continue
            orig = getattr(owner, attrs[0])
            wrapper = self._wrap(idx, orig, HOOKS.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, wrapper)
        return self

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *_exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def table(self) -> np.ndarray:
        """Spans as an array ordered by id, with duration and self time appended."""
        spans = np.frombuffer(self.rows, dtype=float).reshape(-1, FIELDS)
        spans = spans[np.argsort(spans[:, 0], kind="stable")]
        dur = spans[:, 3] - spans[:, 2]
        parent = spans[:, 4].astype(np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
        return np.column_stack([spans, dur, dur - children])

    def write(self, path, t_origin: float) -> None:
        spans = np.frombuffer(self.rows, dtype=float).reshape(-1, FIELDS)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,pass,op\n")
            for sid, nidx, t0, t1, parent, pass_no, op in spans.tolist():
                fh.write(
                    f"{int(sid)},{NAMES[int(nidx)]},{t0 - t_origin:.9f},{t1 - t_origin:.9f},"
                    f"{int(parent)},{int(pass_no)},{int(op)}\n"
                )


def layer_metrics(table: np.ndarray, counts: Counter, op_kinds: list[str], pass_no: int) -> dict:
    """Per-layer metrics of one traced pass plus the traced setup (pass 0)."""
    rows = table[(table[:, 5] == 0) | (table[:, 5] == pass_no)]
    name = rows[:, 1].astype(np.int64)
    dur, self_t = rows[:, 7], rows[:, 8]
    op = rows[:, 6].astype(np.int64)
    in_pass = rows[:, 5] == pass_no
    rank_ops = np.array([k == "rank" for k in op_kinds] + [False], dtype=bool)
    in_rank = in_pass & rank_ops[np.where(op >= 0, op, len(op_kinds))]

    def pick(n: str, extra=None):
        mask = name == NAMES.index(n)
        return mask if extra is None else mask & extra

    def calls(n, extra=None):
        return int(np.count_nonzero(pick(n, extra)))

    def self_s(n, extra=None):
        return float(self_t[pick(n, extra)].sum())

    def total_s(n, extra=None):
        return float(dur[pick(n, extra)].sum())

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    eig_calls = calls("spectrum.Spectrum.eigenvalue")
    eig_self = self_s("spectrum.Spectrum.eigenvalue")
    labels = calls("optimal.TensorEigenStream.__next__")
    stream_self = self_s("optimal.TensorEigenStream.__next__") + self_s(
        "optimal.TensorEigenStream.next_eigenvalue"
    )
    apply_name = "cda.CdaApplier.apply"
    warm_self = self_s(apply_name, ~in_rank)
    seen, kept = counts["cda.coeffs_seen"], counts["cda.coeffs_kept"]
    pointwise_self = self_s("space.eval_pointwise")
    products = counts["space.term_point_products"]
    return {
        "spectrum.eigenvalue_calls": eig_calls,
        "spectrum.eigenvalue_self_s": eig_self,
        "spectrum.eigenvalue_us_per_call": ratio(eig_self, eig_calls, 1e6),
        "spectrum.power_sum_calls": calls("spectrum.power_sum"),
        "spectrum.power_sum_self_s": self_s("spectrum.power_sum"),
        "spectrum.eigenfunction_calls": calls("spectrum.eval_eigenfunction"),
        "spectrum.eigenfunction_self_s": self_s("spectrum.eval_eigenfunction"),
        "spectrum.build_s": total_s("spectrum.build_spectrum"),
        "optimal.labels_popped": labels,
        "optimal.stream_self_s": stream_self,
        "optimal.us_per_label": ratio(stream_self, labels, 1e6),
        "optimal.terms_counted": counts["optimal.terms_counted"],
        "optimal.terms_per_label": ratio(counts["optimal.terms_counted"], labels),
        "optimal.entries_kept": counts["optimal.entries_kept"],
        "optimal.distinct_values": calls("optimal.TensorEigenStream.next_eigenvalue"),
        "cost.curve_calls": calls("cost.complexity_curve"),
        "cost.curve_self_s": self_s("cost.complexity_curve"),
        "cost.points_priced": counts["cost.points_priced"],
        "cost.points_flagged": counts["cost.points_flagged"],
        "cda.build_plan_self_s": self_s("cda.build_plan"),
        "cda.price_plan_self_s": self_s("cda.price_plan"),
        "cda.rank_build_s": total_s(apply_name, in_rank),
        "cda.rank_budget": counts["cda.rank_budget"],
        "cda.applies": calls(apply_name, ~in_rank),
        "cda.apply_warm_self_s": warm_self,
        "cda.coeffs_seen": seen,
        "cda.coeffs_kept": kept,
        "cda.keep_ratio": ratio(kept, seen),
        "cda.us_per_coeff": ratio(warm_self, seen, 1e6),
        "truncation.level_calls": calls("truncation.truncation_level")
        + calls("truncation.orthogonal_truncation_level"),
        "truncation.level_self_s": self_s("truncation.truncation_level")
        + self_s("truncation.orthogonal_truncation_level"),
        "space.eval_pointwise_calls": calls("space.eval_pointwise"),
        "space.eval_pointwise_self_s": pointwise_self,
        "space.term_point_products": products,
        "space.ns_per_term_point": ratio(pointwise_self, products, 1e9),
        "space.g_norm_self_s": self_s("space.g_norm_exact"),
        "space.h_norm_self_s": self_s("space.h_norm"),
        "harness.random_function_s": total_s("harness.random_function"),
        "harness.mc_l2_error_self_s": self_s("harness.mc_l2_error"),
        "harness.mc_samples": counts["harness.mc_samples"],
    }
