"""Command-line interface.

Subcommands
-----------
bounds      truncation levels over an (eps, d) grid as CSV/JSON
spectrum    serialize a univariate spectrum
cda         plan and price the changing-dimension algorithm
optimal     the spectral algorithm: term count, error, active variables
complexity  complexity grid plus least-squares fits over it
table       reproduce the factorial-majorant reference table
mc-check    Monte Carlo cross-check of exact truncation errors

Each subcommand accepts only the flags it reads.  Exit codes: 0 on success,
2 when a reference check fails, 1 on usage errors, 141 (128 + SIGPIPE) when
standard output is closed before the output is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from .cda import build_plan, price_plan
from .cost import _FAMILIES, CostModel, complexity_curve
from .errors import ActiveVarsError, InvalidArgumentError, InvalidModelError
from .harness import (
    GOLDEN_MAJORANT_CEILINGS,
    mc_l2_error,
    single_subset_function,
    table_check,
)
from .optimal import _log_term_bound, optimal_algorithm
from .space import g_norm_exact
from .spectrum import (
    KernelSpec,
    Spectrum,
    _exp_or_raise,
    build_spectrum,
    power_sum,
    spectrum_to_json,
)
from .truncation import factorial_majorant, orthogonal_truncation_level, truncation_level

USAGE_ERROR = 1
CHECK_FAILED = 2
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for failed checks."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_kernel(text: str) -> tuple[str, float | None, str | None]:
    if text == "wiener":
        return "wiener", None, None
    if text.startswith("korobov:"):
        return "korobov", float(text.split(":", 1)[1]), None
    if text.startswith("custom:"):
        return "custom", None, text.split(":", 1)[1]
    raise argparse.ArgumentTypeError(
        f"kernel must be wiener, korobov:R or custom:FILE, got {text!r}"
    )


def _parse_cost(text: str) -> CostModel:
    for family, row in _FAMILIES.items():
        if row.parameter is None and text == row.prefix:
            return CostModel(family=family)
        if row.parameter is not None and text.startswith(row.prefix + ":"):
            value = float(text.split(":", 1)[1])
            try:
                return CostModel(family=family, **{row.parameter: value})
            except InvalidModelError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"unknown cost model {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _spectrum(args: argparse.Namespace) -> Spectrum:
    kind, r, custom_path = args.kernel
    if kind == "custom":
        with open(custom_path) as fh:
            try:
                values = json.load(fh)
            except ValueError as exc:
                raise InvalidArgumentError(f"{custom_path} is not JSON: {exc}") from exc
        if type(values) is not list or any(type(v) not in (int, float) for v in values):
            raise InvalidArgumentError(f"{custom_path} must hold a JSON list of numbers")
        spec = KernelSpec(kind="custom", eigenvalues=tuple(values))
    else:
        spec = KernelSpec(kind=kind, r=r)
    c0sq_mode = "paper_bound" if args.c0sq_mode == "paper" else "exact"
    return build_spectrum(spec, args.n_eigenvalues, c0sq_mode)


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(
    args: argparse.Namespace, header: list[str], rows: list[list], summary: dict
) -> None:
    if args.format == "json":
        text = json.dumps(
            {"rows": [dict(zip(header, row)) for row in rows], "summary": summary},
            sort_keys=True,
            indent=2,
        )
    else:
        buf = io.StringIO()
        for key in sorted(summary):
            buf.write(f"# {key}={summary[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue().rstrip("\n")
    _write(args.out, text)


# -- subcommand implementations ----------------------------------------------


def _run_bounds(args: argparse.Namespace) -> int:
    s = _spectrum(args)
    rows = []
    for d in args.d_grid:
        for eps in args.eps_grid:
            rep = truncation_level(eps, d, s.c0sq)
            rows.append(
                [
                    eps,
                    d,
                    rep.level,
                    rep.tail_at_level,
                    math.ceil(factorial_majorant(eps, s.c0sq)),
                    orthogonal_truncation_level(eps, d, s.c0sq, args.c_const),
                ]
            )
    _emit(args, ["epsilon", "d", "m1", "tail_at_m1", "ceil_big_m", "m2"], rows, {})
    return 0


def _run_spectrum(args: argparse.Namespace) -> int:
    _write(args.out, spectrum_to_json(_spectrum(args)))
    return 0


def _run_cda(args: argparse.Namespace) -> int:
    s = _spectrum(args)
    plan = build_plan(args.epsilon, args.d, s, tau=args.tau)
    price = price_plan(plan, args.cost)
    rows = [[row.cardinality, row.eps_l, row.n_l] for row in plan.rows]
    summary = {
        "epsilon": plan.epsilon,
        "d": plan.d,
        "tau": plan.tau,
        "m1": plan.level,
        "R": plan.big_r,
        "ell_star": plan.ell_star,
        "l_tau": plan.l_tau_value,
        "exact_cost": price.exact,
        "bound_cost": price.bound,
        "log_exact_cost": price.log_exact,
        "log_bound_cost": price.log_bound,
    }
    _emit(args, ["cardinality", "eps_l", "n_l"], rows, summary)
    return 0


def _run_optimal(args: argparse.Namespace) -> int:
    s = _spectrum(args)
    epsilon, d, tau = args.epsilon, args.d, args.tau
    alg = optimal_algorithm(epsilon, d, s, c_const=args.c_const)
    rows = [
        [e.cardinality, ":".join(map(str, e.indices)), e.value, e.multiplicity]
        for e in alg.entries[: args.top]
    ]
    summary = {
        "epsilon": epsilon,
        "d": d,
        "n": alg.n_terms,
        "worst_case_error": alg.worst_case_error,
        "max_act": alg.max_act,
        "m2_ceiling": alg.m2_ceiling,
    }
    if tau is not None:
        cap = _exp_or_raise(
            _log_term_bound(alg.epsilon_effective, d, power_sum(s, tau), tau),
            f"the term bound n_cap is outside double range at tau = {tau}",
        )
        summary["n_cap"] = math.ceil(cap) - 1
    _emit(args, ["cardinality", "indices", "eigenvalue", "multiplicity"], rows, summary)
    return 0


def _run_complexity(args: argparse.Namespace) -> int:
    report = complexity_curve(
        _spectrum(args), args.c_const, args.cost, args.eps_grid, args.d_grid, tau=args.tau
    )
    rows = [
        [p.d, p.epsilon, p.comp, p.bound, p.n_terms, p.max_act, int(p.within_bound)]
        for p in report.points
    ]
    summary = {
        "p_str_fit": report.p_str_fit,
        "p_str_residual": report.p_str_residual,
        "qpt_t_fit": report.qpt_t_fit,
        "qpt_c_fit": report.qpt_c_fit,
        "qpt_residual": report.qpt_residual,
        "flags": list(report.flags),
    }
    _emit(
        args,
        ["d", "epsilon", "comp", "bound", "n_terms", "max_act", "within_bound"],
        rows,
        summary,
    )
    return 0


def _run_table(args: argparse.Namespace) -> int:
    rows, diffs = table_check()
    _emit(
        args,
        ["q", "ceil_majorant", "expected"],
        [[q, got, want] for (q, got), want in zip(rows, GOLDEN_MAJORANT_CEILINGS)],
        {"mismatches": diffs} if diffs else {},
    )
    if diffs:
        for line in diffs:
            print(f"MISMATCH {line}", file=sys.stderr)
        return CHECK_FAILED
    return 0


def _run_mc_check(args: argparse.Namespace) -> int:
    s = _spectrum(args)
    d, trials = args.d, args.trials
    rows = []
    inside = 0
    for trial in range(trials):
        u = tuple(range(1, min(2, d) + 1))
        k = tuple([1 + (trial % 3)] * len(u))
        f = single_subset_function(d, u, k, value=1.0)
        approx = single_subset_function(d, u, k, value=0.0)
        exact = g_norm_exact(f, s, orthogonal=True).value
        est, se = mc_l2_error(f, approx, s, samples=args.samples, seed=args.seed + trial)
        ok = abs(exact - est) <= 3.0 * se if se > 0 else exact == est
        inside += int(ok)
        rows.append([trial, exact, est, se, int(ok)])
    needed = math.ceil(0.94 * trials)
    _emit(
        args,
        ["trial", "exact", "estimate", "std_error", "inside_3_sigma"],
        rows,
        {"inside": inside, "trials": trials, "needed": needed},
    )
    return 0 if inside >= needed else CHECK_FAILED


# -- argument wiring -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="activevars", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add(name, run, spectrum: bool = True, fmt: bool = True) -> argparse.ArgumentParser:
        """A subparser for ``run`` with the spectrum and output flags it reads."""
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if spectrum:
            p.add_argument("--kernel", type=_parse_kernel, default="wiener")
            p.add_argument("--c0sq-mode", choices=("exact", "paper"), default="exact")
            p.add_argument("--n-eigenvalues", type=int, default=10_000)
        p.add_argument("--out", default=None)
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = add("bounds", _run_bounds)
    p.add_argument("--eps-grid", type=_floats, required=True)
    p.add_argument("--d-grid", type=_ints, required=True)
    p.add_argument("--c-const", type=float, default=1.0)

    add("spectrum", _run_spectrum, fmt=False)

    p = add("cda", _run_cda)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--cost", type=_parse_cost, default="constant")

    p = add("optimal", _run_optimal)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c-const", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--top", type=_at_least(0), default=10)

    p = add("complexity", _run_complexity)
    p.add_argument("--eps-grid", type=_floats, required=True)
    p.add_argument("--d-grid", type=_ints, required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--cost", type=_parse_cost, default="constant")
    p.add_argument("--c-const", type=float, default=1.0)

    add("table", _run_table, spectrum=False)

    p = add("mc-check", _run_mc_check)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--samples", type=_at_least(2), default=100_000)
    p.add_argument("--trials", type=_at_least(1), default=50)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left: point stdout at devnull so the flush at exit is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except (ActiveVarsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
