"""Timings that need a fresh interpreter: the package import and the CLI."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import median

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import activevars; "
    "print(repr(time.perf_counter() - t))"
)

# The five ROADMAP baseline subcommands; `complexity` prices the acceptance grid.
CLI_COMMANDS = {
    "complexity": [
        "complexity", "--kernel", "korobov:1", "--n-eigenvalues", "40000",
        "--eps-grid", "1e-2,1e-3,1e-4,1e-5", "--d-grid", "2,5,10,50,100",
        "--cost", "exp:1", "--tau", "1", "--format", "json",
    ],
    "optimal": ["optimal", "--kernel", "korobov:1", "--epsilon", "0.1", "--d", "4", "--top", "5"],
    "cda": [
        "cda", "--kernel", "korobov:1", "--epsilon", "0.01", "--d", "10",
        "--cost", "exp:1", "--format", "json",
    ],
    "mc-check": ["mc-check", "--kernel", "korobov:1", "--d", "3", "--trials", "50"],
    "table": ["table"],
}
CLI_REPEATS = 2
TIMEOUT_S = 120


def _run(argv: list[str], root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=root, env=env, capture_output=True, timeout=TIMEOUT_S
    )


def import_seconds(root: Path, env: dict) -> float:
    """Time ``import activevars`` inside a fresh interpreter."""
    proc = _run(["-c", IMPORT_SNIPPET], root, env)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.decode(errors='replace')}")
    return float(proc.stdout.decode().strip())


def time_cli(root: Path, env: dict, import_repeats: int) -> tuple[dict, list[str], int]:
    """``cli.*`` metrics, the problems found and the number of runs attempted.

    Every subcommand runs ``CLI_REPEATS`` times in a fresh process; a
    nonzero exit or a byte difference between the outputs is a failure.
    """
    metrics = {
        "cli.import_s": median(import_seconds(root, env) for _ in range(import_repeats))
    }
    problems = []
    for name, argv in CLI_COMMANDS.items():
        walls, outputs = [], []
        for _ in range(CLI_REPEATS):
            t0 = time.perf_counter()
            proc = _run(["-m", "activevars.cli", *argv], root, env)
            walls.append(time.perf_counter() - t0)
            outputs.append(proc.stdout)
            if proc.returncode != 0:
                problems.append(f"cli {name} exited {proc.returncode}")
        if len(set(outputs)) != 1:
            problems.append(f"cli {name} output differs between identical runs")
        metrics[f"cli.{name}_s"] = median(walls)
    return metrics, problems, len(CLI_COMMANDS) * CLI_REPEATS
