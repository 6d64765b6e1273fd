"""Shared helpers for the benchmark harness (see conftest.py for the knobs).

Default settings are scaled down so the full harness finishes on a
laptop; set the environment variables to approach the paper's setting::

    REPRO_REPETITIONS=200 REPRO_DATASET_SCALE=1.0 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

#: Where regenerated tables and figure series are written.
RESULTS_DIR = Path(__file__).parent / "results"

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmark-default experiment size (overridable via the environment).
DEFAULT_REPETITIONS = int(os.environ.get("REPRO_REPETITIONS", "5"))
DEFAULT_SCALE = float(os.environ.get("REPRO_DATASET_SCALE", "0.25"))
DEFAULT_FRACTIONS = (0.01, 0.03, 0.05)
DEFAULT_SEED = 2018


def write_result(name: str, content: str) -> Path:
    """Persist one regenerated artifact under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n", encoding="utf-8")
    return path


def run_metadata(rungs: Optional[Sequence[int]] = None) -> dict:
    """Where and on what a bench run happened: commit, date, machine."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        # Edited sources make the sha a "-dirty" one; earlier results
        # written by the same session do not.
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no",
             "--", ".", ":!benchmarks/results"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if dirty:
            sha += "-dirty"
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rungs": None if rungs is None else [int(rung) for rung in rungs],
    }


def write_json(name: str, payload: dict, rungs: Optional[Sequence[int]] = None) -> Path:
    """Append one run to a perf-trajectory file under ``benchmarks/results/``.

    The file holds ``{"entries": [...]}``, oldest first; each entry is
    ``{"meta": run_metadata(rungs), "results": payload}``, so a partial
    run adds to the record instead of replacing it.  A file from before
    the format becomes the first entry, marked as such.
    ``scripts/bench_compare.py`` diffs the last two entries.
    """
    path = RESULTS_DIR / name
    entries = []
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(existing, dict) and "entries" in existing:
            entries = existing["entries"]
        else:
            entries = [{"meta": {"legacy": "written before entries were appended"},
                        "results": existing}]
    entries.append({"meta": run_metadata(rungs), "results": payload})
    return write_result(name, json.dumps({"entries": entries}, indent=2, sort_keys=True))


def bench_settings() -> dict:
    """The shared (repetitions, scale, fractions, seed) mapping."""
    return {
        "repetitions": DEFAULT_REPETITIONS,
        "scale": DEFAULT_SCALE,
        "fractions": DEFAULT_FRACTIONS,
        "seed": DEFAULT_SEED,
    }


def table_config(settings):
    """Build the ExperimentConfig used by the table benchmarks."""
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        dataset="facebook",  # replaced per-table by run_paper_table
        sample_fractions=settings["fractions"],
        repetitions=settings["repetitions"],
        scale=settings["scale"],
        seed=settings["seed"],
    )


def run_and_record_table(table_number: int, settings) -> "PaperTableResult":
    """Reproduce one NRMSE table (4-17), write the artifact, return the result."""
    from repro.experiments.reporting import format_nrmse_table
    from repro.experiments.tables import run_paper_table

    result = run_paper_table(table_number, table_config(settings))
    definition = result.definition
    reproduced_name, reproduced_value = result.reproduced_best()
    agreement = result.agreement()

    lines = [
        format_nrmse_table(
            result.table,
            caption=(
                f"Reproduction of paper Table {table_number} "
                f"({definition.dataset}, paper label {definition.paper_target_label}, "
                f"reproduced pair {result.table.target_pair}, "
                f"F={result.table.true_count}, "
                f"{result.config.repetitions} repetitions, scale {result.config.scale})"
            ),
        ),
        "",
        f"paper best at 5%|V|          : {definition.paper_best_algorithm} "
        f"(NRMSE {definition.paper_best_nrmse})",
        f"reproduced best (largest col): {reproduced_name} (NRMSE {reproduced_value:.3f})",
        f"winner family matches paper  : {agreement['family_match']}",
        f"proposed beats EX baselines  : {agreement['proposed_wins']}",
    ]
    write_result(f"table{table_number:02d}_{definition.dataset}.txt", "\n".join(lines))
    return result
