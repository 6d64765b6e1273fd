"""The repo benchmark: one workload per run, result as the last stdout line.

Run from the repository root::

    python3 perfbench/run.py --workload table-1e5 --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans recorded;
``--trace 1`` wraps the layers' entry points (see ``layers.py``), prints
the per-layer metrics and writes the spans to ``.perfbench/``.  The
workloads are described in ``NOTES.md``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a run that fails a correctness gate prints
the failures and exits with status 1.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"


def source_digest() -> str:
    """Content digest of ``src/``: identifies the code without git."""
    digest = hashlib.blake2b(digest_size=12)
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp(args, phases) -> dict:
    import numpy
    import scipy

    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        top, sha = "", "unavailable"
    if Path(top).resolve() != ROOT:  # a checkout inside another repository
        sha = "unavailable"
    try:
        import numba  # noqa: F401

        numba_available = True
    except ImportError:
        numba_available = False
    return {
        "git_sha": sha,
        "src_digest": source_digest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba_available,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "phases": phases,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program and the benchmark's helpers import from the checkout.
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # Sidecars stay inside the checkout; no fault plan, default verification.
    os.environ["REPRO_MMAP_DIR"] = str(OUTPUT / "mmap")
    for name in ("REPRO_FAULTS", "REPRO_FAULTS_STATE", "REPRO_VERIFY_ARTIFACTS"):
        os.environ.pop(name, None)

    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    tracer = Tracer(enabled=bool(args.trace))
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stamp = environment_stamp(args, outcome.phases)
    print("environment " + json.dumps(stamp, sort_keys=True))
    if args.trace:
        path = OUTPUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    failed_ratio = outcome.failed / max(outcome.attempted, 1)
    if outcome.gate_failures:
        for failure in outcome.gate_failures:
            print(f"GATE FAILED: {failure}")
        print(json.dumps({
            "correct": False,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {},
        }))
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        declared = declared["per_layer"]
        # A layer the workload never reaches reads 0.
        values = {metric["name"]: 0.0 for metric in declared}
        values.update(outcome.layers)
    else:
        declared = declared["end_to_end"]
        values = dict(outcome.end_to_end, peak_rss_mb=peak_rss_mb)
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_ratio = {failed_ratio:.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
