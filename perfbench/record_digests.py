"""Record the digest of every ``table-1e5`` table seed.

The benchmark's correctness gate compares each table it runs with the
digest stored here for that seed.  Re-record only when a change is
meant to alter table outputs, and say so with the change::

    python3 perfbench/record_digests.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.experiments.algorithms import build_algorithm_suite  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DIGESTS, TABLE_SEEDS, build_graph, run_table, table_digest  # noqa: E402


def main() -> None:
    graph = build_graph(Tracer(enabled=False))
    suite = build_algorithm_suite(graph)
    tables = {str(seed): table_digest(run_table(graph, suite, seed)) for seed in TABLE_SEEDS}
    DIGESTS.write_text(json.dumps({
        "graph": {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges},
        "tables": tables,
    }, indent=2) + "\n")
    print(f"recorded {len(tables)} table digests in {DIGESTS.name}")


if __name__ == "__main__":
    main()
