#!/usr/bin/env python
"""Diff the last two entries of an append-only ``BENCH_*.json`` file.

Every numeric leaf of an entry's results is a metric named by its
dotted path (``rungs.100000.fleet_walk.seconds``).  The script prints
both entries' metadata, then one row per metric: previous value,
latest value and latest/previous ratio (``-`` where a metric is in
only one of the two entries).  Gates recorded as skipped show up as
the ``skipped`` string leaves they are.

    python scripts/bench_compare.py benchmarks/results/BENCH_scale.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Union

Leaf = Union[int, float, str]


def flatten(node, prefix: str = "") -> Dict[str, Leaf]:
    """Numeric and ``skipped`` leaves of *node*, keyed by dotted path."""
    leaves: Dict[str, Leaf] = {}
    if isinstance(node, dict):
        for key, value in node.items():
            leaves.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            leaves.update(flatten(value, f"{prefix}{index}."))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        leaves[prefix[:-1]] = node
    elif isinstance(node, str) and prefix.endswith("skipped."):
        leaves[prefix[:-1]] = node
    return leaves


def compare(previous: dict, latest: dict) -> List[str]:
    """Rows ``metric  previous  latest  ratio`` for two entries' results."""
    before, after = flatten(previous), flatten(latest)
    rows = []
    for metric in sorted(set(before) | set(after)):
        old, new = before.get(metric, "-"), after.get(metric, "-")
        ratio = "-"
        if isinstance(old, (int, float)) and isinstance(new, (int, float)) and old:
            ratio = f"{new / old:.2f}x"
        rows.append(f"{metric}  {old}  {new}  {ratio}")
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    entries = json.loads(Path(argv[0]).read_text(encoding="utf-8")).get("entries", [])
    if len(entries) < 2:
        print(f"{argv[0]}: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
              "nothing to compare", file=sys.stderr)
        return 1
    previous, latest = entries[-2], entries[-1]
    print(f"previous: {json.dumps(previous['meta'], sort_keys=True)}")
    print(f"latest:   {json.dumps(latest['meta'], sort_keys=True)}")
    print("metric  previous  latest  latest/previous")
    for row in compare(previous["results"], latest["results"]):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
