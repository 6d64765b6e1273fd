"""Append-only BENCH files and the entry differ."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_support(tmp_path, monkeypatch):
    module = _load(REPO_ROOT / "benchmarks" / "bench_support.py", "bench_support_under_test")
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    return module


@pytest.fixture(scope="module")
def bench_compare():
    return _load(REPO_ROOT / "scripts" / "bench_compare.py", "bench_compare_under_test")


class TestAppendOnlyBench:
    def test_runs_append_entries_with_their_metadata(self, bench_support, tmp_path):
        bench_support.write_json("BENCH_x.json", {"walk": {"seconds": 2.0}}, rungs=[10, 100])
        bench_support.write_json("BENCH_x.json", {"walk": {"seconds": 1.0}})
        entries = json.loads((tmp_path / "BENCH_x.json").read_text())["entries"]
        assert [entry["results"]["walk"]["seconds"] for entry in entries] == [2.0, 1.0]
        meta = entries[0]["meta"]
        assert set(meta) == {"git_sha", "date", "nproc", "python", "numpy", "rungs"}
        assert meta["rungs"] == [10, 100]
        assert entries[1]["meta"]["rungs"] is None

    def test_a_legacy_file_becomes_the_first_entry(self, bench_support, tmp_path):
        (tmp_path / "BENCH_x.json").write_text(json.dumps({"walk": {"seconds": 3.0}}))
        bench_support.write_json("BENCH_x.json", {"walk": {"seconds": 1.5}})
        entries = json.loads((tmp_path / "BENCH_x.json").read_text())["entries"]
        assert entries[0]["results"] == {"walk": {"seconds": 3.0}}
        assert "legacy" in entries[0]["meta"]
        assert entries[1]["results"] == {"walk": {"seconds": 1.5}}


class TestBenchCompare:
    def test_rows_pair_metrics_by_dotted_path(self, bench_compare):
        rows = bench_compare.compare(
            {"rungs": {"10": {"seconds": 2.0}}, "floors": {"skipped": "no rung"}},
            {"rungs": {"10": {"seconds": 1.0}, "20": {"seconds": 4.0}}, "ok": True},
        )
        assert rows == [
            "floors.skipped  no rung  -  -",
            "rungs.10.seconds  2.0  1.0  0.50x",
            "rungs.20.seconds  -  4.0  -",
        ]

    def test_main_diffs_the_last_two_entries(self, bench_support, bench_compare, tmp_path, capsys):
        path = tmp_path / "BENCH_x.json"
        for seconds in (4.0, 2.0, 1.0):
            bench_support.write_json(path.name, {"seconds": seconds})
        assert bench_compare.main([str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "seconds  2.0  1.0  0.50x"

    def test_one_entry_has_nothing_to_compare(self, bench_support, bench_compare, tmp_path):
        bench_support.write_json("BENCH_x.json", {"seconds": 1.0})
        assert bench_compare.main([str(tmp_path / "BENCH_x.json")]) == 1
