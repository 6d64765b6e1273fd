"""The durability layer: atomic writes, manifests, journals, snapshots.

The contract under test is crash consistency: a writer killed at any
instruction leaves either the old artifact (intact) or the new one
(complete), never a torn hybrid; every durable read refuses corrupt
bytes with a typed :class:`~repro.exceptions.ArtifactCorruptError`
instead of walking them.  The writer-kill test SIGKILLs a real
subprocess mid-``write_npz`` and asserts the target survived — that is
the satellite acceptance probe for the torn-sidecar fix.
"""

import os
import signal
import subprocess
import sys
import textwrap
import zipfile

import numpy as np
import pytest

from repro.durability import (
    JOURNAL_SUFFIX,
    SCRATCH_PATTERN,
    ExperimentJournal,
    atomic_write,
    atomic_write_bytes,
    graph_fingerprint,
    journal_is_committed,
    read_blob,
    read_manifest,
    read_records,
    reset_artifact_counters,
    artifact_counters,
    scratch_path,
    suite_fingerprint,
    verify_artifact,
    write_blob,
    write_npz,
)
from repro.exceptions import (
    ArtifactCorruptError,
    ConfigurationError,
    ExperimentError,
)
from repro.graph.csr import CSRGraph
from repro.graph.store import sweep_orphan_spills
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    install_injector,
)


@pytest.fixture(autouse=True)
def _clean_injector_and_counters():
    previous = install_injector(None)
    reset_artifact_counters()
    yield
    install_injector(previous)


def _arrays():
    return {
        "indptr": np.arange(0, 33, 4, dtype=np.int64),
        "indices": np.arange(32, dtype=np.int32),
    }


class TestAtomicWrite:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        # Overwrite is equally atomic and leaves no scratch behind.
        atomic_write_bytes(target, b"payload-2")
        assert target.read_bytes() == b"payload-2"
        assert list(tmp_path.iterdir()) == [target]

    def test_scratch_names_match_the_sweep_pattern(self, tmp_path):
        scratch = scratch_path(tmp_path / "artifact.npz")
        match = SCRATCH_PATTERN.match(scratch.name)
        assert match is not None
        assert int(match.group("pid")) == os.getpid()

    def test_failing_writer_leaves_target_and_no_scratch(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")

        def writer(scratch):
            scratch.write_bytes(b"half-written")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(target, writer)
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_sigkilled_writer_leaves_target_intact(self, tmp_path):
        """The writer-kill regression: SIGKILL mid-write tears nothing.

        The child overwrites an existing ``.npz`` through
        :func:`write_npz`, but its writer callback signals readiness and
        stalls before the commit step — exactly the window where the old
        in-place ``np.savez`` used to leave a torn file.
        """
        target = tmp_path / "spill.npz"
        write_npz(target, _arrays())
        before = target.read_bytes()

        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                textwrap.dedent(
                    """
                    import sys, time
                    import numpy as np
                    from repro.durability import atomic
                    from repro.durability.manifest import write_npz

                    original = atomic.commit_scratch

                    def stalled(scratch, target):
                        print("mid-write", flush=True)
                        time.sleep(60)
                        original(scratch, target)

                    atomic.commit_scratch = stalled
                    write_npz(
                        sys.argv[1],
                        {"indptr": np.zeros(9, dtype=np.int64),
                         "indices": np.zeros(0, dtype=np.int32)},
                    )
                    """
                ),
                str(target),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        try:
            assert child.stdout.readline().strip() == "mid-write"
            child.kill()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL

        # Old artifact byte-identical, and it still verifies.
        assert target.read_bytes() == before
        assert verify_artifact(target, mode="full") == "verified"
        # The only garbage is a pid-stamped scratch the sweep can claim.
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert len(leftovers) == 1
        match = SCRATCH_PATTERN.match(leftovers[0].name)
        assert match is not None and int(match.group("pid")) == child.pid
        victims = sweep_orphan_spills(tmp_path)
        assert victims == leftovers
        assert list(tmp_path.iterdir()) == [target]


class TestManifest:
    def test_write_npz_is_a_plain_npz_with_a_manifest(self, tmp_path):
        target = tmp_path / "artifact.npz"
        arrays = _arrays()
        write_npz(target, arrays)
        with np.load(target) as loaded:
            for name, expected in arrays.items():
                np.testing.assert_array_equal(loaded[name], expected)
        manifest = read_manifest(target)
        assert manifest is not None
        assert sorted(manifest["members"]) == ["indices.npy", "indptr.npy"]

    @pytest.mark.parametrize("mode,verdict", [("full", "verified"), ("sampled", "sampled")])
    def test_intact_artifact_verifies(self, tmp_path, mode, verdict):
        target = tmp_path / "artifact.npz"
        write_npz(target, _arrays())
        assert verify_artifact(target, mode=mode) == verdict
        assert artifact_counters()["verified"] == 1

    def test_bit_flip_is_detected(self, tmp_path):
        target = tmp_path / "artifact.npz"
        write_npz(target, _arrays())
        raw = bytearray(target.read_bytes())
        # Flip a byte inside member data (past the first local header).
        raw[200] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError) as excinfo:
            verify_artifact(target, mode="full")
        assert excinfo.value.retryable
        assert artifact_counters()["failed"] == 1

    def test_truncated_artifact_is_detected(self, tmp_path):
        target = tmp_path / "artifact.npz"
        write_npz(target, _arrays())
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactCorruptError):
            verify_artifact(target, mode="sampled")

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/io"), reason="needs Linux per-process I/O counters"
    )
    def test_sampled_mode_reads_only_the_sampled_pages(self, tmp_path):
        from repro.durability.manifest import PAGE_BYTES, SAMPLE_PAGES

        target = tmp_path / "big.npz"
        pages = 4 * SAMPLE_PAGES  # so sampling skips three quarters of each member
        write_npz(
            target,
            {
                "a": np.arange(pages * PAGE_BYTES // 8, dtype=np.int64),
                "b": np.ones(pages * PAGE_BYTES // 8, dtype=np.float64),
            },
        )

        def bytes_read():
            with open("/proc/self/io") as counters:
                for line in counters:
                    if line.startswith("rchar:"):
                        return int(line.split()[1])
            raise AssertionError("no rchar in /proc/self/io")

        before = bytes_read()
        assert verify_artifact(target, mode="sampled") == "sampled"
        read = bytes_read() - before
        header_slack = 256 * 1024  # central directory, manifest, local headers
        assert read <= 2 * SAMPLE_PAGES * PAGE_BYTES + header_slack, read

    def test_sampled_mode_catches_damage_in_a_sampled_page(self, tmp_path):
        from repro.durability.manifest import PAGE_BYTES

        target = tmp_path / "big.npz"
        write_npz(target, {"a": np.zeros(3 * PAGE_BYTES // 8, dtype=np.int64)})
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # page 1 of 3: every page is sampled
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError, match="page 1 digest mismatch"):
            verify_artifact(target, mode="sampled")

    def test_legacy_artifact_without_manifest_is_unchecked(self, tmp_path):
        target = tmp_path / "legacy.npz"
        np.savez(target, **_arrays())
        assert read_manifest(target) is None
        assert verify_artifact(target, mode="full") == "unchecked"
        assert artifact_counters()["skipped"] == 1

    def test_mode_off_skips(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.npz"
        write_npz(target, _arrays())
        assert verify_artifact(target, mode="off") == "skipped"
        monkeypatch.setenv("REPRO_VERIFY_ARTIFACTS", "off")
        assert verify_artifact(target) == "skipped"

    def test_unknown_mode_is_a_configuration_error(self, tmp_path):
        target = tmp_path / "artifact.npz"
        write_npz(target, _arrays())
        with pytest.raises(ConfigurationError, match="unknown artifact"):
            verify_artifact(target, mode="paranoid")

    def test_manifest_footer_does_not_move_member_offsets(self, tmp_path):
        """The in-band manifest must be invisible to offset-based mmap."""
        plain = tmp_path / "plain.npz"
        checked = tmp_path / "checked.npz"
        with open(plain, "wb") as sink:
            np.savez(sink, **_arrays())
        write_npz(checked, _arrays())
        for name in ("indptr.npy", "indices.npy"):
            with zipfile.ZipFile(plain) as a, zipfile.ZipFile(checked) as b:
                assert a.getinfo(name).header_offset == b.getinfo(name).header_offset


class TestJournal:
    FP = "f" * 32

    def test_append_and_replay(self, tmp_path):
        path = tmp_path / "run"
        journal = ExperimentJournal(path, self.FP)
        assert journal.path.name.endswith(JOURNAL_SUFFIX)
        journal.append_cell("NS-HH", 0, 50, 7, [1.0, 2.5], [48, 51])
        journal.append_cell("NS-HH", 1, 100, 7, [3.0], [99])
        journal.close()

        resumed = ExperimentJournal(journal.path, self.FP, resume=True)
        cells = resumed.completed_cells()
        assert set(cells) == {("NS-HH", 0), ("NS-HH", 1)}
        assert cells[("NS-HH", 0)]["estimates"] == [1.0, 2.5]
        assert cells[("NS-HH", 0)]["api_calls"] == [48, 51]
        assert not resumed.committed
        resumed.commit(cells=2)
        assert resumed.committed
        resumed.close()
        assert journal_is_committed(journal.path)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "run", self.FP)
        journal.append_cell("NS-HH", 0, 50, 7, [1.0], [48])
        journal.append_cell("NS-HH", 1, 100, 7, [2.0], [99])
        journal.close()
        raw = journal.path.read_text().splitlines(keepends=True)
        journal.path.write_text("".join(raw[:-1]) + raw[-1][: len(raw[-1]) // 2])

        resumed = ExperimentJournal(journal.path, self.FP, resume=True)
        assert set(resumed.completed_cells()) == {("NS-HH", 0)}
        resumed.close()

    def test_mangled_checksum_is_skipped(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "run", self.FP)
        journal.append_cell("NS-HH", 0, 50, 7, [1.0], [48])
        journal.close()
        lines = journal.path.read_text().splitlines()
        # Corrupt the payload of the cell line without tearing the JSON.
        lines[-1] = lines[-1].replace('"true_count":7', '"true_count":8')
        journal.path.write_text("\n".join(lines) + "\n")
        records = read_records(journal.path)
        assert [r["type"] for r in records] == ["begin"]

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        journal = ExperimentJournal(tmp_path / "run", self.FP)
        journal.close()
        with pytest.raises(ExperimentError, match="different suite"):
            ExperimentJournal(journal.path, "0" * 32, resume=True)

    def test_append_failures_degrade_not_kill(self, tmp_path):
        install_injector(FaultInjector(FaultPlan.parse("journal.append=error,count=1")))
        journal = ExperimentJournal(tmp_path / "run", self.FP)
        # The begin record ate the injected fault; the cell lands fine.
        assert journal.append_failures == 1
        journal.append_cell("NS-HH", 0, 50, 7, [1.0], [48])
        assert journal.appended == 1
        journal.close()

    def test_suite_fingerprint_tracks_graph_and_params(self):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        graph_a = CSRGraph.from_edge_array(edges, num_nodes=4)
        graph_b = CSRGraph.from_edge_array(edges[:-1], num_nodes=4)
        base = suite_fingerprint(graph_a, seed=1, sizes=[10, 20])
        assert suite_fingerprint(graph_a, seed=1, sizes=[10, 20]) == base
        assert suite_fingerprint(graph_a, seed=2, sizes=[10, 20]) != base
        assert suite_fingerprint(graph_b, seed=1, sizes=[10, 20]) != base
        assert graph_fingerprint(graph_a) != graph_fingerprint(graph_b)


class TestSnapshotBlob:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.snap"
        payload = {"entries": [(("k", 1), 2.5)], "fingerprint": "abc"}
        write_blob(path, payload)
        assert read_blob(path) == payload

    def test_bit_flip_is_detected(self, tmp_path):
        path = tmp_path / "cache.snap"
        write_blob(path, {"entries": list(range(100))})
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError, match="integrity check"):
            read_blob(path)

    def test_truncation_is_detected(self, tmp_path):
        path = tmp_path / "cache.snap"
        write_blob(path, {"entries": list(range(100))})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ArtifactCorruptError):
            read_blob(path)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ArtifactCorruptError, match="unreadable"):
            read_blob(tmp_path / "never-written.snap")


class TestSweepDurabilityFiles:
    FP = "f" * 32

    def test_dead_pid_scratch_is_swept_live_pid_kept(self, tmp_path):
        child = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
        )
        dead_pid = int(child.stdout)
        dead = tmp_path / f".spill.npz.pid{dead_pid}.{'a' * 8}.tmp"
        dead.write_bytes(b"torn")
        live = tmp_path / f".spill.npz.pid{os.getpid()}.{'b' * 8}.tmp"
        live.write_bytes(b"in-flight")
        victims = sweep_orphan_spills(tmp_path)
        assert victims == [dead]
        assert live.exists() and not dead.exists()

    def test_committed_journal_swept_uncommitted_kept(self, tmp_path):
        done = ExperimentJournal(tmp_path / "done", self.FP)
        done.append_cell("NS-HH", 0, 50, 7, [1.0], [48])
        done.commit(cells=1)
        done.close()
        crashed = ExperimentJournal(tmp_path / "crashed", self.FP)
        crashed.append_cell("NS-HH", 0, 50, 7, [1.0], [48])
        crashed.close()

        victims = sweep_orphan_spills(tmp_path)
        assert victims == [done.path]
        assert crashed.path.exists()
        # The surviving journal still resumes.
        resumed = ExperimentJournal(crashed.path, self.FP, resume=True)
        assert set(resumed.completed_cells()) == {("NS-HH", 0)}
        resumed.close()


class TestValidateInvariants:
    def _ring(self, n=64):
        edges = np.column_stack([np.arange(n), (np.arange(n) + 1) % n])
        return CSRGraph.from_edge_array(edges, num_nodes=n)

    def test_valid_graph_passes_and_reports(self):
        graph = self._ring()
        report = graph.validate_invariants()
        assert report["num_nodes"] == 64
        assert report["num_edges"] == 64
        assert report["checked_sorted_rows"]

    def test_out_of_range_index_raises(self):
        graph = self._ring()
        bad = graph.indices.copy()
        bad[5] = 10_000
        corrupt = CSRGraph(None, graph.indptr.copy(), bad, validate=False)
        with pytest.raises(ArtifactCorruptError, match="CSR invariant"):
            corrupt.validate_invariants()

    def test_non_monotonic_indptr_raises(self):
        graph = self._ring()
        bad = graph.indptr.copy()
        bad[3], bad[4] = bad[4], bad[3]
        corrupt = CSRGraph(None, bad, graph.indices.copy(), validate=False)
        with pytest.raises(ArtifactCorruptError, match="CSR invariant"):
            corrupt.validate_invariants()

    def test_asymmetry_is_caught_by_spot_check(self):
        graph = self._ring()
        bad = graph.indices.copy()
        # Redirect every one of node 0's half-edges so no row points back.
        row = slice(graph.indptr[0], graph.indptr[1])
        bad[row] = 0
        corrupt = CSRGraph(None, graph.indptr.copy(), bad, validate=False)
        with pytest.raises(ArtifactCorruptError, match="CSR invariant"):
            corrupt.validate_invariants(check_sorted_rows=False, symmetry_samples=4096)
