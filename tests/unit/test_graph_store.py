"""Buffer backends: shm/mmap publish/attach, handles, cleanup semantics."""

import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, StoreAttachError
from repro.graph.csr import CSRGraph
from repro.graph.store import (
    CSRHandle,
    attach_csr,
    load_csr_npz,
    npz_array_specs,
    publish_csr,
    save_csr_npz,
    spill_csr_to_mmap,
    validate_graph_store,
)
from repro.walks.batched import BatchedWalkEngine


@pytest.fixture(scope="module")
def labeled_csr() -> CSRGraph:
    """A ~400-node random CSR graph with three labels."""
    rng = np.random.default_rng(7)
    edges = rng.integers(0, 400, size=(2400, 2))
    labels = rng.integers(1, 4, size=400)
    return CSRGraph.from_edge_array(edges, num_nodes=400, label_array=labels)


def _assert_same_graph(attached: CSRGraph, original: CSRGraph) -> None:
    assert np.array_equal(attached.indptr, original.indptr)
    assert np.array_equal(attached.indices, original.indices)
    assert np.array_equal(attached.label_array(), original.label_array())
    assert attached.num_nodes == original.num_nodes
    assert attached.num_edges == original.num_edges


class TestValidation:
    def test_known_stores_pass(self):
        for store in ("ram", "shm", "mmap"):
            assert validate_graph_store(store) == store

    def test_unknown_store_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown graph store"):
            validate_graph_store("tape")

    def test_publish_rejects_ram(self, labeled_csr):
        with pytest.raises(ConfigurationError, match="external store"):
            publish_csr(labeled_csr, "ram")

    def test_set_labeled_graphs_not_publishable(self):
        graph = CSRGraph.from_edge_array(np.array([[0, 1], [1, 2]]))
        graph = graph.with_labels(label_sets=[{"a"}, {"b"}, {"a"}])
        with pytest.raises(ConfigurationError, match="label_array"):
            publish_csr(graph, "shm")

    def test_object_node_ids_not_publishable(self):
        graph = CSRGraph(
            ["u", "v"], np.array([0, 1, 2]), np.array([1, 0])
        )
        with pytest.raises(ConfigurationError, match="node ids"):
            publish_csr(graph, "shm")

    def test_attach_rejects_non_handles(self):
        with pytest.raises(ConfigurationError, match="CSRHandle"):
            attach_csr("not-a-handle")


class TestSharedMemory:
    def test_round_trip_and_queries(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            attached = publication.attach()
            _assert_same_graph(attached, labeled_csr)
            assert attached.store == "shm"
            assert attached.count_target_edges(1, 2) == labeled_csr.count_target_edges(1, 2)
            del attached

    def test_attached_buffers_are_read_only(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            attached = publication.attach()
            with pytest.raises(ValueError):
                attached.indices[0] = 0
            del attached

    def test_handle_pickles_in_o1(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            blob = pickle.dumps(publication.handle)
            # The descriptor is a few hundred bytes regardless of |E|.
            assert len(blob) < 1024
            reattached = attach_csr(pickle.loads(blob))
            _assert_same_graph(reattached, labeled_csr)
            del reattached

    def test_attached_graph_repickles_as_handle(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            attached = publication.attach()
            blob = pickle.dumps(attached)
            assert len(blob) < 1024  # O(1), not the adjacency by value
            clone = pickle.loads(blob)
            _assert_same_graph(clone, labeled_csr)
            del attached, clone

    def test_unlink_releases_segment(self, labeled_csr):
        publication = publish_csr(labeled_csr, "shm")
        handle = publication.handle
        publication.close()
        publication.unlink()
        with pytest.raises(StoreAttachError):
            attach_csr(handle)

    def test_unlink_is_idempotent(self, labeled_csr):
        publication = publish_csr(labeled_csr, "shm")
        publication.close()
        publication.unlink()
        publication.unlink()

    def test_leaked_publication_warns_and_cleans(self, labeled_csr):
        publication = publish_csr(labeled_csr, "shm")
        handle = publication.handle
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            publication.__del__()
        assert any(issubclass(w.category, ResourceWarning) for w in caught)
        with pytest.raises(StoreAttachError):
            attach_csr(handle)

    def test_republishing_attached_graph_owns_nothing(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            attached = publication.attach()
            second = publish_csr(attached, "shm")
            assert second.handle == publication.handle
            second.unlink()  # must NOT tear down the original publication
            still_alive = publication.attach()
            _assert_same_graph(still_alive, labeled_csr)
            del attached, still_alive

    def test_fleet_walk_bit_identical_to_ram(self, labeled_csr):
        reference = BatchedWalkEngine(labeled_csr, rng=11).run_fleet(8, 60, burn_in=5)
        with publish_csr(labeled_csr, "shm") as publication:
            attached = publication.attach()
            fleet = BatchedWalkEngine(attached, rng=11).run_fleet(8, 60, burn_in=5)
            assert np.array_equal(fleet.trajectories, reference.trajectories)
            assert np.array_equal(fleet.charged_calls(), reference.charged_calls())
            del attached, fleet


class TestMemoryMapped:
    def test_save_load_round_trip(self, labeled_csr, tmp_path):
        path = save_csr_npz(labeled_csr, tmp_path / "graph.npz")
        attached = load_csr_npz(path)
        _assert_same_graph(attached, labeled_csr)
        assert attached.store == "mmap"
        backing = attached.indices if isinstance(attached.indices, np.memmap) else attached.indices.base
        assert isinstance(backing, np.memmap)

    def test_mmap_buffers_are_read_only(self, labeled_csr, tmp_path):
        attached = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        with pytest.raises(ValueError):
            attached.indptr[0] = 1

    def test_full_load_mode(self, labeled_csr, tmp_path):
        path = save_csr_npz(labeled_csr, tmp_path / "g.npz")
        loaded = load_csr_npz(path, mmap=False)
        _assert_same_graph(loaded, labeled_csr)
        assert loaded.store == "ram"

    def test_mmap_graph_pickles_as_handle(self, labeled_csr, tmp_path):
        attached = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        blob = pickle.dumps(attached)
        assert len(blob) < 1024
        clone = pickle.loads(blob)
        _assert_same_graph(clone, labeled_csr)

    def test_npz_specs_locate_every_member(self, labeled_csr, tmp_path):
        path = save_csr_npz(labeled_csr, tmp_path / "g.npz")
        specs = {spec.key: spec for spec in npz_array_specs(path)}
        assert {"indptr", "indices", "label_array"} <= set(specs)
        for key, spec in specs.items():
            view = np.memmap(
                path, dtype=np.dtype(spec.dtype), mode="r",
                offset=spec.offset, shape=spec.shape,
            )
            assert np.array_equal(view, getattr(labeled_csr, key, None)
                                  if key in ("indptr", "indices")
                                  else labeled_csr.label_array())

    def test_compressed_archives_rejected(self, labeled_csr, tmp_path):
        path = tmp_path / "compressed.npz"
        np.savez_compressed(
            path, indptr=labeled_csr.indptr, indices=labeled_csr.indices
        )
        with pytest.raises(ConfigurationError, match="compressed"):
            npz_array_specs(path)

    def test_spill_reopens_memmapped(self, labeled_csr, tmp_path):
        spilled = spill_csr_to_mmap(labeled_csr, tmp_path / "spill.npz")
        _assert_same_graph(spilled, labeled_csr)
        assert spilled.store == "mmap"
        assert (tmp_path / "spill.npz").exists()

    def test_publish_mmap_spills_and_unlinks(self, labeled_csr, tmp_path):
        publication = publish_csr(labeled_csr, "mmap", directory=tmp_path)
        path = Path(publication.handle.location)
        assert path.exists()
        attached = publication.attach()
        _assert_same_graph(attached, labeled_csr)
        publication.close()
        publication.unlink()
        assert not path.exists()

    def test_publish_reuses_existing_mmap_handle(self, labeled_csr, tmp_path):
        attached = spill_csr_to_mmap(labeled_csr, tmp_path / "g.npz")
        publication = publish_csr(attached, "mmap", directory=tmp_path)
        assert publication.handle.location == str(tmp_path / "g.npz")
        publication.unlink()  # non-owning: the spilled file must survive
        assert (tmp_path / "g.npz").exists()

    def test_fleet_walk_bit_identical_to_ram(self, labeled_csr, tmp_path):
        reference = BatchedWalkEngine(labeled_csr, rng=13).run_fleet(6, 40, burn_in=3)
        attached = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        fleet = BatchedWalkEngine(attached, rng=13).run_fleet(6, 40, burn_in=3)
        assert np.array_equal(fleet.trajectories, reference.trajectories)
        assert np.array_equal(fleet.charged_calls(), reference.charged_calls())


class TestChunkedFallback:
    def test_chunked_counts_match_dense(self, labeled_csr, tmp_path):
        mask = labeled_csr.label_mask(2)
        dense = labeled_csr.neighbor_mask_counts(mask)
        for chunk in (1, 7, 64, 10**6):
            chunked = labeled_csr._neighbor_mask_counts_chunked(mask, chunk_size=chunk)
            assert np.array_equal(chunked, dense)

    def test_mmap_graphs_dispatch_to_chunked(self, labeled_csr, tmp_path, monkeypatch):
        attached = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        calls = []
        original = CSRGraph._neighbor_mask_counts_chunked

        def spy(self, mask, chunk_size=1 << 22):
            calls.append(chunk_size)
            return original(self, mask, chunk_size)

        monkeypatch.setattr(CSRGraph, "_neighbor_mask_counts_chunked", spy)
        counts = attached.neighbor_mask_counts(attached.label_mask(1))
        assert calls, "mmap-backed graph did not use the chunked fallback"
        assert np.array_equal(
            counts, labeled_csr.neighbor_mask_counts(labeled_csr.label_mask(1))
        )

    def test_ground_truth_counts_agree_across_stores(self, labeled_csr, tmp_path):
        attached = load_csr_npz(save_csr_npz(labeled_csr, tmp_path / "g.npz"))
        for pair in ((1, 2), (2, 3), (1, 1)):
            assert attached.count_target_edges(*pair) == labeled_csr.count_target_edges(*pair)

    def test_empty_graph_chunked(self):
        empty = CSRGraph(None, np.array([0]), np.array([], dtype=np.int64))
        counts = empty._neighbor_mask_counts_chunked(np.array([], dtype=bool))
        assert counts.size == 0


class TestHandleShape:
    def test_handle_rejects_ram_store(self):
        with pytest.raises(ConfigurationError):
            CSRHandle("ram", "x", ())

    def test_spec_lookup(self, labeled_csr):
        with publish_csr(labeled_csr, "shm") as publication:
            handle = publication.handle
            assert handle.spec("indptr").shape == (labeled_csr.num_nodes + 1,)
            assert handle.spec("missing") is None


class TestPublishedCaches:
    def test_attached_graph_starts_warm(self, labeled_csr, neighbor_passes):
        """Masks/per-label neighbor counts/truth counts computed before
        publishing travel along."""
        truth = labeled_csr.count_target_edges(1, 2)  # populates all three caches
        with publish_csr(labeled_csr, "shm") as publication:
            assert publication.handle.masks  # manifest recorded
            assert {1, 2} <= {label for label, _ in publication.handle.neighbor_counts}
            assert publication.handle.target_counts
            attached = publication.attach()
            assert (1, 2) in attached._target_count_cache
            assert 1 in attached._mask_cache and 2 in attached._mask_cache
            for label in (1, 2):
                assert np.array_equal(
                    attached._neighbor_count_cache[label],
                    labeled_csr.label_neighbor_counts(label),
                )
            neighbor_passes.clear()
            assert attached.count_target_edges(1, 2) == truth
            assert attached.count_target_edges(2, 1) == truth  # not cached as a pair
            assert np.array_equal(
                attached.target_incident_counts(1, 2),
                labeled_csr.target_incident_counts(1, 2),
            )
            assert neighbor_passes == []  # answered from the published arrays
            del attached

    def test_warm_caches_travel_through_mmap_publication(self, labeled_csr, tmp_path):
        labeled_csr.count_target_edges(2, 3)
        publication = publish_csr(labeled_csr, "mmap", directory=tmp_path)
        attached = publication.attach()
        assert (2, 3) in attached._target_count_cache
        assert np.array_equal(
            attached.target_incident_counts(2, 3),
            labeled_csr.target_incident_counts(2, 3),
        )
        publication.close()
        publication.unlink()

    def test_cold_publish_has_empty_manifest(self):
        rng = np.random.default_rng(1)
        graph = CSRGraph.from_edge_array(
            rng.integers(0, 50, size=(200, 2)), num_nodes=50,
            label_array=rng.integers(1, 3, size=50),
        )
        with publish_csr(graph, "shm") as publication:
            assert publication.handle.masks == ()
            assert publication.handle.neighbor_counts == ()
            attached = publication.attach()
            assert attached.count_target_edges(1, 2) == graph.count_target_edges(1, 2)
            del attached


class TestReviewRegressions:
    def test_del_releases_before_warning_escalates(self, labeled_csr):
        """Under -W error::ResourceWarning the __del__ warn raises — the
        segment must already have been released by then."""
        publication = publish_csr(labeled_csr, "shm")
        handle = publication.handle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResourceWarning):
                publication.__del__()
        with pytest.raises(StoreAttachError):  # cleanup happened first
            attach_csr(handle)

    def test_relabeled_attached_graph_pickles_without_segment(self, labeled_csr):
        """with_labels over an shm graph pickles its data by value — the
        SharedMemory owner must not ride along (its unpickle re-attaches
        and re-registers with the resource tracker on < 3.13)."""
        rng = np.random.default_rng(2)
        publication = publish_csr(labeled_csr, "shm")
        attached = publication.attach()
        relabeled = attached.with_labels(
            label_array=rng.integers(1, 3, size=attached.num_nodes)
        )
        blob = pickle.dumps(relabeled)
        del attached, relabeled
        publication.close()
        publication.unlink()
        clone = pickle.loads(blob)  # by value: survives the unlink
        assert clone._buffer_owner is None
        assert np.array_equal(clone.indices, labeled_csr.indices)
        assert clone.count_target_edges(1, 2) >= 0

    def test_export_adopt_label_caches(self, labeled_csr, neighbor_passes):
        warm = CSRGraph(
            None, labeled_csr.indptr.copy(), labeled_csr.indices.copy(),
            label_array=np.asarray(labeled_csr.label_array()).copy(),
        )
        truth = warm.count_target_edges(1, 2)
        payload = warm.export_label_caches()
        assert payload["counts"][(1, 2)] == truth
        assert set(payload["neighbor_counts"]) == {1, 2}
        cold = CSRGraph(
            None, labeled_csr.indptr.copy(), labeled_csr.indices.copy(),
            label_array=np.asarray(labeled_csr.label_array()).copy(),
        )
        cold.adopt_label_caches(payload)
        assert cold._target_count_cache[(1, 2)] == truth
        assert 1 in cold._mask_cache
        assert 1 in cold._neighbor_count_cache and 2 in cold._neighbor_count_cache
        neighbor_passes.clear()
        assert cold.count_target_edges(2, 1) == truth
        assert np.array_equal(
            cold.target_incident_counts(1, 2), warm.target_incident_counts(1, 2)
        )
        assert neighbor_passes == []  # the adopted arrays answer the pair
        # Locally-present entries win over adopted ones.
        local_mask = cold.label_mask(1)
        cold.adopt_label_caches(payload)
        assert cold._mask_cache[1] is local_mask
