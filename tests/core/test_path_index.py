"""Unit tests for the PathIndex registry and the slice batch."""

import numpy as np
import pytest

from repro.core.network import Network, Path, network_from_path_specs
from repro.core.slices import (
    SliceSystemBatch,
    _observation_arrays,
    batch_pair_estimates_arrays,
    build_slice_batch,
)
from repro.exceptions import (
    ConfigurationError,
    SliceError,
    UnknownLinkError,
    UnknownPathError,
)
from repro.topology.figures import figure4


@pytest.fixture
def net():
    return network_from_path_specs(
        {
            "p1": ["l1", "l2"],
            "p2": ["l1", "l3"],
            "p3": ["l3", "l4"],
        }
    )


class TestPathIndex:
    def test_incidence_matches_links(self, net):
        index = net.path_index
        assert index.path_ids == ("p1", "p2", "p3")
        assert index.link_ids == ("l1", "l2", "l3", "l4")
        for i, pid in enumerate(index.path_ids):
            links = {
                index.link_ids[k]
                for k in np.flatnonzero(index.incidence[i])
            }
            assert links == set(net.links_of(pid))

    def test_incidence_read_only(self, net):
        with pytest.raises(ValueError):
            net.path_index.incidence[0, 0] = True

    def test_cached_instance(self, net):
        assert net.path_index is net.path_index

    def test_rows_and_masks(self, net):
        index = net.path_index
        np.testing.assert_array_equal(
            index.rows(["p3", "p1"]), [2, 0]
        )
        mask = index.link_mask(["l3", "l1"])
        np.testing.assert_array_equal(mask, [True, False, True, False])
        assert index.linkseq_from_mask(mask) == ("l1", "l3")

    def test_unknown_ids_raise(self, net):
        with pytest.raises(UnknownPathError):
            net.path_index.rows(["nope"])
        with pytest.raises(UnknownLinkError):
            net.path_index.link_mask(["nope"])


class TestSliceBatch:
    def test_batch_layout(self):
        net = figure4().network
        batch, skipped = build_slice_batch(net, min_pathsets=5)
        assert isinstance(batch, SliceSystemBatch)
        # Figure 4: ⟨l1⟩ and ⟨l1,l2⟩ are candidates; ⟨l2⟩ alone never
        # appears (every pair through l2 also shares l1).
        assert batch.sigmas == (("l1",), ("l1", "l2"))
        assert skipped == ()
        assert batch.offsets[-1] == batch.pair_a.size == batch.num_pairs
        for s, system in enumerate(batch.systems):
            lo, hi = batch.offsets[s], batch.offsets[s + 1]
            pairs = [
                (
                    batch.index.path_ids[a],
                    batch.index.path_ids[b],
                )
                for a, b in zip(batch.pair_a[lo:hi], batch.pair_b[lo:hi])
            ]
            assert tuple(pairs) == system.pairs
            mlo, mhi = batch.member_offsets[s], batch.member_offsets[s + 1]
            members = tuple(
                batch.index.path_ids[r]
                for r in batch.member_rows[mlo:mhi]
            )
            assert members == system.paths

    def test_batch_is_memoized(self):
        net = figure4().network
        batch1, _ = build_slice_batch(net, min_pathsets=5)
        batch2, _ = build_slice_batch(net, min_pathsets=5)
        assert batch1 is batch2
        batch3, _ = build_slice_batch(net, min_pathsets=3)
        assert batch3 is not batch1

    def test_missing_observation_raises(self):
        net = figure4().network
        batch, _ = build_slice_batch(net, min_pathsets=5)
        with pytest.raises(SliceError):
            batch_pair_estimates_arrays(
                batch, *_observation_arrays(batch, {})
            )

    def test_empty_network_has_no_systems(self):
        net = Network(["l1"], [Path("p1", ("l1",))])
        batch, skipped = build_slice_batch(net, min_pathsets=5)
        assert batch.num_systems == 0
        assert batch.num_pairs == 0
        assert skipped == ()

    @staticmethod
    def _threshold_net():
        # ⟨l1⟩ has 3 members and 2 pairs (5 pathsets), ⟨l1,l3⟩ has 3.
        return network_from_path_specs(
            {
                "p1": ["l1", "l2"],
                "p2": ["l1", "l3", "l4"],
                "p3": ["l1", "l3", "l5"],
            }
        )

    def test_integer_threshold_is_exact(self):
        net = self._threshold_net()
        batch, skipped = build_slice_batch(net, 5)
        assert batch.sigmas == (("l1",),)
        assert skipped == (("l1", "l3"),)
        batch, skipped = build_slice_batch(net, np.int64(6))
        assert batch.sigmas == ()
        assert skipped == (("l1",), ("l1", "l3"))

    @pytest.mark.parametrize(
        "bad", [5.5, 5.0, None, float("nan"), "3", True, np.float64(5)]
    )
    def test_non_integer_threshold_raises(self, bad):
        with pytest.raises(ConfigurationError, match="min_pathsets"):
            build_slice_batch(self._threshold_net(), bad)

    def test_rejected_threshold_leaves_no_memo(self):
        """A rejected threshold memoizes nothing: a later integer call
        gets its own batch, not one keyed by a truncated value."""
        net = self._threshold_net()
        with pytest.raises(ConfigurationError):
            build_slice_batch(net, 5.5)
        batch, _ = build_slice_batch(net, 5)
        assert batch.sigmas == (("l1",),)
