"""Pickle/copy staleness: derived caches never survive restoration.

Regression suite for the ``Network.__getstate__`` staleness hole: a
:class:`PathIndex` (or any memoized pair grouping keyed on one) that
rides through pickling can silently desynchronize every downstream
artifact. Two independent defenses are locked here:

* ``__getstate__`` drops the caches and ``__setstate__`` hard-resets
  them even when handed a state dict that *does* carry stale entries
  (older pickles, copy protocols that bypass ``__getstate__``).
* The consumers in :mod:`repro.core.slices` validate
  ``cached.index is net.path_index`` before serving a memoized
  structure, so even a cache planted after restoration is rebuilt
  rather than trusted.
"""

import copy
import pickle

import numpy as np

from repro.core.network import Network, Path
from repro.core.slices import (
    _pair_groups,
    _singleton_pathsets,
    build_slice_batch,
)


def _net():
    return Network(
        ["l0", "l1", "l2"],
        [
            Path("p0", ("l0", "l1")),
            Path("p1", ("l1", "l2")),
            Path("p2", ("l0", "l2")),
        ],
    )


def _warm(net):
    net.path_index
    _pair_groups(net)
    build_slice_batch(net, 1)
    return net


class TestStateProtocol:
    def test_getstate_drops_caches(self):
        net = _warm(_net())
        state = net.__getstate__()
        assert state["_path_index"] is None
        assert state["_inference_cache"] == {}

    def test_pickle_round_trip_resets_caches(self):
        net = _warm(_net())
        clone = pickle.loads(pickle.dumps(net))
        assert clone._path_index is None
        assert clone._inference_cache == {}
        # And the rebuilt index matches the original's.
        np.testing.assert_array_equal(
            clone.path_index.incidence, net.path_index.incidence
        )

    def test_setstate_resets_even_stale_state(self):
        """The hole: a state dict carrying live cache objects (as an
        older pickle would) must not be trusted on restore."""
        donor = _warm(_net())
        stale_state = donor.__dict__.copy()
        assert stale_state["_path_index"] is not None
        assert stale_state["_inference_cache"]
        clone = Network.__new__(Network)
        clone.__setstate__(stale_state)
        assert clone._path_index is None
        assert clone._inference_cache == {}

    def test_deepcopy_resets_caches(self):
        net = _warm(_net())
        clone = copy.deepcopy(net)
        assert clone._path_index is None
        assert clone._inference_cache == {}


class TestConsumerValidation:
    """Second defense: cache entries keyed to a foreign index are
    rebuilt, not served."""

    def test_planted_pair_groups_are_rebuilt(self):
        donor = _warm(_net())
        stale = donor._inference_cache["pair_groups"]
        net = _net()
        net._inference_cache["pair_groups"] = stale
        groups = _pair_groups(net)
        assert groups is not stale
        assert groups.index is net.path_index
        assert groups.sigmas == stale.sigmas  # same graph, same content

    def test_planted_slice_batch_is_rebuilt(self):
        donor = _warm(_net())
        stale = donor._inference_cache[("slice_batch", 1)]
        net = _net()
        net._inference_cache[("slice_batch", 1)] = stale
        batch, _ = build_slice_batch(net, 1)
        assert batch is not stale[0]
        assert batch.index is net.path_index

    def test_planted_singletons_are_rebuilt(self):
        donor = _warm(_net())
        stale = donor._inference_cache["singleton_pathsets"]
        net = _net()
        net._inference_cache["singleton_pathsets"] = stale
        singles = _singleton_pathsets(net)
        entry = net._inference_cache["singleton_pathsets"]
        assert entry[0] is net.path_index  # re-keyed to the live index
        assert singles == stale[1]  # same graph, same content

    def test_fresh_cache_is_served(self):
        """Sanity: a valid entry (same index object) is reused."""
        net = _warm(_net())
        assert _pair_groups(net) is _pair_groups(net)
        batch, _ = build_slice_batch(net, 1)
        batch2, _ = build_slice_batch(net, 1)
        assert batch is batch2
