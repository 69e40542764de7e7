"""Path removal: the derived network ≡ a cold rebuild.

:meth:`Network.restricted_to_paths` returns a fresh network that keeps
only the links its paths use; its :class:`PathIndex`, pair groups and
slice batches are built on first use. This suite locks that contract:
after any removal, starting from a network whose caches are warm, the
index, pair-group arrays and slice batches must be *identical* — not
just equivalent — to the ones a network built from scratch over the
same links and paths yields, both on deterministic topologies and
under hypothesis-generated removal sequences.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.network import Network, Path
from repro.core.slices import _pair_groups, build_slice_batch
from repro.exceptions import UnknownPathError
from repro.topology.multi_isp import build_federated_multi_isp

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_index_equal(patched, rebuilt):
    assert patched.path_ids == rebuilt.path_ids
    assert patched.link_ids == rebuilt.link_ids
    assert patched.path_pos == rebuilt.path_pos
    assert patched.link_pos == rebuilt.link_pos
    np.testing.assert_array_equal(patched.incidence, rebuilt.incidence)
    np.testing.assert_array_equal(patched.packed, rebuilt.packed)


def _assert_groups_equal(patched, rebuilt):
    assert patched.sigmas == rebuilt.sigmas
    np.testing.assert_array_equal(patched.pair_a, rebuilt.pair_a)
    np.testing.assert_array_equal(patched.pair_b, rebuilt.pair_b)
    np.testing.assert_array_equal(patched.offsets, rebuilt.offsets)
    np.testing.assert_array_equal(
        patched.sigma_masks, rebuilt.sigma_masks
    )
    np.testing.assert_array_equal(patched.group_of, rebuilt.group_of)


def _assert_batch_equal(patched, rebuilt):
    assert patched.sigmas == rebuilt.sigmas
    for field in (
        "pair_a", "pair_b", "offsets", "la", "lb",
        "member_rows", "member_offsets", "member_a", "member_b",
        "sigma_masks",
    ):
        np.testing.assert_array_equal(
            getattr(patched, field), getattr(rebuilt, field), field
        )


def _warm(net, min_pathsets=1):
    """Build the caches a derived network must not inherit stale."""
    _pair_groups(net)
    build_slice_batch(net, min_pathsets)
    return net


def _check_against_rebuild(net, min_pathsets=1):
    """`net` (a derived network) vs a cold rebuild of the same graph."""
    rebuilt = Network(
        list(net.link_ids), [net.path(pid) for pid in net.path_ids]
    )
    _assert_index_equal(net.path_index, rebuilt.path_index)
    _assert_groups_equal(_pair_groups(net), _pair_groups(rebuilt))
    got, got_skip = build_slice_batch(net, min_pathsets)
    want, want_skip = build_slice_batch(rebuilt, min_pathsets)
    assert got_skip == want_skip
    _assert_batch_equal(got, want)


class TestDeterministic:
    def _net(self):
        return Network(
            ["l0", "l1", "l2", "l3"],
            [
                Path("p0", ("l0", "l1")),
                Path("p1", ("l1", "l2")),
                Path("p2", ("l0", "l2")),
                Path("p3", ("l3",)),
            ],
        )

    def test_remove_patches_index(self):
        net = _warm(self._net())
        shrunk = net.restricted_to_paths(["p0", "p2"])
        # l3 lost its only path, so the restriction drops it.
        assert shrunk.link_ids == ("l0", "l1", "l2")
        _check_against_rebuild(shrunk)

    def test_add_then_remove_round_trip(self):
        net = _warm(self._net())
        grown = _warm(
            Network(
                list(net.link_ids),
                [net.path(pid) for pid in net.path_ids]
                + [Path("p4", ("l2", "l3"))],
            )
        )
        back = grown.restricted_to_paths(net.path_ids)
        _check_against_rebuild(back)
        _assert_groups_equal(_pair_groups(back), _pair_groups(net))

    def test_remove_unknown_path_rejected(self):
        with pytest.raises(UnknownPathError):
            self._net().restricted_to_paths(["ghost"])

    def test_federated_vantage_churn(self):
        """A realistic churn on the multi-ISP topology: one vantage
        host's paths leave."""
        fed = build_federated_multi_isp(2, 4)
        net = _warm(fed.network, min_pathsets=5)
        staying = sorted(net.path_ids)[4:]
        shrunk = net.restricted_to_paths(staying)
        _check_against_rebuild(shrunk, min_pathsets=5)


@st.composite
def churn_cases(draw):
    num_links = draw(st.integers(3, 7))
    links = [f"l{k}" for k in range(num_links)]
    num_paths = draw(st.integers(3, 6))
    def draw_path(name):
        size = draw(st.integers(1, min(4, num_links)))
        chosen = draw(
            st.permutations(links).map(lambda p: tuple(p[:size]))
        )
        return Path(name, chosen)
    paths = [draw_path(f"p{i}") for i in range(num_paths)]
    removed = draw(
        st.sets(
            st.sampled_from([p.id for p in paths]),
            min_size=1,
            max_size=num_paths - 1,
        )
    )
    return links, paths, sorted(removed)


@_SETTINGS
@given(churn_cases())
def test_random_churn_equals_rebuild(case):
    """Any removal on a warmed network leaves the derived caches
    identical to a cold rebuild, in the second generation too."""
    links, paths, removed = case
    net = _warm(Network(links, paths))
    shrunk = _warm(
        net.restricted_to_paths(
            [pid for pid in net.path_ids if pid not in removed]
        )
    )
    _check_against_rebuild(shrunk)
    again = shrunk.restricted_to_paths(
        shrunk.path_ids[1:] or shrunk.path_ids
    )
    _check_against_rebuild(again)
