"""Unit tests for pathset families."""

from repro.core.pathsets import (
    all_pairs,
    family,
    format_pathset,
    pathset,
    power_family,
    singletons,
    singletons_and_pairs,
)
from repro.core.network import network_from_path_specs


def _net(n=3):
    return network_from_path_specs(
        {f"p{i}": [f"l{i}"] for i in range(1, n + 1)}
    )


def test_pathset_constructor():
    assert pathset("p1", "p2") == frozenset({"p1", "p2"})


def test_family_dedups_preserving_order():
    fam = family([["p1"], ["p2"], ["p1"], []])
    assert fam == (frozenset({"p1"}), frozenset({"p2"}))


def test_singletons():
    assert singletons(_net()) == (
        frozenset({"p1"}), frozenset({"p2"}), frozenset({"p3"}),
    )


def test_all_pairs_count():
    assert len(all_pairs(_net(4))) == 6


def test_singletons_and_pairs():
    fam = singletons_and_pairs(_net())
    assert len(fam) == 3 + 3


def test_power_family_full():
    fam = power_family(_net())
    assert len(fam) == 2**3 - 1


def test_format_pathset_sorted():
    assert format_pathset(frozenset({"p2", "p1"})) == "{p1,p2}"
