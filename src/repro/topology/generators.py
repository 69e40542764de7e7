"""Random topology generators (DESIGN.md S13).

Parameterized families of networks for property testing and scaling
studies: trees (tomography's classical setting), stars/dumbbells, and
two-tier meshes in the spirit of topology B. All generators take an
explicit ``numpy.random.Generator`` and are fully deterministic for a
given seed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.classes import ClassAssignment, two_classes
from repro.core.network import Network, Path
from repro.core.performance import (
    LinkPerformance,
    NetworkPerformance,
)
from repro.exceptions import ConfigurationError


def star_network(num_spokes: int, hub_link: str = "hub") -> Network:
    """A star: every path crosses the hub link plus a private spoke.

    ``num_spokes`` paths ``p1..pN``, each ``⟨hub, s_i⟩``. The hub is
    the only shareable link — the minimal setting where Algorithm 1
    has work to do.
    """
    if num_spokes < 2:
        raise ConfigurationError("a star needs at least 2 spokes")
    paths = [
        Path(f"p{i}", (hub_link, f"s{i}"))
        for i in range(1, num_spokes + 1)
    ]
    links = [hub_link] + [f"s{i}" for i in range(1, num_spokes + 1)]
    return Network(links, paths)


def chain_network(num_hops: int, num_paths: int) -> Network:
    """Paths sharing a chain prefix of decreasing length.

    Path ``p_i`` traverses chain links ``c1..c_{num_hops-i+1}`` then a
    private exit link; consecutive paths share progressively shorter
    prefixes, producing nested shared sequences — the stress case for
    redundancy pruning.
    """
    if num_hops < 1 or num_paths < 2:
        raise ConfigurationError("need >= 1 hop and >= 2 paths")
    paths = []
    for i in range(1, num_paths + 1):
        depth = max(1, num_hops - (i - 1) % num_hops)
        links = tuple(f"c{k}" for k in range(1, depth + 1)) + (f"x{i}",)
        paths.append(Path(f"p{i}", links))
    link_ids = sorted({lid for p in paths for lid in p.links})
    return Network(link_ids, paths)


def random_tree_network(
    rng: np.random.Generator,
    num_leaves: int = 6,
    branching: int = 2,
) -> Network:
    """A rooted tree with one path per leaf pair via their LCA-ish root.

    Leaves hang off a random tree; each path connects two distinct
    leaves through the unique tree route. Trees are the setting where
    classical tomography is identifiable, so theory properties can be
    contrasted against the paper's slice-based approach.
    """
    if num_leaves < 2:
        raise ConfigurationError("need at least 2 leaves")
    # Build parent pointers: node 0 is the root.
    parents: Dict[int, int] = {}
    next_node = 1
    frontier = [0]
    leaves: List[int] = []
    while len(leaves) + len(frontier) < num_leaves + 1 or not leaves:
        node = frontier.pop(0)
        kids = int(rng.integers(1, branching + 1))
        for _ in range(kids):
            parents[next_node] = node
            frontier.append(next_node)
            next_node += 1
        if not frontier:
            break
        if len(parents) > 4 * num_leaves:
            break
    # Everything still in the frontier is a leaf.
    leaves = list(frontier)[:num_leaves]
    if len(leaves) < 2:
        # Degenerate draw: fall back to a 2-leaf star.
        return star_network(2)

    def route_to_root(node: int) -> List[str]:
        links = []
        while node in parents:
            links.append(f"e{node}")
            node = parents[node]
        return links

    paths = []
    pid = 1
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            up = route_to_root(leaves[i])
            down = route_to_root(leaves[j])
            shared = set(up) & set(down)
            links = [l for l in up if l not in shared] + list(
                reversed([l for l in down if l not in shared])
            )
            if not links:
                continue
            paths.append(Path(f"p{pid}", tuple(links)))
            pid += 1
    link_ids = sorted({lid for p in paths for lid in p.links})
    return Network(link_ids, paths)


def random_mesh_network(
    rng: np.random.Generator,
    num_stubs: int = 4,
    extra_edges: int = 2,
) -> Network:
    """A topology-B-style two-tier mesh.

    ``num_stubs`` backbone nodes in a ring plus ``extra_edges`` random
    chords; one access+ingress pair per stub; one path per stub pair
    routed over a shortest backbone route (ties broken by link id).
    """
    if num_stubs < 3:
        raise ConfigurationError("need at least 3 stubs")
    import networkx as nx

    g = nx.Graph()
    for i in range(num_stubs):
        g.add_edge(i, (i + 1) % num_stubs, lid=f"b{i}")
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 20 * extra_edges:
        attempts += 1
        a, b = rng.integers(0, num_stubs, size=2)
        if a == b or g.has_edge(int(a), int(b)):
            continue
        g.add_edge(int(a), int(b), lid=f"x{added}")
        added += 1

    paths = []
    pid = 1
    for i in range(num_stubs):
        for j in range(i + 1, num_stubs):
            route = nx.shortest_path(g, i, j)
            backbone = [
                g.edges[u, v]["lid"]
                for u, v in zip(route, route[1:])
            ]
            links = (
                [f"a{i}", f"in{i}"] + backbone + [f"in{j}", f"a{j}"]
            )
            paths.append(Path(f"p{pid}", tuple(links)))
            pid += 1
    link_ids = sorted({lid for p in paths for lid in p.links})
    return Network(link_ids, paths)


def random_two_class_performance(
    rng: np.random.Generator,
    net: Network,
    num_violations: int = 1,
    base_cost: float = 0.02,
    extra_cost: float = 0.3,
) -> Tuple[NetworkPerformance, ClassAssignment]:
    """Random ground truth: a two-class split and some violations.

    Args:
        rng: Seeded generator.
        net: The network.
        num_violations: How many links differentiate (capped by |L|).
        base_cost: Neutral per-link cost scale (uniform in
            ``[0, base_cost]``).
        extra_cost: Regulation cost scale for violating links.

    Returns:
        ``(performance, classes)`` with class ``c2`` holding a random
        nonempty proper subset of the paths.
    """
    path_ids = list(net.path_ids)
    if len(path_ids) < 2:
        raise ConfigurationError("need >= 2 paths for two classes")
    size = int(rng.integers(1, len(path_ids)))
    c2 = list(rng.choice(path_ids, size=size, replace=False))
    classes = two_classes(net, c2)

    link_ids = list(net.link_ids)
    k = min(num_violations, len(link_ids))
    violators = set(
        rng.choice(link_ids, size=k, replace=False).tolist()
    )
    perf: Dict[str, LinkPerformance] = {}
    for lid in link_ids:
        base = float(rng.uniform(0.0, base_cost))
        if lid in violators:
            perf[lid] = LinkPerformance.non_neutral(
                {
                    "c1": base,
                    "c2": base + float(rng.uniform(0.5, 1.0)) * extra_cost,
                }
            )
        else:
            perf[lid] = LinkPerformance.neutral(base, classes.names)
    return NetworkPerformance(net, classes, perf), classes
