"""Experiment topology B: the multi-ISP network of Figure 9.

The paper's figure shows a 24-link network: routers R1–R5 form a
tier-1 backbone, five tier-2 ISPs / content providers hang off it,
and three links implement policing — ``l14`` and ``l20`` throttle
long flows entering the backbone from two tier-2 networks, and ``l5``
throttles long flows crossing the backbone internally. The figure's
exact wiring is not fully recoverable from the paper, so this module
is a *reconstruction* in the same spirit (documented in DESIGN.md):

* Backbone routers ``B1..B5``: a chain ``B1–B2–B3–B4–B5`` plus
  shortcuts ``B1–B3`` (the policed ``l5``), ``B3–B5``, and three
  lightly-used cross links carrying background traffic.
* Five stub networks ``S1..S5``, one per backbone router. Each stub
  has a shared host-access link (dark/light hosts) and a separate
  white-host access link.
* Ingress links ``S_i–B_i``; the ingress of ``S2`` is the policed
  ``l14`` and the ingress of ``S5`` the policed ``l20``.
* Measured paths: one dark (short flows, class c1) and one light
  (long flows, class c2) path per stub pair — 20 paths. Five white
  paths provide unmeasured background traffic (class c1).

Link ids follow the paper where it matters: the policers are ``l5``,
``l14``, ``l20``; ``l13`` is a busy *neutral* ingress (the Figure 11
comparison pair is ``l13`` vs ``l14``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.classes import ClassAssignment, classes_from_mapping
from repro.core.network import Network, Path
from repro.fluid.params import LinkSpec, PolicerSpec

#: The three policing links (ground truth for Figure 10).
POLICED_LINKS = ("l5", "l14", "l20")

#: The busy neutral ingress compared against l14 in Figure 11.
NEUTRAL_BUSY_LINK = "l13"

#: Shared host-access link per stub (dark + light hosts).
ACCESS = {1: "l1", 2: "l7", 3: "l11", 4: "l16", 5: "l21"}

#: White-host access link per stub.
WHITE_ACCESS = {1: "l2", 2: "l8", 3: "l12", 4: "l17", 5: "l22"}

#: Ingress link per stub (S_i – B_i).
INGRESS = {1: "l3", 2: "l14", 3: "l13", 4: "l18", 5: "l20"}

#: Backbone links.
BACKBONE = {
    ("B1", "B2"): "l4",
    ("B1", "B3"): "l5",
    ("B2", "B3"): "l6",
    ("B2", "B4"): "l9",
    ("B3", "B4"): "l10",
    ("B3", "B5"): "l15",
    ("B4", "B5"): "l19",
    ("B1", "B4"): "l23",
    ("B2", "B5"): "l24",
}

#: Backbone route (link ids) between stub pairs, chosen as the
#: weighted shortest paths described in the module docstring.
_BACKBONE_ROUTE: Dict[Tuple[int, int], Tuple[str, ...]] = {
    (1, 2): ("l4",),
    (1, 3): ("l5",),
    (1, 4): ("l5", "l10"),
    (1, 5): ("l5", "l15"),
    (2, 3): ("l6",),
    (2, 4): ("l6", "l10"),
    (2, 5): ("l6", "l15"),
    (3, 4): ("l10",),
    (3, 5): ("l15",),
    (4, 5): ("l19",),
}

#: White background routes, placed to exercise the otherwise unused
#: cross links l9, l23, l24.
_WHITE_ROUTES: Dict[Tuple[int, int], Tuple[str, ...]] = {
    (1, 4): ("l23",),
    (2, 5): ("l24",),
    (2, 4): ("l9",),
    (1, 2): ("l4",),
    (3, 5): ("l15",),
}

#: All stub pairs, ordered.
STUB_PAIRS: Tuple[Tuple[int, int], ...] = tuple(
    (i, j) for i in range(1, 6) for j in range(i + 1, 6)
)


def _measured_path(kind: str, i: int, j: int) -> Path:
    """A dark or light path between stubs i and j (shared access)."""
    links = (
        (ACCESS[i], INGRESS[i])
        + _BACKBONE_ROUTE[(i, j)]
        + (INGRESS[j], ACCESS[j])
    )
    return Path(f"{kind}{i}{j}", links)


def _white_path(i: int, j: int) -> Path:
    links = (
        (WHITE_ACCESS[i], INGRESS[i])
        + _WHITE_ROUTES[(i, j)]
        + (INGRESS[j], WHITE_ACCESS[j])
    )
    return Path(f"white{i}{j}", links)


@dataclass(frozen=True)
class MultiIspTopology:
    """Topology B with classes and link specs.

    Attributes:
        network: 24 links, 25 paths (10 dark + 10 light + 5 white).
        classes: ``c1`` = dark + white paths, ``c2`` = light paths.
        link_specs: Per-link specs; policers on ``l5``, ``l14``, ``l20``.
        dark_paths / light_paths / white_paths: Path-id groups.
    """

    network: Network
    classes: ClassAssignment
    link_specs: Dict[str, LinkSpec]
    dark_paths: Tuple[str, ...]
    light_paths: Tuple[str, ...]
    white_paths: Tuple[str, ...]


@dataclass(frozen=True)
class FederatedTopology:
    """A federated observatory topology of ``S`` measured subnets.

    The Internet-scale generalization of topology B used by the
    multi-ISP scaling work (DESIGN.md S20): ``S`` ISPs with ``H``
    vantage hosts each, a full backbone mesh between them, and one
    measured path per host pair — intra-subnet pairs through the
    subnet core, cross-subnet pairs through per-destination egress
    links and the backbone. All wiring is deterministic in
    ``(num_isps, hosts_per_isp)``.

    Attributes:
        network: ``S·C(H,2)`` intra + ``C(S,2)·H²`` cross paths.
        num_isps / hosts_per_isp: The generator parameters.
        intra_paths / cross_paths: Path-id groups.
        subnet_of: ``{path_id: primary ISP name}`` (source subnet).
        link_owner: ``{link_id: ISP name}`` — the administrative
            partition of the links. Access, core, and egress links
            belong to their subnet; the backbone link between ISPs
            ``i < j`` is owned by ISP ``i``.
    """

    network: Network
    num_isps: int
    hosts_per_isp: int
    intra_paths: Tuple[str, ...]
    cross_paths: Tuple[str, ...]
    subnet_of: Mapping[str, str]
    link_owner: Mapping[str, str]


def isp_name(k: int) -> str:
    """Canonical ISP name for subnet ``k``."""
    return f"isp{k}"


def build_federated_multi_isp(
    num_isps: int = 8,
    hosts_per_isp: int = 13,
) -> FederatedTopology:
    """Build a federated ``S``-subnet, ``H``-hosts-per-subnet topology.

    Per subnet ``k``: host access links ``a{k}_{h}`` and a subnet core
    ``c{k}``; intra paths ``i{k}_{u}_{v} = ⟨a{k}_{u}, c{k}, a{k}_{v}⟩``
    for every host pair ``u < v``. Per ordered subnet pair ``(k, m)``:
    an egress link ``g{k}_{m}``; per unordered pair ``i < j``: a
    backbone link ``b{i}_{j}`` and cross paths
    ``x{i}_{u}_{j}_{v} = ⟨a{i}_{u}, g{i}_{j}, b{i}_{j}, g{j}_{i},
    a{j}_{v}⟩`` for every host pair. The defaults give 5356 paths over
    196 links — the ≥5k-path scale gated by
    ``benchmarks/bench_multi_isp.py``.

    Args:
        num_isps: ``S ≥ 2`` federated subnets.
        hosts_per_isp: ``H ≥ 2`` vantage hosts per subnet.

    Returns:
        The :class:`FederatedTopology`.
    """
    if num_isps < 2 or hosts_per_isp < 2:
        raise ValueError("need num_isps >= 2 and hosts_per_isp >= 2")
    links: List[str] = []
    link_owner: Dict[str, str] = {}
    for k in range(num_isps):
        owned = [f"c{k}"]
        owned += [f"a{k}_{h}" for h in range(hosts_per_isp)]
        owned += [f"g{k}_{m}" for m in range(num_isps) if m != k]
        owned += [f"b{k}_{j}" for j in range(k + 1, num_isps)]
        links.extend(owned)
        link_owner.update({lid: isp_name(k) for lid in owned})

    paths: List[Path] = []
    subnet_of: Dict[str, str] = {}
    intra: List[str] = []
    cross: List[str] = []
    for k in range(num_isps):
        for u in range(hosts_per_isp):
            for v in range(u + 1, hosts_per_isp):
                pid = f"i{k}_{u}_{v}"
                paths.append(
                    Path(pid, (f"a{k}_{u}", f"c{k}", f"a{k}_{v}"))
                )
                intra.append(pid)
                subnet_of[pid] = isp_name(k)
    for i in range(num_isps):
        for j in range(i + 1, num_isps):
            for u in range(hosts_per_isp):
                for v in range(hosts_per_isp):
                    pid = f"x{i}_{u}_{j}_{v}"
                    paths.append(
                        Path(
                            pid,
                            (
                                f"a{i}_{u}",
                                f"g{i}_{j}",
                                f"b{i}_{j}",
                                f"g{j}_{i}",
                                f"a{j}_{v}",
                            ),
                        )
                    )
                    cross.append(pid)
                    subnet_of[pid] = isp_name(i)
    return FederatedTopology(
        network=Network(links, paths),
        num_isps=num_isps,
        hosts_per_isp=hosts_per_isp,
        intra_paths=tuple(intra),
        cross_paths=tuple(cross),
        subnet_of=subnet_of,
        link_owner=link_owner,
    )


def build_multi_isp(policing_rate: float = 0.3) -> MultiIspTopology:
    """Build topology B: backbone and ingress links at the paper's
    100 Mbps bottleneck capacity, host access links at 1000 Mbps.

    Args:
        policing_rate: Rate fraction of the three policers
            (:data:`POLICED_LINKS`).

    Returns:
        The :class:`MultiIspTopology`.
    """
    dark = [_measured_path("dark", i, j) for i, j in STUB_PAIRS]
    light = [_measured_path("light", i, j) for i, j in STUB_PAIRS]
    white = [_white_path(i, j) for i, j in sorted(_WHITE_ROUTES)]
    paths = dark + light + white

    link_ids = [f"l{k}" for k in range(1, 25)]
    net = Network(link_ids, paths)

    mapping = {p.id: "c1" for p in dark + white}
    mapping.update({p.id: "c2" for p in light})
    classes = classes_from_mapping(net, mapping)

    access_links = set(ACCESS.values()) | set(WHITE_ACCESS.values())
    specs: Dict[str, LinkSpec] = {}
    for lid in link_ids:
        capacity = 1000.0 if lid in access_links else 100.0
        policer = (
            PolicerSpec(target_class="c2", rate_fraction=policing_rate)
            if lid in POLICED_LINKS
            else None
        )
        specs[lid] = LinkSpec(capacity_mbps=capacity, policer=policer)
    return MultiIspTopology(
        network=net,
        classes=classes,
        link_specs=specs,
        dark_paths=tuple(p.id for p in dark),
        light_paths=tuple(p.id for p in light),
        white_paths=tuple(p.id for p in white),
    )
