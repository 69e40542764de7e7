"""Experiment topology A: the dumbbell of Figure 7.

Four senders reach four receivers across one shared link ``l5``; each
path ``p_i`` is ``⟨l_i, l5, l_{5+i}⟩``. Paths ``p1, p2`` form class
``c1`` and ``p3, p4`` class ``c2`` (the paper always refers to the
pathsets this way, even in neutral experiments). In differentiation
experiments the shared link polices or shapes class-c2 traffic.

Every path pair shares exactly ``⟨l5⟩``, so Algorithm 1 examines the
single slice σ = (l5) with six path pairs — the "single shared link"
setting of §6.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.classes import ClassAssignment, two_classes
from repro.core.network import Network, Path
from repro.exceptions import ConfigurationError
from repro.fluid.params import (
    AqmSpec,
    LinkSpec,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)

#: Id of the shared (possibly differentiating) link.
SHARED_LINK = "l5"

#: The measured paths, by class.
CLASS1_PATHS = ("p1", "p2")
CLASS2_PATHS = ("p3", "p4")


@dataclass(frozen=True)
class DumbbellTopology:
    """Topology A plus its class assignment and link specs.

    Attributes:
        network: The 9-link, 4-path graph of Figure 7(b).
        classes: ``c1 = {p1,p2}``, ``c2 = {p3,p4}``.
        link_specs: Per-link specs; only ``l5`` is a bottleneck
            (access and egress links run at 10× its capacity).
        differentiated: Whether ``l5`` polices/shapes class c2.
    """

    network: Network
    classes: ClassAssignment
    link_specs: Dict[str, LinkSpec]
    differentiated: bool


def build_dumbbell(
    mechanism: Optional[str] = None,
    rate_fraction: float = 0.3,
    capacity_mbps: float = 100.0,
    buffer_rtt_seconds: float = 0.2,
) -> DumbbellTopology:
    """Build topology A.

    Args:
        mechanism: ``None`` (neutral ``l5``), ``"policing"``,
            ``"shaping"``, ``"aqm"`` (class-targeted early drop), or
            ``"weighted"`` (work-conserving weighted service).
        rate_fraction: Policing/shaping rate — or the weighted
            mechanism's service share — as a fraction of capacity
            (Table 1 sweeps 0.2–0.5); ignored by ``"aqm"``.
        capacity_mbps: Capacity of the shared link (Table 1 default
            100 Mbps); access links get 10×.
        buffer_rtt_seconds: Queue depth of the shared link in seconds
            (paper: sized by the maximum RTT through the queue).

    Returns:
        The :class:`DumbbellTopology`.
    """
    paths = [
        Path("p1", ("l1", SHARED_LINK, "l6")),
        Path("p2", ("l2", SHARED_LINK, "l7")),
        Path("p3", ("l3", SHARED_LINK, "l8")),
        Path("p4", ("l4", SHARED_LINK, "l9")),
    ]
    links = [f"l{i}" for i in range(1, 10)]
    net = Network(links, paths)
    classes = two_classes(net, CLASS2_PATHS)

    policer = None
    shaper = None
    aqm = None
    weighted = None
    if mechanism == "policing":
        policer = PolicerSpec(target_class="c2", rate_fraction=rate_fraction)
    elif mechanism == "shaping":
        shaper = ShaperSpec(target_class="c2", rate_fraction=rate_fraction)
    elif mechanism == "aqm":
        aqm = AqmSpec(target_class="c2")
    elif mechanism == "weighted":
        weighted = WeightedShaperSpec(
            target_class="c2", weight=rate_fraction
        )
    elif mechanism is not None:
        raise ConfigurationError(f"unknown mechanism {mechanism!r}")

    specs: Dict[str, LinkSpec] = {
        lid: LinkSpec(capacity_mbps=10.0 * capacity_mbps)
        for lid in links
    }
    specs[SHARED_LINK] = LinkSpec(
        capacity_mbps=capacity_mbps,
        buffer_seconds=buffer_rtt_seconds,
        policer=policer,
        shaper=shaper,
        aqm=aqm,
        weighted=weighted,
    )
    return DumbbellTopology(
        network=net,
        classes=classes,
        link_specs=specs,
        differentiated=mechanism is not None,
    )
