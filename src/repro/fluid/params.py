"""Configuration dataclasses shared by both emulation engines.

:class:`LinkSpec` (with its mechanism specs) is the one description of
a link that the fluid engine and the packet engine both accept, and
:func:`complete_link_specs` is the one validation step both run on
construction and on every mid-run swap. This module imports nothing
else from the package, so either engine can load it.

Units follow networking convention at the API surface (Mbps,
milliseconds, Mb for flow sizes — as in the paper's Table 1) and are
converted to packets/seconds internally. The MSS is fixed at 1500
bytes = 12000 bits, matching common Ethernet framing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation-only; keeps this
    # module a leaf that both engines import.
    from repro.core.classes import ClassAssignment
    from repro.core.network import Network

#: Maximum segment size in bits (1500-byte packets).
MSS_BITS = 12_000

#: Bits per megabit.
MEGABIT = 1_000_000

#: Default one-way propagation per link (packet engine). Deliberately
#: small: path RTTs are owned by the workload
#: (``PathWorkload.rtt_seconds``), which the packet engine honours by
#: stretching the ACK return path; link delay only has to keep the
#: forward direction causally ordered.
DEFAULT_DELAY_SECONDS = 0.002


def mbps_to_pps(mbps: float) -> float:
    """Convert a rate in Mbps to packets (MSS) per second."""
    return mbps * MEGABIT / MSS_BITS


def _require_finite(spec) -> None:
    """Reject NaN and ±inf in any numeric field of a spec dataclass."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, Real) and not math.isfinite(value):
            raise ConfigurationError(
                f"{type(spec).__name__}.{f.name} must be finite, "
                f"got {value}"
            )


def mb_to_packets(megabits: float) -> float:
    """Convert a volume in Mb to packets (MSS)."""
    return megabits * MEGABIT / MSS_BITS


def validate_single_mechanism(mechanisms: Sequence[object]) -> None:
    """The one-mechanism-per-link rule of :class:`LinkSpec`."""
    if len(mechanisms) > 1:
        raise ConfigurationError(
            "a link can apply at most one differentiation "
            "mechanism (policer, shaper, aqm, or weighted)"
        )


@dataclass(frozen=True)
class PolicerSpec:
    """Token-bucket policing of one class (paper §6.1).

    Tokens accrue at ``rate_fraction × link capacity``; traffic of the
    targeted class exceeding the bucket is dropped immediately.

    Attributes:
        target_class: Name of the policed class (the paper's c2).
        rate_fraction: Policing rate as a fraction of link capacity
            (the paper sweeps 0.2–0.5).
        burst_seconds: Bucket depth expressed as seconds at the
            policing rate (bucket = burst_seconds × rate). Real
            policers are configured with shallow buckets (tens of
            packets); a deep bucket absorbs TCP's burstiness and
            produces almost no differentiation signal.
    """

    target_class: str
    rate_fraction: float
    burst_seconds: float = 0.005

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.rate_fraction <= 1.0:
            raise ConfigurationError(
                f"policing rate fraction must be in (0,1], "
                f"got {self.rate_fraction}"
            )
        if self.burst_seconds <= 0:
            raise ConfigurationError("burst_seconds must be positive")


@dataclass(frozen=True)
class ShaperSpec:
    """Dual shaping of both classes (paper §6.1).

    The link passes the targeted class through a shaper of rate
    ``rate_fraction × capacity`` and all *other* traffic through a
    second shaper of rate ``(1 − rate_fraction) × capacity``. Excess
    traffic is buffered in the shaper's dedicated queue and dropped
    only on overflow.

    Attributes:
        target_class: The shaped (deprioritized) class.
        rate_fraction: Fraction of capacity granted to the target
            class; the complement goes to everyone else.
        buffer_seconds: Each shaper queue's depth in seconds at its
            own service rate.
    """

    target_class: str
    rate_fraction: float
    buffer_seconds: float = 0.25

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.rate_fraction < 1.0:
            raise ConfigurationError(
                f"shaping rate fraction must be in (0,1), "
                f"got {self.rate_fraction}"
            )
        if self.buffer_seconds <= 0:
            raise ConfigurationError("buffer_seconds must be positive")


@dataclass(frozen=True)
class AqmSpec:
    """Class-targeted AQM early drop (RED/PIE-flavoured).

    The link drops arriving traffic of the targeted class *before* the
    queue overflows, with a probability ramping linearly from 0 at
    ``min_threshold_fraction`` of the buffer to
    ``max_drop_probability`` at ``max_threshold_fraction`` — the
    flow-queuing/AQM differentiation family (Sander et al.): the
    untargeted class still sees a droptail queue, so the targeted
    class records loss in intervals where the other one records none.

    Attributes:
        target_class: The early-dropped class.
        min_threshold_fraction: Queue fill fraction where early drop
            starts.
        max_threshold_fraction: Queue fill fraction where the drop
            probability saturates.
        max_drop_probability: Drop probability at (and beyond) the
            max threshold.
    """

    target_class: str
    min_threshold_fraction: float = 0.05
    max_threshold_fraction: float = 0.5
    max_drop_probability: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 <= self.min_threshold_fraction < 1.0:
            raise ConfigurationError(
                "AQM min threshold must be in [0,1)"
            )
        if not (
            self.min_threshold_fraction
            < self.max_threshold_fraction
            <= 1.0
        ):
            raise ConfigurationError(
                "AQM max threshold must be in (min_threshold, 1]"
            )
        if not 0.0 < self.max_drop_probability <= 1.0:
            raise ConfigurationError(
                "AQM max drop probability must be in (0,1]"
            )


@dataclass(frozen=True)
class WeightedShaperSpec:
    """Work-conserving weighted per-class service (WFQ-flavoured).

    The link serves two virtual FIFO queues — the targeted class and
    everyone else — with service shares ``weight`` and ``1 − weight``
    of capacity. Unlike :class:`ShaperSpec` (two independent rate
    limiters), unused share is reallocated to the backlogged queue,
    so the link stays work-conserving: differentiation appears only
    under contention, which makes it the subtlest mechanism family.

    Attributes:
        target_class: The deprioritized class.
        weight: Service share granted to the target class when both
            queues are backlogged.
        buffer_seconds: Each virtual queue's depth in seconds at its
            own guaranteed rate. Default is deliberately shallow
            (flow-queuing schedulers keep short per-queue buffers):
            a deep buffer turns the differentiation into pure
            queueing latency and starves the loss-based congestion
            signal of events.
    """

    target_class: str
    weight: float
    buffer_seconds: float = 0.05

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.weight < 1.0:
            raise ConfigurationError(
                f"weighted-shaper weight must be in (0,1), "
                f"got {self.weight}"
            )
        if self.buffer_seconds <= 0:
            raise ConfigurationError("buffer_seconds must be positive")


@dataclass(frozen=True)
class LinkSpec:
    """Physical parameters and differentiation of one link.

    The one link description every builder, engine, session and
    mid-run swap accepts. The fluid engine reads it directly; the
    packet engine converts it to packet units per link.

    Attributes:
        capacity_mbps: Link capacity (paper default: 100 Mbps).
        buffer_seconds: Droptail queue depth in seconds at capacity;
            the paper sizes queues by the maximum RTT of traversing
            traffic (a bandwidth-delay product).
        delay_seconds: One-way propagation (packet engine only).
        policer: Optional token-bucket differentiation.
        shaper: Optional dual-shaper differentiation.
        aqm: Optional class-targeted early-drop differentiation.
        weighted: Optional weighted per-class service.
    """

    capacity_mbps: float = 100.0
    buffer_seconds: float = 0.2
    delay_seconds: float = DEFAULT_DELAY_SECONDS
    policer: Optional[PolicerSpec] = None
    shaper: Optional[ShaperSpec] = None
    aqm: Optional[AqmSpec] = None
    weighted: Optional[WeightedShaperSpec] = None

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.capacity_mbps <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.buffer_seconds <= 0:
            raise ConfigurationError("buffer depth must be positive")
        if self.delay_seconds < 0:
            raise ConfigurationError("delay must be nonnegative")
        validate_single_mechanism(self.mechanisms)

    @property
    def mechanisms(self) -> Tuple[object, ...]:
        """The configured differentiation mechanisms (0 or 1)."""
        return tuple(
            m
            for m in (self.policer, self.shaper, self.aqm, self.weighted)
            if m is not None
        )

    @property
    def capacity_pps(self) -> float:
        return mbps_to_pps(self.capacity_mbps)

    @property
    def buffer_packets(self) -> float:
        return self.capacity_pps * self.buffer_seconds

    @property
    def is_differentiating(self) -> bool:
        return bool(self.mechanisms)


def normalize_specs(
    link_specs: Mapping[str, LinkSpec],
) -> Dict[str, LinkSpec]:
    """A checked copy of a per-link spec mapping.

    Raises :class:`~repro.exceptions.ConfigurationError` unless
    ``link_specs`` is a mapping whose values are all
    :class:`LinkSpec`.
    """
    if not isinstance(link_specs, Mapping):
        raise ConfigurationError(
            f"link specs must be a mapping, got "
            f"{type(link_specs).__name__}"
        )
    for lid, spec in link_specs.items():
        if not isinstance(spec, LinkSpec):
            raise ConfigurationError(
                f"link {lid!r}: expected a LinkSpec, got "
                f"{type(spec).__name__}"
            )
    return dict(link_specs)


def complete_link_specs(
    net: "Network",
    classes: "ClassAssignment",
    link_specs: Optional[Mapping[str, LinkSpec]],
) -> Dict[str, LinkSpec]:
    """Validate a spec mapping and fill unspecified links.

    The one completion step of both engines, run on construction and
    on every mid-run swap, so a swapped policy set passes exactly the
    construction-time checks on either substrate. Specs must name
    links of ``net`` and target classes of ``classes``; links not
    mentioned get ``LinkSpec()``.
    """
    specs = normalize_specs({} if link_specs is None else link_specs)
    unknown = set(specs) - set(net.link_ids)
    if unknown:
        raise ConfigurationError(
            f"link specs for unknown links: {sorted(unknown)}"
        )
    for lid, spec in specs.items():
        for mech in spec.mechanisms:
            if mech.target_class not in classes.names:
                raise ConfigurationError(
                    f"link {lid!r} differentiates against unknown "
                    f"class {mech.target_class!r}"
                )
    default = LinkSpec()
    return {lid: specs.get(lid, default) for lid in net.link_ids}


@dataclass(frozen=True)
class LinkArrays:
    """Link specs flattened into arrays for the vectorized engine.

    The physical per-link quantities become one numpy array each
    (indexed by the engine's link order); the rare differentiation
    mechanisms stay as short ``(link_index, spec)`` lists so the
    engine's hot loop pays for policers/shapers only on links that
    actually have one.

    Attributes:
        ids: Link ids in array order.
        capacity_pps: Service rate per link (packets/second).
        buffer_packets: Droptail queue depth per link.
        policers: ``(link_index, PolicerSpec)`` for policing links.
        shapers: ``(link_index, ShaperSpec)`` for shaping links.
        aqms: ``(link_index, AqmSpec)`` for early-drop links.
        weighted: ``(link_index, WeightedShaperSpec)`` for
            weighted-service links.
    """

    ids: Tuple[str, ...]
    capacity_pps: np.ndarray
    buffer_packets: np.ndarray
    policers: Tuple[Tuple[int, PolicerSpec], ...]
    shapers: Tuple[Tuple[int, ShaperSpec], ...]
    aqms: Tuple[Tuple[int, AqmSpec], ...] = ()
    weighted: Tuple[Tuple[int, WeightedShaperSpec], ...] = ()


def build_link_arrays(
    link_ids: Sequence[str], specs: Mapping[str, LinkSpec]
) -> LinkArrays:
    """Flatten per-link specs into a :class:`LinkArrays`."""
    ids = tuple(link_ids)
    capacity = np.array([specs[lid].capacity_pps for lid in ids])
    buffers = np.array([specs[lid].buffer_packets for lid in ids])
    policers: List[Tuple[int, PolicerSpec]] = []
    shapers: List[Tuple[int, ShaperSpec]] = []
    aqms: List[Tuple[int, AqmSpec]] = []
    weighted: List[Tuple[int, WeightedShaperSpec]] = []
    for i, lid in enumerate(ids):
        spec = specs[lid]
        if spec.policer is not None:
            policers.append((i, spec.policer))
        if spec.shaper is not None:
            shapers.append((i, spec.shaper))
        if spec.aqm is not None:
            aqms.append((i, spec.aqm))
        if spec.weighted is not None:
            weighted.append((i, spec.weighted))
    return LinkArrays(
        ids=ids,
        capacity_pps=capacity,
        buffer_packets=buffers,
        policers=tuple(policers),
        shapers=tuple(shapers),
        aqms=tuple(aqms),
        weighted=tuple(weighted),
    )


@dataclass(frozen=True)
class FlowSlotSpec:
    """One parallel TCP "slot" on a path.

    A slot runs one flow at a time: a flow of ``size`` (fixed) or a
    Pareto-distributed size (``mean_size_mb``), then an exponential
    idle gap, then the next flow — the paper's traffic model (§6.1).

    Attributes:
        mean_size_mb: Mean transfer size in Mb. With
            ``pareto_shape > 0`` sizes are Pareto with this mean;
            with ``pareto_shape == 0`` every flow has exactly this
            size (used for Table 3's fixed-size mixes).
        mean_gap_seconds: Mean exponential idle time between flows
            (paper default: 10 s).
        pareto_shape: Pareto tail index α (> 1 for a finite mean);
            the paper's flow sizes are heavy-tailed per [9].
    """

    mean_size_mb: float = 10.0
    mean_gap_seconds: float = 10.0
    pareto_shape: float = 1.2

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mean_size_mb <= 0:
            raise ConfigurationError("mean flow size must be positive")
        if self.mean_gap_seconds < 0:
            raise ConfigurationError("mean gap must be nonnegative")
        if self.pareto_shape != 0 and self.pareto_shape <= 1.0:
            raise ConfigurationError(
                "pareto_shape must be > 1 (finite mean) or 0 (fixed size)"
            )


@dataclass(frozen=True)
class PathWorkload:
    """Traffic description of one path.

    Attributes:
        slots: The parallel flow slots (paper: "a number of parallel
            TCP flows per path").
        rtt_seconds: Base round-trip time of the path (propagation;
            queueing delay is added dynamically).
        congestion_control: ``"cubic"`` or ``"newreno"``.
        measured: Whether the path participates in measurements
            (False for the paper's white background hosts).
    """

    slots: Tuple[FlowSlotSpec, ...] = (FlowSlotSpec(),)
    rtt_seconds: float = 0.05
    congestion_control: str = "cubic"
    measured: bool = True

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.slots:
            raise ConfigurationError("a path needs at least one flow slot")
        if self.rtt_seconds <= 0:
            raise ConfigurationError("RTT must be positive")
        if self.congestion_control not in ("cubic", "newreno"):
            raise ConfigurationError(
                f"unknown congestion control {self.congestion_control!r}"
            )
