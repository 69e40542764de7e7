"""The fluid network emulator (DESIGN.md S11), vectorized.

A time-stepped fluid analogue of the paper's user-level emulator:
flows offer ``cwnd/RTT`` worth of traffic per step, links serve at
capacity through droptail queues, policers and shapers differentiate
per class, and TCP reacts to the loss each step produced. The paper's
inference pipeline only consumes per-interval *(sent, lost)* counts
per path — which this model produces with the right event structure —
plus per-link ground truth and queue-occupancy traces for Figures 10a
and 11.

This module is the single-scenario front end: :class:`FluidNetwork`
validates one scenario and owns its specs and RNG, and its run and
session advance the one fluid step program
(:mod:`repro.fluid.batch`) at ``B = 1``; a session's spec swap is the
batch session's swap of its one world. The program is batched numpy
over flow/link/path arrays: per-slot offers, per-link service, drop
attribution, and TCP window updates all advance every object at once
(see :class:`~repro.fluid.tcp.TcpArrayState` and
:class:`~repro.fluid.traffic.SlotArrays`). The seed's per-object
implementation is frozen as ``tests/oracles/engine_scalar.py`` and
pins this one through the golden equivalence tests. Rare events (flow
starts/completions, droptail bursts) fall back to index subsets, so
the common loss-free step costs a fixed number of array operations
regardless of flow count.

Loss-attribution model (important for fidelity):

* **Drops hit every present path proportionally.** Both policer
  shedding and droptail overflow are spread over the step's arrivals
  pro-rata. Combined with TCP's one-RTT loss-reaction delay (flows
  keep sending into a full queue until they detect the loss), drop
  epochs last long enough that every path with traffic in a
  congested interval records non-negligible loss — the correlation
  property the paper's §6.5 robustness argument rests on ("a neutral
  link is unlikely to introduce non-negligible packet loss in one
  path and not in the other during the same time interval").
* **Per-flow application differs by mechanism**: a path's policer
  losses are spread over all its flows (continuous shedding), while
  its queue-overflow losses land on one randomly chosen flow per
  step (a droptail burst is a contiguous packet run) — keeping flow
  sawtooths desynchronized, which sets a realistic loss-event
  frequency.
* **Per-flow send jitter** (gamma, cv 0.5 —
  :data:`DEFAULT_SEND_JITTER_CV`, the only value the engine runs)
  restores the sub-step burstiness a fluid model otherwise averages
  away; without it a full queue sheds only the aggregate
  window-growth rate.

Other approximations (all second-order for the reproduced
quantities): within one step, traffic dropped upstream still counts
as arrival downstream (< dt smearing); queueing delay enters RTT as
``queue/capacity`` summed along the path, updated once per step.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.exceptions import ConfigurationError, EmulationError
from repro.fluid.params import LinkSpec, PathWorkload, complete_link_specs
from repro.measurement.records import RecordChunk
from repro.substrate.base import SubstrateResult

#: Engine implementation tag; part of the sweep result-cache key so
#: cached outcomes are invalidated when the emulation model changes.
#: This tag names the numpy step program's arithmetic: bump it when a
#: change alters outputs (``benchmarks/parity.py`` checks that a
#: refactor does not).
ENGINE_VERSION = "fluid-vec-2"


#: Default step length (seconds).
DEFAULT_DT = 0.01

#: Default measurement interval (seconds) — Table 1's bold value.
DEFAULT_INTERVAL = 0.1

#: Coefficient of variation of per-flow send jitter. Packet
#: transmission is bursty at sub-step timescales (back-to-back window
#: bursts, ACK compression); a fluid model without this variance
#: reaches a noiseless equilibrium in which a full droptail queue
#: sheds only the aggregate window-growth rate — orders of magnitude
#: less loss than a real queue, whose arrivals fluctuate at RTT
#: timescale. Jitter restores the fluctuation: each flow's step volume
#: is multiplied by a Gamma(1/cv², cv²) factor (mean 1).
DEFAULT_SEND_JITTER_CV = 0.5

#: Time constant (seconds) of the smoothed-RTT filter flows pace on.
SRTT_TIME_CONSTANT = 0.2

#: Steps of send jitter drawn per RNG call (amortizes call overhead).
_JITTER_BLOCK_STEPS = 256


class FluidNetwork:
    """A runnable fluid emulation of a network.

    Args:
        net: The network graph (paths define flow routes).
        classes: Class assignment — used by differentiating links to
            decide which traffic to police/shape.
        link_specs: :class:`~repro.fluid.params.LinkSpec` per link;
            links not mentioned get ``LinkSpec()`` (100 Mbps, no
            differentiation).
        workloads: Traffic description per path; every path of the
            network must be covered.
        seed: Seed for the emulation's private RNG.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_specs: Mapping[str, LinkSpec] = None,
        workloads: Mapping[str, PathWorkload] = None,
        seed: int = 0,
    ) -> None:
        self._net = net
        self._classes = classes
        self._link_specs = complete_link_specs(net, classes, link_specs)
        if workloads is None:
            raise ConfigurationError("workloads are required")
        missing = set(net.path_ids) - set(workloads)
        if missing:
            raise ConfigurationError(
                f"paths without workloads: {sorted(missing)}"
            )
        self._workloads: Dict[str, PathWorkload] = dict(workloads)
        self._rng = np.random.default_rng(seed)

    def run(
        self,
        duration_seconds: float,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
    ) -> SubstrateResult:
        """Run the emulation in one shot.

        Equivalent to opening a :meth:`session` and advancing it by
        every interval at once — same arithmetic, same RNG stream.

        Args:
            duration_seconds: Measured time span (after warmup).
            dt: Step length; must divide ``interval_seconds``.
            interval_seconds: Measurement interval (Table 1).
            warmup_seconds: Initial span excluded from all records so
                slow-start transients do not bias probabilities.

        Returns:
            The run's :class:`~repro.substrate.base.SubstrateResult`.
        """
        if not (np.isfinite(duration_seconds) and duration_seconds > 0):
            raise EmulationError("duration must be positive")
        session = self.session(
            dt=dt,
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
        )
        num_intervals = int(round(duration_seconds / interval_seconds))
        if num_intervals < 1:
            raise EmulationError("duration shorter than one interval")
        session.advance(num_intervals)
        return session.result()

    def session(
        self,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
    ) -> "FluidSession":
        """Open a resumable emulation session (streaming mode).

        The session advances the emulation a chosen number of
        measurement intervals at a time, carrying all flow/queue/RNG
        state in between, and accepts link-spec swaps at interval
        boundaries (mid-run differentiation onset/offset). Only one
        session may be driven per :class:`FluidNetwork` instance —
        sessions consume the instance's RNG.

        ``keep_ground_truth=False`` discards every interval's columns
        once its chunk is emitted, bounding a long monitoring run's
        memory; :meth:`FluidSession.result` is then unavailable.
        """
        return FluidSession(
            self, dt, interval_seconds, warmup_seconds, keep_ground_truth
        )


class FluidSession:
    """A resumable fluid emulation, advanced N intervals at a time.

    Created by :meth:`FluidNetwork.session`: the ``B = 1`` face of a
    :class:`~repro.fluid.batch.FluidBatchSession` over this one
    network, which runs the fluid step program. Advancing a session in
    any segmentation produces *bit-identical* records to a one-shot
    :meth:`FluidNetwork.run` of the same total length (the loop and
    its RNG stream are shared; segmentation only changes where the
    generator pauses). Between segments the session accepts link-spec
    swaps, which take effect at the next interval boundary — the
    substrate hook behind the streaming monitor's mid-run
    differentiation onset/offset scenarios.
    """

    def __init__(
        self,
        sim: FluidNetwork,
        dt: float,
        interval_seconds: float,
        warmup_seconds: float,
        keep_ground_truth: bool = True,
    ) -> None:
        from repro.fluid.batch import FluidBatchNetwork

        self._batch = FluidBatchNetwork._of_worlds([sim]).session(
            dt=dt,
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
            keep_ground_truth=keep_ground_truth,
        )
        self.interval_seconds = self._batch.interval_seconds

    @property
    def intervals_done(self) -> int:
        return self._batch.intervals_done

    def set_link_specs(
        self, link_specs: Mapping[str, LinkSpec] = None
    ) -> None:
        """Swap the per-link specs at the next interval boundary.

        The mapping is validated and completed exactly like the
        constructor's (unspecified links revert to defaults). Queues
        and in-flight flow state carry over; token buckets persist
        for links that stay policed and start full for newly policed
        links.
        """
        self._batch.set_link_specs(link_specs)

    def advance(self, num_intervals: int) -> RecordChunk:
        """Emulate ``num_intervals`` more measurement intervals.

        Returns:
            The new intervals' measured-path records (the same
            integer counters the final :meth:`result` will contain
            for this span).
        """
        return self._batch.advance(num_intervals)[0]

    def result(self) -> SubstrateResult:
        """Package everything emulated so far as a
        :class:`~repro.substrate.base.SubstrateResult`.

        Identical to what :meth:`FluidNetwork.run` would have
        returned for the same total number of intervals.
        """
        return self._batch.result(0)
