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
validates one scenario and owns its specs and RNG, and its session —
the one :class:`~repro.substrate.base.EngineSession` of both engines,
opened with one world — advances the one fluid step program
(:mod:`repro.fluid.batch`) at ``B = 1``. The program is batched numpy
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
from repro.exceptions import ConfigurationError
from repro.fluid.params import LinkSpec, PathWorkload, complete_link_specs
from repro.substrate.base import EngineSession, SubstrateResult, run_session

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
        """Run the emulation in one shot: a :meth:`session` advanced by
        every interval at once (same arithmetic, same RNG stream).

        Args:
            duration_seconds: Measured time span (after warmup).
            dt: Step length; must divide ``interval_seconds``.
            interval_seconds: Measurement interval (Table 1).
            warmup_seconds: Initial span excluded from all records so
                slow-start transients do not bias probabilities.
        """
        return run_session(
            self.session(dt, interval_seconds, warmup_seconds),
            duration_seconds,
        )

    def session(
        self,
        dt: float = DEFAULT_DT,
        interval_seconds: float = DEFAULT_INTERVAL,
        warmup_seconds: float = 0.0,
        keep_ground_truth: bool = True,
    ) -> EngineSession:
        """Open a resumable single-world session (streaming mode).

        The :class:`~repro.substrate.base.EngineSession` advances the
        emulation a chosen number of measurement intervals at a time,
        carrying all flow/queue/RNG state in between, and accepts
        link-spec swaps at interval boundaries (mid-run
        differentiation onset/offset). Only one session may be driven
        per :class:`FluidNetwork` instance — sessions consume the
        instance's RNG.
        """
        path_ids = self._net.path_ids
        return EngineSession(
            self,
            "fluid",
            path_ids,
            [self._workloads[pid].measured for pid in path_ids],
            interval_seconds=interval_seconds,
            warmup_seconds=warmup_seconds,
            dt=dt,
            keep_ground_truth=keep_ground_truth,
        )

    def _interval_loop(self, session: EngineSession):
        """The fluid step program over this one world."""
        from repro.fluid.batch import interval_loop

        return interval_loop([self], session)
