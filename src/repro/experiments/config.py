"""Experiment configuration objects (Table 1 defaults).

One :class:`EmulationSettings` instance carries everything that is
common to all experiments: run length, step, measurement interval,
loss threshold, and the solvability-decision safeguards. The paper's
Table 1 parameter space is encoded in
:mod:`repro.workloads.profiles`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.measurement.clustering import (
    DEFAULT_DEFINITE,
    DEFAULT_MIN_ABSOLUTE,
    DEFAULT_MIN_RATIO,
)

#: Topology B's decision fields, for every multi-ISP run: with nine
#: examined systems there is a population to cluster over, so the
#: decision leans on the 2-means split (looser ratio) and a higher
#: absolute backstop than the single-system topology A.
TOPOLOGY_B_DECIDERS = {"decider_min_ratio": 2.0, "decider_definite": 0.10}
from repro.measurement.normalize import DEFAULT_LOSS_THRESHOLD


@dataclass(frozen=True)
class EmulationSettings:
    """Shared knobs of one emulated experiment.

    Attributes:
        duration_seconds: Measured span (paper: 600 s; the benches
            default to 300 s, which the calibration shows is enough
            for stable verdicts).
        warmup_seconds: Excluded start-up transient.
        dt: Fluid step.
        interval_seconds: Measurement interval (Table 1: 100 ms).
        loss_threshold: Congestion threshold on per-interval loss
            fraction (Table 1: 1 %).
        seed: Emulation RNG seed, a non-negative integer.
        decider_min_absolute: Clustering safeguard (see
            :mod:`repro.measurement.clustering`).
        decider_min_ratio: Clustering safeguard.
        decider_definite: Absolute unsolvability bar.
    """

    duration_seconds: float = 300.0
    warmup_seconds: float = 10.0
    dt: float = 0.01
    interval_seconds: float = 0.1
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD
    seed: int = 1
    decider_min_absolute: float = DEFAULT_MIN_ABSOLUTE
    decider_min_ratio: float = DEFAULT_MIN_RATIO
    decider_definite: float = DEFAULT_DEFINITE
    normalization_mode: str = "expected"

    def __post_init__(self) -> None:
        for name in ("duration_seconds", "dt", "interval_seconds"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value}"
                )
        if not (
            math.isfinite(self.warmup_seconds) and self.warmup_seconds >= 0
        ):
            raise ConfigurationError(
                "warmup_seconds must be finite and non-negative, got "
                f"{self.warmup_seconds}"
            )
        if not (
            isinstance(self.seed, numbers.Integral)
            and not isinstance(self.seed, bool)
            and self.seed >= 0
        ):
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if not 0 < self.loss_threshold < 1:
            raise ConfigurationError("loss threshold must be in (0,1)")
        if self.normalization_mode not in ("expected", "sampled"):
            raise ConfigurationError(
                f"unknown normalization mode {self.normalization_mode!r}"
            )

    def with_seed(self, seed: int) -> "EmulationSettings":
        return replace(self, seed=seed)

    def fingerprint(self) -> str:
        """Stable textual identity of every knob, for sweep caching.

        A frozen dataclass repr enumerates all fields with their
        values deterministically, which is exactly what the sweep
        cache needs to distinguish settings variants.
        """
        return repr(self)

    def quick(self, duration_seconds: float = 60.0) -> "EmulationSettings":
        """A shortened copy for tests and smoke runs."""
        return replace(self, duration_seconds=duration_seconds)
