"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by this library derive from :class:`ReproError`,
so callers can catch a single base class at API boundaries. Subclasses
are organized along the package structure: model construction errors,
theory-layer errors, measurement errors, and emulation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ModelError(ReproError):
    """Invalid model construction (bad graph, path, or class definition)."""


class UnknownLinkError(ModelError):
    """A link id was referenced that does not exist in the network."""

    def __init__(self, link_id: str) -> None:
        super().__init__(f"unknown link: {link_id!r}")
        self.link_id = link_id


class UnknownPathError(ModelError):
    """A path id was referenced that does not exist in the network."""

    def __init__(self, path_id: str) -> None:
        super().__init__(f"unknown path: {path_id!r}")
        self.path_id = path_id


class UnknownNodeError(ModelError):
    """A node id was referenced that does not exist in the network."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"unknown node: {node_id!r}")
        self.node_id = node_id


class InvalidPathError(ModelError):
    """A path is not a loop-free sequence of consecutive links."""


class ClassAssignmentError(ModelError):
    """Performance classes do not form a partition of the path set."""


class PerformanceError(ModelError):
    """Invalid performance-number specification for a link or network."""


class TheoryError(ReproError):
    """Errors from the theory layer (slices, equivalents, observability)."""


class SliceError(TheoryError):
    """A network slice could not be formed (e.g., empty pathset family)."""


class MeasurementError(ReproError):
    """Invalid or inconsistent measurement data."""


class EmulationError(ReproError):
    """Errors raised by the fluid or packet-level emulators."""


class ConfigurationError(ReproError):
    """Invalid experiment or workload configuration."""
