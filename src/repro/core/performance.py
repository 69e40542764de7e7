"""Link performance numbers and exact (model-level) observations.

The paper characterizes a link by performance numbers
``x(n) ≈ log P(congestion-free for class c_n)``; we use the equivalent
nonnegative convention ``x(n) = −log P(...)`` (see DESIGN.md §3), so a
performance number is a "congestion cost": 0 means always
congestion-free, larger means congested more often. Costs add along a
link sequence (Equation 1) and across the links of a pathset in a
neutral network (Equation 2), because probabilities of independent
congestion-free events multiply.

:class:`LinkPerformance` models a single link (neutral or per-class);
:class:`NetworkPerformance` assigns a performance to every link and can
produce *exact* observations for any pathset family — the noise-free
``y`` vector an omniscient measurement platform would report. Exact
observations drive the theory tests and the analytic examples; the
emulators provide the noisy, realistic counterpart.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.core.pathsets import PathSet, PathSetFamily
from repro.exceptions import PerformanceError


def perf_from_probability(p_congestion_free: float) -> float:
    """Convert a congestion-free probability into a performance number.

    ``x = −log(p)``; ``p`` must be in ``(0, 1]``.
    """
    if not 0.0 < p_congestion_free <= 1.0:
        raise PerformanceError(
            f"probability out of (0, 1]: {p_congestion_free}"
        )
    return -math.log(p_congestion_free)


def probability_from_perf(x: float) -> float:
    """Inverse of :func:`perf_from_probability`: ``p = exp(−x)``."""
    if x < 0:
        raise PerformanceError(f"negative performance number: {x}")
    return math.exp(-x)


class LinkPerformance:
    """Performance numbers of one link.

    A link is *neutral* when its performance number is identical for
    every class, and *non-neutral* otherwise. Construct via
    :meth:`neutral` or :meth:`non_neutral`.
    """

    def __init__(self, per_class: Mapping[str, float]) -> None:
        if not per_class:
            raise PerformanceError("per_class may not be empty")
        for name, x in per_class.items():
            if x < 0 or not math.isfinite(x):
                raise PerformanceError(
                    f"performance number for class {name!r} must be a "
                    f"finite nonnegative float, got {x}"
                )
        self._per_class: Dict[str, float] = dict(per_class)

    @classmethod
    def neutral(cls, x: float, class_names: Iterable[str]) -> "LinkPerformance":
        """A neutral link: the same ``x`` for every class."""
        return cls({name: x for name in class_names})

    @classmethod
    def non_neutral(cls, per_class: Mapping[str, float]) -> "LinkPerformance":
        """A (possibly) non-neutral link with explicit per-class numbers."""
        return cls(per_class)

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(self._per_class)

    def for_class(self, class_name: str) -> float:
        """``x(n)`` for the named class."""
        try:
            return self._per_class[class_name]
        except KeyError:
            raise PerformanceError(
                f"link has no performance number for class {class_name!r}"
            ) from None

    @property
    def is_neutral(self) -> bool:
        values = list(self._per_class.values())
        return all(
            math.isclose(v, values[0], rel_tol=0.0, abs_tol=1e-12)
            for v in values
        )

    @property
    def top_priority_class(self) -> str:
        """The class with the *highest* performance (lowest cost).

        Ties are broken by class-name order so the equivalent-network
        construction is deterministic.
        """
        return min(sorted(self._per_class), key=lambda n: self._per_class[n])

    @property
    def neutral_value(self) -> float:
        """The single performance number of a neutral link."""
        if not self.is_neutral:
            raise PerformanceError("link is non-neutral; no single value")
        return next(iter(self._per_class.values()))

    def as_dict(self) -> Dict[str, float]:
        return dict(self._per_class)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={x:.4g}" for name, x in sorted(self._per_class.items())
        )
        return f"LinkPerformance({inner})"


class NetworkPerformance:
    """Ground-truth performance numbers for every link of a network.

    This object fully specifies the paper's probabilistic model: which
    links are neutral, each link's per-class congestion cost, and —
    via the equivalent neutral network — the exact distribution of any
    external observation.

    Args:
        net: The network.
        classes: The class assignment ``C``.
        link_perf: ``{link_id: LinkPerformance}`` covering every link.
    """

    def __init__(
        self,
        net: Network,
        classes: ClassAssignment,
        link_perf: Mapping[str, LinkPerformance],
    ) -> None:
        missing = set(net.link_ids) - set(link_perf)
        if missing:
            raise PerformanceError(
                f"links without performance numbers: {sorted(missing)}"
            )
        extra = set(link_perf) - set(net.link_ids)
        if extra:
            raise PerformanceError(
                f"performance given for unknown links: {sorted(extra)}"
            )
        expected = set(classes.names)
        for link_id, perf in link_perf.items():
            if set(perf.class_names) != expected:
                raise PerformanceError(
                    f"link {link_id!r} covers classes "
                    f"{sorted(perf.class_names)}, expected {sorted(expected)}"
                )
        self._net = net
        self._classes = classes
        self._link_perf: Dict[str, LinkPerformance] = dict(link_perf)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def network(self) -> Network:
        return self._net

    @property
    def classes(self) -> ClassAssignment:
        return self._classes

    def link_performance(self, link_id: str) -> LinkPerformance:
        return self._link_perf[link_id]

    def is_link_neutral(self, link_id: str) -> bool:
        return self._link_perf[link_id].is_neutral

    @property
    def neutral_links(self) -> FrozenSet[str]:
        """``L_n``: ids of all neutral links."""
        return frozenset(
            lid for lid, perf in self._link_perf.items() if perf.is_neutral
        )

    @property
    def non_neutral_links(self) -> FrozenSet[str]:
        """``L_n̄``: ids of all non-neutral links."""
        return frozenset(self._net.link_ids) - self.neutral_links

    @property
    def is_network_neutral(self) -> bool:
        return not self.non_neutral_links

    # ------------------------------------------------------------------
    # Exact observations
    # ------------------------------------------------------------------

    def sequence_performance(
        self, links: Iterable[str], class_name: str
    ) -> float:
        """Equation 1: ``x̂_σ(n) = Σ_{l∈σ} x_l(n)``."""
        return sum(
            self._link_perf[lid].for_class(class_name) for lid in links
        )

    def path_performance(self, path_id: str) -> float:
        """Exact performance number of a single path.

        The path belongs to one class; its cost is the sum of its
        links' costs *for that class*.
        """
        cname = self._classes.class_of(path_id)
        return self.sequence_performance(self._net.links_of(path_id), cname)

    def pathset_performance(self, ps: PathSet) -> float:
        """Exact performance number ``y_Φ`` of a pathset.

        Computed through the equivalent neutral network: ``y_Φ`` is the
        sum of the virtual links' costs over all virtual links
        traversed by at least one path of Φ. This encodes the paper's
        assumption #3 (a non-neutral link that congests its top class
        also congests the others), under which per-link congestion
        events are shared across classes through the common queue.
        """
        from repro.core.equivalent import build_equivalent  # local: avoid cycle

        equivalent = build_equivalent(self)
        return equivalent.pathset_performance(ps)

    def observe(self, fam: PathSetFamily) -> np.ndarray:
        """Exact observation vector ``y`` for a family of pathsets."""
        from repro.core.equivalent import build_equivalent

        equivalent = build_equivalent(self)
        return np.array(
            [equivalent.pathset_performance(ps) for ps in fam], dtype=float
        )


def neutral_performance(
    net: Network,
    classes: ClassAssignment,
    link_values: Mapping[str, float],
) -> NetworkPerformance:
    """Build a fully neutral :class:`NetworkPerformance`.

    Args:
        link_values: ``{link_id: x}``; links not mentioned get 0
            (always congestion-free).
    """
    perf = {
        lid: LinkPerformance.neutral(link_values.get(lid, 0.0), classes.names)
        for lid in net.link_ids
    }
    return NetworkPerformance(net, classes, perf)


def performance_with_violations(
    net: Network,
    classes: ClassAssignment,
    neutral_values: Mapping[str, float],
    violations: Mapping[str, Mapping[str, float]],
) -> NetworkPerformance:
    """Build a :class:`NetworkPerformance` with selected non-neutral links.

    Args:
        neutral_values: Base ``{link_id: x}`` for links *not* in
            ``violations`` (default 0).
        violations: ``{link_id: {class_name: x(n)}}`` — explicit
            per-class numbers for non-neutral links.
    """
    perf: Dict[str, LinkPerformance] = {}
    for lid in net.link_ids:
        if lid in violations:
            perf[lid] = LinkPerformance.non_neutral(violations[lid])
        else:
            perf[lid] = LinkPerformance.neutral(
                neutral_values.get(lid, 0.0), classes.names
            )
    return NetworkPerformance(net, classes, perf)
