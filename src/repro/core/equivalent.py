"""The equivalent neutral network ``G+`` (paper Section 3.2).

From the end-hosts' point of view, any non-neutral network is
indistinguishable from a *neutral* network with more links: each
non-neutral link ``l`` with classes ``c_1..c_|C|`` and top-priority
class ``c_n*`` becomes

* a **common-queue** virtual link ``l+(n*)`` with cost ``x(n*)``,
  traversed by all of ``Paths(l)`` — the congestion that the link
  inflicts on its top class is necessarily inflicted on everything
  (the paper's assumption #3); and
* one **regulation** virtual link ``l+(n)`` per lower-priority class
  ``n ≠ n*`` with cost ``x(n) − x(n*) ≥ 0``, traversed only by
  ``Paths(l) ∩ c_n`` — the *extra* congestion that class ``n``
  suffers.

Neutral links map to themselves. The construction yields identical
external observations (same ``y`` for every pathset), which is what
our tests verify, and it is the object on which Theorem 1's
observability condition is stated.

Regulation links whose path set is empty or whose extra cost is zero
contribute nothing to any observation; they are retained in the
structure and flagged via :attr:`VirtualLink.is_effective`, which the
Theorem 1 check (:func:`repro.core.observability.check_observability`)
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.classes import ClassAssignment
from repro.core.network import Network
from repro.core.pathsets import PathSet, PathSetFamily
from repro.core.performance import NetworkPerformance
from repro.exceptions import TheoryError

#: Cost differences below this are treated as "no regulation".
_COST_TOL = 1e-12


class VirtualLinkKind:
    """Roles of virtual links in ``G+``."""

    NEUTRAL = "neutral"  # image of an originally neutral link
    COMMON = "common"  # l+(n*): the common queue of a non-neutral link
    REGULATION = "regulation"  # l+(n), n != n*: extra cost for class n


@dataclass(frozen=True)
class VirtualLink:
    """One link of the equivalent neutral network.

    Attributes:
        id: Virtual link id, e.g. ``"l1+"`` or ``"l1+(c2)"``.
        origin: Id of the original link this virtual link models.
        kind: One of :class:`VirtualLinkKind`.
        class_name: The regulated class for regulation links, the top
            class for common links, ``None`` for neutral images.
        paths: ``Paths(l+)`` — the paths traversing this virtual link.
        cost: The (neutral) performance number of this virtual link.
    """

    id: str
    origin: str
    kind: str
    class_name: Optional[str]
    paths: FrozenSet[str]
    cost: float

    @property
    def is_effective(self) -> bool:
        """Whether this virtual link can influence any observation."""
        return bool(self.paths) and (
            self.kind != VirtualLinkKind.REGULATION or self.cost > _COST_TOL
        )


class EquivalentNeutralNetwork:
    """The neutral network ``G+`` equivalent to a non-neutral one.

    Provides exact pathset observations and generalized routing
    matrices ``A+`` over the virtual links. The routing matrix of any
    pathset is identical across all neutral equivalents of a network
    (paper §3.2), so this single canonical construction suffices.
    """

    def __init__(
        self,
        original: Network,
        classes: ClassAssignment,
        virtual_links: Iterable[VirtualLink],
    ) -> None:
        self._original = original
        self._classes = classes
        self._virtual: Dict[str, VirtualLink] = {}
        for vl in virtual_links:
            if vl.id in self._virtual:
                raise TheoryError(f"duplicate virtual link id: {vl.id!r}")
            self._virtual[vl.id] = vl

    @property
    def original(self) -> Network:
        return self._original

    @property
    def classes(self) -> ClassAssignment:
        return self._classes

    @property
    def virtual_links(self) -> Mapping[str, VirtualLink]:
        return dict(self._virtual)

    @property
    def virtual_link_ids(self) -> Tuple[str, ...]:
        return tuple(sorted(self._virtual))

    def regulation_links(self) -> Tuple[VirtualLink, ...]:
        """All regulation virtual links ``l+(n)`` with ``n ≠ n*``."""
        return tuple(
            vl
            for vl in self._virtual.values()
            if vl.kind == VirtualLinkKind.REGULATION
        )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def pathset_performance(self, ps: PathSet) -> float:
        """Exact ``y_Φ``: sum of costs of virtual links touched by Φ.

        In a neutral network the congestion-free probability of a
        pathset is the product, over the links any member path
        traverses, of the link's congestion-free probability — hence
        the cost sum (Equation 2 applied to ``G+``).
        """
        total = 0.0
        for vl in self._virtual.values():
            if vl.paths & ps:
                total += vl.cost
        return total

    def observe(self, fam: PathSetFamily) -> np.ndarray:
        """Exact observation vector over a pathset family."""
        return np.array(
            [self.pathset_performance(ps) for ps in fam], dtype=float
        )

    def routing_matrix(self, fam: PathSetFamily) -> "np.ndarray":
        """``A+(Φ)`` over the virtual links, columns sorted by id."""
        cols = self.virtual_link_ids
        matrix = np.zeros((len(fam), len(cols)), dtype=float)
        for i, ps in enumerate(fam):
            for j, vid in enumerate(cols):
                if self._virtual[vid].paths & ps:
                    matrix[i, j] = 1.0
        return matrix

    def cost_vector(self) -> np.ndarray:
        """``x+``: virtual-link costs ordered like the matrix columns."""
        return np.array(
            [self._virtual[vid].cost for vid in self.virtual_link_ids],
            dtype=float,
        )

    def membership_matrix(self, path_ids: Tuple[str, ...]) -> np.ndarray:
        """Boolean ``(n_virtual, len(path_ids))`` traversal matrix.

        Row ``v`` marks the paths traversing virtual link
        ``virtual_link_ids[v]`` — the batched form of the per-pathset
        ``vl.paths & ps`` tests. Paths outside ``path_ids`` are
        ignored.
        """
        pos = {pid: i for i, pid in enumerate(path_ids)}
        matrix = np.zeros(
            (len(self._virtual), len(path_ids)), dtype=bool
        )
        for v, vid in enumerate(self.virtual_link_ids):
            for pid in self._virtual[vid].paths:
                i = pos.get(pid)
                if i is not None:
                    matrix[v, i] = True
        return matrix

    def batch_pathset_costs(
        self,
        path_ids: Tuple[str, ...],
        pair_a: np.ndarray,
        pair_b: np.ndarray,
        block_pairs: int = 1 << 15,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact costs of all singletons and the given pairs at once.

        The vectorized form of :meth:`pathset_performance` used by
        exact-mode Algorithm 1: singleton costs are one matrix-vector
        product ``x+ · M``, and each pair's cost is
        ``y_a + y_b − x+ · (M_a ∧ M_b)`` (links touched by both paths
        are counted once) — evaluated in blocks so the gathered
        membership columns stay bounded.

        Returns:
            ``(y_single, y_pair)`` with ``y_single`` aligned to
            ``path_ids`` and ``y_pair`` to ``pair_a``/``pair_b``
            (positions into ``path_ids``).
        """
        membership = self.membership_matrix(path_ids)
        costs = self.cost_vector()
        y_single = costs @ membership
        common = np.empty(pair_a.size, dtype=float)
        for lo in range(0, int(pair_a.size), block_pairs):
            hi = min(lo + block_pairs, int(pair_a.size))
            common[lo:hi] = costs @ (
                membership[:, pair_a[lo:hi]]
                & membership[:, pair_b[lo:hi]]
            )
        return y_single, y_single[pair_a] + y_single[pair_b] - common


def build_equivalent(
    perf: NetworkPerformance,
    uncorrelated_links: Iterable[str] = (),
) -> EquivalentNeutralNetwork:
    """Construct the canonical neutral equivalent of a network.

    Args:
        perf: Ground-truth performance numbers (neutral or not).
        uncorrelated_links: Non-neutral links whose classes use
            *separate queues* — the paper's §7 "type (b)" links, for
            which assumption #3 (top-class congestion implies
            lower-class congestion) does not hold. Each such link
            maps to |C| *parallel* virtual links, one per class, with
            the class's full cost and path set ``Paths(l) ∩ c_n`` —
            no common-queue link, because the classes' congestion
            events are independent.

    Returns:
        The :class:`EquivalentNeutralNetwork`.
    """
    net = perf.network
    classes = perf.classes
    uncorrelated = set(uncorrelated_links)
    unknown = uncorrelated - set(net.link_ids)
    if unknown:
        raise TheoryError(
            f"uncorrelated links not in the network: {sorted(unknown)}"
        )
    virtual: List[VirtualLink] = []
    for lid in net.link_ids:
        lp = perf.link_performance(lid)
        paths_l = net.paths_through(lid)
        if lid in uncorrelated and not lp.is_neutral:
            # Type (b): one parallel virtual link per class.
            for cls in classes:
                virtual.append(
                    VirtualLink(
                        id=f"{lid}+({cls.name})",
                        origin=lid,
                        kind=VirtualLinkKind.REGULATION,
                        class_name=cls.name,
                        paths=paths_l & cls.paths,
                        cost=lp.for_class(cls.name),
                    )
                )
            continue
        if lp.is_neutral:
            virtual.append(
                VirtualLink(
                    id=f"{lid}+",
                    origin=lid,
                    kind=VirtualLinkKind.NEUTRAL,
                    class_name=None,
                    paths=paths_l,
                    cost=lp.neutral_value,
                )
            )
            continue
        top = lp.top_priority_class
        top_cost = lp.for_class(top)
        virtual.append(
            VirtualLink(
                id=f"{lid}+({top})",
                origin=lid,
                kind=VirtualLinkKind.COMMON,
                class_name=top,
                paths=paths_l,
                cost=top_cost,
            )
        )
        for cls in classes:
            if cls.name == top:
                continue
            extra = lp.for_class(cls.name) - top_cost
            if extra < -_COST_TOL:
                raise TheoryError(
                    f"class {cls.name!r} of link {lid!r} outperforms the "
                    f"top-priority class; top class selection is broken"
                )
            virtual.append(
                VirtualLink(
                    id=f"{lid}+({cls.name})",
                    origin=lid,
                    kind=VirtualLinkKind.REGULATION,
                    class_name=cls.name,
                    paths=paths_l & cls.paths,
                    cost=max(extra, 0.0),
                )
            )
    return EquivalentNeutralNetwork(net, classes, virtual)
