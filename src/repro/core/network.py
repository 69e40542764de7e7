"""Network graph model: nodes, links, paths (paper Section 2.3).

The paper represents the network as a tuple ``G = (V, L, P)`` where
``V`` are nodes (end-hosts and relays), ``L`` are links, and ``P`` is
the set of end-to-end paths currently in use. A *link* may stand for an
IP-level link, a domain-level link, or any sequence of consecutive
physical links — the model is agnostic.

This module implements that tuple as :class:`Network`, together with
the helper functions the paper defines:

* ``Paths(l)``  → :meth:`Network.paths_through`
* ``Paths(σ)``  → :meth:`Network.paths_through_all`
* ``Links(p)``  → :meth:`Network.links_of`
* ``Links(Φ)``  → :meth:`Network.links_of_pathset`
* distinguishability of links → :meth:`Network.distinguishable`

Links and paths are identified by strings (``"l1"``, ``"p2"``) so that
constructions mirror the paper's figures verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    InvalidPathError,
    ModelError,
    UnknownLinkError,
    UnknownNodeError,
    UnknownPathError,
)

#: A link sequence σ, normalized to a sorted tuple of link ids. The
#: paper's σ enters the algebra only through the *set* of links it
#: contains (shared links of a path pair), so ordering is canonicalized.
LinkSeq = Tuple[str, ...]


def make_linkseq(links: Iterable[str]) -> LinkSeq:
    """Normalize an iterable of link ids into a canonical :data:`LinkSeq`.

    Duplicates are removed and the ids are sorted so that two sequences
    containing the same links compare equal.
    """
    return tuple(sorted(set(links)))


def pack_bool_rows(rows: np.ndarray) -> np.ndarray:
    """Bit-pack a boolean matrix row-wise into ``(n, W)`` uint64 words.

    The canonical packing used across the inference layer (big-endian
    bit order within bytes, zero-padded to whole words): two packings
    of the same rows are bitwise comparable, and the word-wise AND of
    two packed rows equals the packing of the boolean AND.
    """
    packed = np.packbits(np.ascontiguousarray(rows), axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


class NodeKind:
    """Node roles. End-hosts originate/terminate paths; relays forward."""

    HOST = "host"
    RELAY = "relay"


@dataclass(frozen=True)
class Node:
    """A network node.

    Attributes:
        id: Unique node identifier.
        kind: Either :data:`NodeKind.HOST` or :data:`NodeKind.RELAY`.
    """

    id: str
    kind: str = NodeKind.RELAY

    def __post_init__(self) -> None:
        if self.kind not in (NodeKind.HOST, NodeKind.RELAY):
            raise ModelError(f"invalid node kind: {self.kind!r}")


@dataclass(frozen=True)
class Link:
    """A directed network link (edge) between two nodes.

    The theory in the paper never uses link direction or endpoints —
    only which paths traverse which links — so ``src``/``dst`` are
    optional and exist to support the emulators and topology builders.

    Attributes:
        id: Unique link identifier (e.g. ``"l5"``).
        src: Optional source node id.
        dst: Optional destination node id.
    """

    id: str
    src: Optional[str] = None
    dst: Optional[str] = None


@dataclass(frozen=True)
class Path:
    """A loop-free, end-to-end sequence of consecutive links.

    Attributes:
        id: Unique path identifier (e.g. ``"p1"``).
        links: Ordered tuple of link ids the path traverses.
    """

    id: str
    links: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.links:
            raise InvalidPathError(f"path {self.id!r} has no links")
        if len(set(self.links)) != len(self.links):
            raise InvalidPathError(f"path {self.id!r} repeats a link (loop)")

    @property
    def link_set(self) -> FrozenSet[str]:
        """The set of links traversed — the paper's ``Links(p)``."""
        return frozenset(self.links)


@dataclass(frozen=True)
class PathIndex:
    """Integer-indexed registry of a network's paths and links.

    The inference layer's batched algorithms work on this instead of
    frozensets and dicts: every path and link gets a stable integer
    position (sorted-id order, matching :attr:`Network.path_ids` /
    :attr:`Network.link_ids`), and the path×link structure is exposed
    as one boolean incidence matrix. ``incidence[i, k]`` is True when
    path ``path_ids[i]`` traverses link ``link_ids[k]``; a row is the
    paper's ``Links(p_i)``, a column is ``Paths(l_k)``, and a row-pair
    AND is the shared sequence ``σ`` of Algorithm 1.

    Attributes:
        path_ids: Paths in index order (sorted ids).
        link_ids: Links in index order (sorted ids).
        incidence: Read-only ``(|P|, |L|)`` boolean matrix.
        path_pos: ``{path_id: row}``.
        link_pos: ``{link_id: column}``.
    """

    path_ids: Tuple[str, ...]
    link_ids: Tuple[str, ...]
    incidence: np.ndarray
    path_pos: Mapping[str, int]
    link_pos: Mapping[str, int]

    @property
    def num_paths(self) -> int:
        return len(self.path_ids)

    @property
    def num_links(self) -> int:
        return len(self.link_ids)

    @cached_property
    def packed(self) -> np.ndarray:
        """Bit-packed incidence rows: ``(|P|, W)`` uint64 words.

        ``packed[i] & packed[j]`` is the packed shared sequence of the
        pair ``(i, j)`` — the sparse grouping's signature, 64 links
        per word instead of one bool per link.
        """
        words = pack_bool_rows(self.incidence)
        words.setflags(write=False)
        return words

    @cached_property
    def link_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR columns of the incidence: ``(indptr, path_rows)``.

        ``path_rows[indptr[k]:indptr[k + 1]]`` are the (ascending)
        rows of the paths through link ``k`` — the paper's
        ``Paths(l_k)`` in index form. The sparse pair pass enumerates
        candidate sharing pairs per column instead of over the dense
        ``P²`` triangle.
        """
        cols, rows = np.nonzero(self.incidence.T)
        indptr = np.searchsorted(
            cols, np.arange(self.num_links + 1), side="left"
        ).astype(np.intp)
        rows = rows.astype(np.intp)
        rows.setflags(write=False)
        return indptr, rows

    def rows(self, path_ids: Iterable[str]) -> np.ndarray:
        """Row indices of the given paths, in argument order.

        Raises:
            UnknownPathError: On an id that is not indexed.
        """
        try:
            return np.array(
                [self.path_pos[pid] for pid in path_ids], dtype=np.intp
            )
        except KeyError as exc:
            raise UnknownPathError(str(exc.args[0])) from None

    def link_mask(self, links: Iterable[str]) -> np.ndarray:
        """Boolean ``(|L|,)`` mask of the given links.

        Raises:
            UnknownLinkError: On an id that is not indexed.
        """
        mask = np.zeros(len(self.link_ids), dtype=bool)
        for lid in links:
            try:
                mask[self.link_pos[lid]] = True
            except KeyError:
                raise UnknownLinkError(lid) from None
        return mask

    def linkseq_from_mask(self, mask: np.ndarray) -> LinkSeq:
        """Decode a boolean link mask into a canonical :data:`LinkSeq`.

        Link ids are index-ordered (sorted), so the result is already
        canonical.
        """
        return tuple(self.link_ids[k] for k in np.flatnonzero(mask))


class Network:
    """The network tuple ``G = (V, L, P)``.

    A :class:`Network` is immutable after construction: the theory
    layer caches derived structures (e.g. path-incidence sets), so
    mutating the graph in place would invalidate them.

    Args:
        links: The links ``L``. May be :class:`Link` objects or bare
            link-id strings (endpoint-less links, sufficient for all of
            the theory).
        paths: The paths ``P``.
        nodes: Optional nodes ``V``. When omitted, nodes referenced by
            links are synthesized as relays.

    Raises:
        ModelError: On duplicate ids or dangling references.
    """

    def __init__(
        self,
        links: Iterable[object],
        paths: Iterable[Path],
        nodes: Iterable[Node] = (),
    ) -> None:
        self._links: Dict[str, Link] = {}
        for entry in links:
            link = Link(entry) if isinstance(entry, str) else entry
            if not isinstance(link, Link):
                raise ModelError(f"not a Link: {entry!r}")
            if link.id in self._links:
                raise ModelError(f"duplicate link id: {link.id!r}")
            self._links[link.id] = link

        self._nodes: Dict[str, Node] = {}
        for node in nodes:
            if node.id in self._nodes:
                raise ModelError(f"duplicate node id: {node.id!r}")
            self._nodes[node.id] = node
        for link in self._links.values():
            for endpoint in (link.src, link.dst):
                if endpoint is not None and endpoint not in self._nodes:
                    self._nodes[endpoint] = Node(endpoint, NodeKind.RELAY)

        self._paths: Dict[str, Path] = {}
        for path in paths:
            if path.id in self._paths:
                raise ModelError(f"duplicate path id: {path.id!r}")
            for link_id in path.links:
                if link_id not in self._links:
                    raise UnknownLinkError(link_id)
            self._paths[path.id] = path

        # Incidence caches: link id -> frozenset of path ids, built in
        # one walk over every path's links (O(Σ|path|), not O(|L|·|P|)).
        through: Dict[str, List[str]] = {link_id: [] for link_id in self._links}
        for path in self._paths.values():
            for link_id in path.links:
                through[link_id].append(path.id)
        self._paths_through: Dict[str, FrozenSet[str]] = {
            link_id: frozenset(ids) for link_id, ids in through.items()
        }

        # Lazy derived structures (the graph is immutable): the
        # integer-indexed registry, plus memoized batched-inference
        # artifacts keyed by the layer that builds them (see
        # repro.core.slices).
        self._path_index: Optional[PathIndex] = None
        self._inference_cache: Dict[object, object] = {}

    @property
    def path_index(self) -> PathIndex:
        """The :class:`PathIndex` registry (built once, cached)."""
        if self._path_index is None:
            path_ids = self.path_ids
            link_ids = self.link_ids
            link_pos = {lid: k for k, lid in enumerate(link_ids)}
            incidence = np.zeros((len(path_ids), len(link_ids)), dtype=bool)
            for i, pid in enumerate(path_ids):
                for lid in self._paths[pid].links:
                    incidence[i, link_pos[lid]] = True
            incidence.setflags(write=False)
            self._path_index = PathIndex(
                path_ids=path_ids,
                link_ids=link_ids,
                incidence=incidence,
                path_pos={pid: i for i, pid in enumerate(path_ids)},
                link_pos=link_pos,
            )
        return self._path_index

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def links(self) -> Mapping[str, Link]:
        """All links ``L``, keyed by id."""
        return dict(self._links)

    @property
    def paths(self) -> Mapping[str, Path]:
        """All paths ``P``, keyed by id."""
        return dict(self._paths)

    @property
    def nodes(self) -> Mapping[str, Node]:
        """All nodes ``V``, keyed by id."""
        return dict(self._nodes)

    @property
    def link_ids(self) -> Tuple[str, ...]:
        """Link ids in a stable, sorted order (the paper's ``l_k``)."""
        return tuple(sorted(self._links))

    @property
    def path_ids(self) -> Tuple[str, ...]:
        """Path ids in a stable, sorted order (the paper's ``p_i``)."""
        return tuple(sorted(self._paths))

    def __contains__(self, link_id: str) -> bool:
        return link_id in self._links

    def __len__(self) -> int:
        return len(self._links)

    def link(self, link_id: str) -> Link:
        try:
            return self._links[link_id]
        except KeyError:
            raise UnknownLinkError(link_id) from None

    def path(self, path_id: str) -> Path:
        try:
            return self._paths[path_id]
        except KeyError:
            raise UnknownPathError(path_id) from None

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    # ------------------------------------------------------------------
    # Paper helper functions
    # ------------------------------------------------------------------

    def paths_through(self, link_id: str) -> FrozenSet[str]:
        """``Paths(l)``: ids of all paths that traverse ``link_id``."""
        try:
            return self._paths_through[link_id]
        except KeyError:
            raise UnknownLinkError(link_id) from None

    def paths_through_all(self, links: Iterable[str]) -> FrozenSet[str]:
        """``Paths(σ)``: ids of paths that traverse *every* link in σ."""
        link_list = list(links)
        if not link_list:
            return frozenset(self._paths)
        result = self.paths_through(link_list[0])
        for link_id in link_list[1:]:
            result = result & self.paths_through(link_id)
        return result

    def links_of(self, path_id: str) -> FrozenSet[str]:
        """``Links(p)``: the set of links traversed by ``path_id``."""
        return self.path(path_id).link_set

    def links_of_pathset(self, path_ids: Iterable[str]) -> FrozenSet[str]:
        """``Links(Φ)``: links traversed by at least one path in Φ."""
        result: FrozenSet[str] = frozenset()
        for path_id in path_ids:
            result = result | self.links_of(path_id)
        return result

    def distinguishable(self, link_a: str, link_b: str) -> bool:
        """Whether two links are distinguishable.

        The paper: link ``l`` is distinguishable from ``l'`` when
        ``Paths(l) ≠ Paths(l')``.
        """
        return self.paths_through(link_a) != self.paths_through(link_b)

    # ------------------------------------------------------------------
    # Iteration and construction helpers
    # ------------------------------------------------------------------

    def path_pairs(self) -> Iterator[Tuple[str, str]]:
        """All unordered path pairs ``{p_i, p_j}`` with ``i < j``."""
        ids = self.path_ids
        for i, pa in enumerate(ids):
            for pb in ids[i + 1 :]:
                yield (pa, pb)

    def restricted_to_paths(self, path_ids: Iterable[str]) -> "Network":
        """A sub-network containing only the given paths.

        Links not traversed by any retained path are dropped. Used when
        forming network slices.
        """
        keep = set(path_ids)
        for path_id in keep:
            if path_id not in self._paths:
                raise UnknownPathError(path_id)
        paths = [p for pid, p in self._paths.items() if pid in keep]
        used_links = set()
        for p in paths:
            used_links.update(p.links)
        links = [self._links[lid] for lid in sorted(used_links)]
        return Network(links, paths)

    def __getstate__(self) -> Dict[str, object]:
        """Drop derived caches when pickling (sweep results embed the
        inference network; the index and slice batches are cheap to
        rebuild and would bloat the on-disk cache)."""
        state = self.__dict__.copy()
        state["_path_index"] = None
        state["_inference_cache"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        """Restore from a pickle with the derived caches hard-reset.

        :meth:`__getstate__` already drops them, but a cache entry
        can survive the round-trip through *other* references (an
        older pickle, a state dict assembled elsewhere, a copy
        protocol that bypasses ``__getstate__``). A stale
        ``PathIndex`` silently desynchronizes every memoized artifact
        keyed on it, so restoration never trusts the incoming state —
        and the consumers in :mod:`repro.core.slices` additionally
        verify ``cached.index is net.path_index`` before serving a
        memoized structure.
        """
        self.__dict__.update(state)
        self.__dict__["_path_index"] = None
        self.__dict__["_inference_cache"] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network(|L|={len(self._links)}, |P|={len(self._paths)}, "
            f"|V|={len(self._nodes)})"
        )


def network_from_path_specs(specs: Mapping[str, Sequence[str]]) -> Network:
    """Build a :class:`Network` from ``{path_id: [link ids]}``.

    Convenience constructor used throughout tests and the figure
    topologies: links are synthesized from the union of all specs.

    Example:
        >>> net = network_from_path_specs({"p1": ["l1", "l2"]})
        >>> sorted(net.links)
        ['l1', 'l2']
    """
    link_ids: List[str] = sorted({l for links in specs.values() for l in links})
    paths = [Path(pid, tuple(links)) for pid, links in specs.items()]
    return Network(link_ids, paths)
