"""Network slices and System 4 (paper Section 4.1 and appendix).

To reason about a single link sequence σ, the paper forms a
*specialized* system of equations from exactly the measurements that
constrain σ:

1. ``Φ_σ``: every path pair ``{p_i, p_j}`` whose shared links are
   exactly σ (``Links(p_i) ∩ Links(p_j) = σ``), plus the member
   singletons.
2. The slice ``G_σ``: a two-level logical tree in which σ becomes a
   single logical link and each path's remainder ``ρ_i = Links(p_i)∖σ``
   becomes a private logical link.
3. System 4: ``y = A_σ(Φ_σ)·x`` over the logical links.

Each path pair then pins σ's cost independently:
``x_σ = y_i + y_j − y_{ij}`` (appendix Equation 14) — the remainders
cancel. If different pairs disagree, System 4 is unsolvable and σ is
non-neutral (Lemma 2). The spread of the per-pair estimates is the
*unsolvability score* the practical algorithm clusters on (§6.2).

The code is batched numpy over the
:class:`~repro.core.network.PathIndex` registry (DESIGN.md S13): the
candidate pairs are enumerated per incidence *column* (``Paths(l)``
CSR), not over the dense ``P²`` triangle, and signatures are the
bit-packed uint64 row ANDs. The cold pass groups the pairs one column
at a time, each column emitting its σ groups already in final order,
and lays the systems out in bounded blocks of σ groups
(:data:`COLD_BLOCK`); the dense ``P²`` pass is a test oracle. All
candidate systems are scored at once with one flat
``y_a + y_b − y_ab`` gather (:func:`batch_unsolvability_arrays`,
DESIGN.md S26) over per-member costs: each σ's singletons are priced
by its own family, as Algorithm 2 normalizes each slice on its own,
so a path in several slices has one cost per slice.
:class:`SliceSystemBatch` materializes its per-σ :class:`SliceSystem`
objects lazily so the ≥5k-path runs never build them. The seed's
per-pair/per-dict implementation is frozen with
the tests, in ``tests/oracles/algorithm_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.linear import is_solvable
from repro.core.network import (
    LinkSeq,
    Network,
    PathIndex,
    make_linkseq,
    pack_bool_rows,
)
from repro.core.pathsets import PathSet, PathSetFamily
from repro.exceptions import ConfigurationError, SliceError

#: Column label of the logical link for σ in System 4.
SIGMA_COLUMN = "<sigma>"

@dataclass(frozen=True)
class SliceSystem:
    """System 4 for one link sequence σ.

    Attributes:
        sigma: The link sequence (canonical sorted tuple).
        paths: Paths participating in the slice, ``P_σ``, ordered.
        pairs: The path pairs of ``Φ_σ``, ordered.
        family: The full ordered pathset family: one singleton per
            path in ``paths``, then one pair pathset per entry of
            :attr:`pairs` — the rows of :attr:`matrix`.
        matrix: ``A_σ(Φ_σ)`` over the logical links.
        columns: Column labels: :data:`SIGMA_COLUMN` first, then the
            ids of paths with non-empty remainder ``ρ_i``.
    """

    sigma: LinkSeq
    paths: Tuple[str, ...]
    pairs: Tuple[Tuple[str, str], ...]
    family: PathSetFamily
    matrix: np.ndarray
    columns: Tuple[str, ...]

    @property
    def num_pathsets(self) -> int:
        """``|Φ_σ|`` — Algorithm 1 requires at least 5 (≥ 2 pairs)."""
        return len(self.family)

    def observation_vector(
        self, observations: Mapping[PathSet, float]
    ) -> np.ndarray:
        """Assemble ``y`` from a pathset-performance mapping.

        Raises:
            SliceError: If a needed pathset was not measured.
        """
        values = []
        for ps in self.family:
            if ps not in observations:
                raise SliceError(
                    f"missing observation for pathset {sorted(ps)}"
                )
            values.append(observations[ps])
        return np.array(values, dtype=float)

    def is_solvable_exact(
        self, observations: Mapping[PathSet, float], tol: float = 1e-9
    ) -> bool:
        """Exact rank-based solvability of System 4 (for clean data)."""
        y = self.observation_vector(observations)
        return is_solvable(self.matrix, y, tol=tol)


@dataclass(frozen=True)
class _PairGroups:
    """σ-sorted grouping of all sharing path pairs (memoized per net).

    Attributes:
        index: The registry the rows refer to. Consumers validate
            ``groups.index is net.path_index`` before serving this
            from the memo cache, so a stale entry (e.g. planted
            through the pickle protocol) can never desynchronize.
        sigmas: All shared sequences, sorted.
        sigma_masks: ``(n_sigmas, |L|)`` boolean link masks, aligned.
        pair_a / pair_b: Flat path-row arrays of every sharing pair,
            grouped by sequence; within a group pairs keep the
            row-major ``(i < j)`` enumeration order of
            :meth:`Network.path_pairs` — equivalently, ascending
            ``a·|P| + b`` key order.
        offsets: ``(n_sigmas + 1,)`` group boundaries into the flat
            pair arrays.
        group_of: ``{σ: group position}``.
    """

    index: PathIndex
    sigmas: Tuple[LinkSeq, ...]
    sigma_masks: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    offsets: np.ndarray
    group_of: Mapping[LinkSeq, int]

    def group(self, g: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.offsets[g], self.offsets[g + 1]
        return self.pair_a[lo:hi], self.pair_b[lo:hi]


def _empty_groups(index: PathIndex) -> _PairGroups:
    return _PairGroups(
        index=index,
        sigmas=(),
        sigma_masks=np.zeros((0, index.num_links), dtype=bool),
        pair_a=np.zeros(0, dtype=np.intp),
        pair_b=np.zeros(0, dtype=np.intp),
        offsets=np.zeros(1, dtype=np.intp),
        group_of={},
    )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``(n + 1,)`` segment boundaries of ``n`` segment sizes."""
    return np.concatenate(
        [np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp)]
    )


#: Bound of one block of σ groups in the cold layout
#: (:func:`_member_layout`) and in the scoring
#: (:func:`batch_unsolvability_arrays`). It keeps every per-block
#: temporary at a few MB however many sharing pairs a network has. A
#: block holds whole groups, so it exceeds the bound only by its last
#: one.
COLD_BLOCK = 1 << 16


def _block_bounds(first: np.ndarray) -> List[Tuple[int, int]]:
    """``[lo, hi)`` runs of whole items, in order, of about
    :data:`COLD_BLOCK` pairs each: item ``j``, whose pairs start at
    flat position ``first[j]`` (ascending), opens a new run when that
    position crosses a multiple of :data:`COLD_BLOCK`."""
    if first.size == 0:
        return []
    splits = np.flatnonzero(np.diff(first // COLD_BLOCK)) + 1
    bounds = [0, *splits.tolist(), int(first.size)]
    return list(zip(bounds[:-1], bounds[1:]))


def _pair_groups(net: Network) -> _PairGroups:
    """Lines 2–8 of Algorithm 1, one incidence column at a time.

    A pair shares a link iff it appears in some column of the
    incidence matrix, so the candidates are the within-column pairs of
    ``Paths(l_k)`` (CSR form), ``Σ_k C(|Paths(l_k)|, 2)`` of them
    instead of ``C(P, 2)``, each in ascending ``a·|P| + b`` order.
    Column ``k`` owns the candidates whose lowest shared link is
    ``k`` (no shared bit in the packed words below it), so every
    sharing pair is kept exactly once, and every σ it owns starts
    with ``link_ids[k]``. Link ids are index-sorted, so those σ sort
    after every σ of an earlier column: each column's owned pairs are
    grouped by signature (one lexsort over its non-zero shared words),
    its groups are put in σ order, and the columns' arrays concatenate
    to the final ones. Memoized on the network; a memo entry is served
    only when its registry is still the network's current one.
    """
    cached = net._inference_cache.get("pair_groups")
    if cached is not None and cached.index is net.path_index:
        return cached

    index = net.path_index
    indptr, rows = index.link_csr
    # Word ``w`` of every packed row, contiguous: 1-D gathers from it
    # run ~3× faster than ``packed[rows, w]``.
    words_of = np.ascontiguousarray(index.packed.T)
    # prefix[r]: the bits of a word's first r links.
    prefix = pack_bool_rows(np.tri(64, 64, -1, dtype=bool))[:, 0]
    sigmas: List[LinkSeq] = []
    mask_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    a_parts: List[np.ndarray] = []
    b_parts: List[np.ndarray] = []
    tri_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for k in np.flatnonzero(np.diff(indptr) >= 2).tolist():
        col = rows[indptr[k]:indptr[k + 1]]
        tri = tri_cache.get(col.size)
        if tri is None:
            tri = tri_cache[col.size] = np.triu_indices(col.size, k=1)
        a, b = col[tri[0]], col[tri[1]]
        w0 = k >> 6
        below = words_of[w0][a] & words_of[w0][b] & prefix[k & 63]
        for word in words_of[:w0]:
            below |= word[a] & word[b]
        owned = below == 0
        a, b = a[owned], b[owned]
        if a.size == 0:
            continue
        shared = (word[a] & word[b] for word in words_of[w0:])
        words = [word for word in shared if word.any()]
        order = np.lexsort(words)
        new_group = np.zeros(order.size, dtype=bool)
        new_group[0] = True
        for word in words:
            word = word[order]
            new_group[1:] |= word[1:] != word[:-1]
        starts = np.flatnonzero(new_group)
        sizes = np.diff(starts, append=order.size)
        firsts = order[starts]
        masks = index.incidence[a[firsts]] & index.incidence[b[firsts]]
        column_sigmas = [index.linkseq_from_mask(mask) for mask in masks]
        by_sigma = sorted(range(starts.size), key=column_sigmas.__getitem__)
        # Move whole segments of the (stable) signature order into σ
        # order: each group keeps its ascending a·|P| + b pairs.
        sizes, starts = sizes[by_sigma], starts[by_sigma]
        shift = starts - (np.cumsum(sizes) - sizes)
        take = order[np.repeat(shift, sizes) + np.arange(order.size)]
        sigmas.extend(map(column_sigmas.__getitem__, by_sigma))
        mask_parts.append(masks[by_sigma])
        count_parts.append(sizes)
        a_parts.append(a[take])
        b_parts.append(b[take])
    if not sigmas:
        groups = _empty_groups(index)
    else:
        groups = _PairGroups(
            index=index,
            sigmas=tuple(sigmas),
            sigma_masks=np.concatenate(mask_parts),
            pair_a=np.concatenate(a_parts),
            pair_b=np.concatenate(b_parts),
            offsets=_offsets(np.concatenate(count_parts)),
            group_of={s: g for g, s in enumerate(sigmas)},
        )
    net._inference_cache["pair_groups"] = groups
    return groups


def shared_sequences(net: Network) -> Dict[LinkSeq, List[Tuple[str, str]]]:
    """Group all path pairs by their shared link sequence.

    This is lines 2–8 of Algorithm 1: for every unordered path pair,
    compute ``σ = Links(p_i) ∩ Links(p_j)`` and bucket the pair under
    σ. Pairs sharing no link (σ empty) are dropped — they say nothing
    about any sequence. Computed in one batched pass over the
    path registry (see :func:`_pair_groups`).

    Returns:
        ``{σ: [pairs]}`` in sorted-σ order, with deterministic
        (row-major) pair order within each bucket.
    """
    groups = _pair_groups(net)
    path_ids = net.path_index.path_ids
    out: Dict[LinkSeq, List[Tuple[str, str]]] = {}
    for g, sigma in enumerate(groups.sigmas):
        ga, gb = groups.group(g)
        out[sigma] = [
            (path_ids[i], path_ids[j])
            for i, j in zip(ga.tolist(), gb.tolist())
        ]
    return out


def pairs_for_sequence(net: Network, sigma: LinkSeq) -> List[Tuple[str, str]]:
    """All path pairs whose shared links are exactly σ."""
    groups = _pair_groups(net)
    g = groups.group_of.get(make_linkseq(sigma))
    if g is None:
        return []
    path_ids = net.path_index.path_ids
    ga, gb = groups.group(g)
    return [
        (path_ids[i], path_ids[j])
        for i, j in zip(ga.tolist(), gb.tolist())
    ]


def _make_system(
    index: PathIndex,
    sigma: LinkSeq,
    sigma_mask: np.ndarray,
    rows: np.ndarray,
    la: np.ndarray,
    lb: np.ndarray,
    pair_list: List[Tuple[str, str]],
    singleton_pathsets: Sequence[PathSet],
) -> SliceSystem:
    """Assemble one :class:`SliceSystem` from index arrays.

    ``rows`` are the member paths' (sorted) index rows, ``la``/``lb``
    each pair's local positions within ``rows``. The matrix is filled
    with vectorized scatter writes: singleton rows carry σ plus the
    path's remainder column (when non-empty), pair rows carry σ plus
    both remainders.
    """
    path_ids = tuple(map(index.path_ids.__getitem__, rows.tolist()))
    rem_any = (index.incidence[rows] & ~sigma_mask).any(axis=1)
    columns = (SIGMA_COLUMN,) + tuple(
        pid
        for pid, has_rem in zip(path_ids, rem_any.tolist())
        if has_rem
    )
    local_col = np.full(rows.size, -1, dtype=np.intp)
    local_col[rem_any] = 1 + np.arange(int(rem_any.sum()), dtype=np.intp)

    num_rows = rows.size + len(pair_list)
    matrix = np.zeros((num_rows, len(columns)), dtype=float)
    matrix[:, 0] = 1.0  # every pathset here traverses σ
    singleton_rows = np.flatnonzero(rem_any)
    matrix[singleton_rows, local_col[singleton_rows]] = 1.0
    pair_rows = rows.size + np.arange(len(pair_list), dtype=np.intp)
    has_a = rem_any[la]
    matrix[pair_rows[has_a], local_col[la[has_a]]] = 1.0
    has_b = rem_any[lb]
    matrix[pair_rows[has_b], local_col[lb[has_b]]] = 1.0

    return SliceSystem(
        sigma=sigma,
        paths=path_ids,
        pairs=tuple(pair_list),
        family=_pathset_family(rows, pair_list, singleton_pathsets),
        matrix=matrix,
        columns=columns,
    )


def _pathset_family(
    rows: np.ndarray,
    pair_list: Sequence[Tuple[str, str]],
    singleton_pathsets: Sequence[PathSet],
) -> PathSetFamily:
    """``Φ_σ`` in row order: member singletons, then the pairs."""
    return tuple(
        map(singleton_pathsets.__getitem__, rows.tolist())
    ) + tuple(map(frozenset, pair_list))


def build_slice_system(
    net: Network,
    sigma: LinkSeq,
    pairs: Sequence[Tuple[str, str]] = None,
) -> Optional[SliceSystem]:
    """Construct System 4 for a link sequence.

    Args:
        net: The network.
        sigma: The link sequence σ (any iterable of link ids).
        pairs: Pre-computed pairs for σ (from :func:`shared_sequences`);
            computed on the fly when omitted.

    Returns:
        The :class:`SliceSystem`, or ``None`` when no path pair shares
        exactly σ (the slice cannot be formed — the paper's
        non-identifiable case, e.g. ``hl2i`` in Figure 4).
    """
    sigma = make_linkseq(sigma)
    if not sigma:
        raise SliceError("sigma may not be empty")
    pair_list = (
        list(pairs) if pairs is not None else pairs_for_sequence(net, sigma)
    )
    if not pair_list:
        return None
    index = net.path_index
    ga = index.rows(pair[0] for pair in pair_list)
    gb = index.rows(pair[1] for pair in pair_list)
    rows = sorted_unique(np.concatenate((ga, gb)))
    return _make_system(
        index,
        sigma,
        index.link_mask(sigma),
        rows,
        np.searchsorted(rows, ga),
        np.searchsorted(rows, gb),
        pair_list,
        _singleton_pathsets(net),
    )


def _singleton_pathsets(net: Network) -> Tuple[PathSet, ...]:
    """Singleton pathsets aligned with the path index (memoized).

    The memo entry records the registry it was built against and is
    bypassed when the registry changed (stale-cache hole, see
    :meth:`Network.__setstate__`).
    """
    index = net.path_index
    cached = net._inference_cache.get("singleton_pathsets")
    if cached is not None and cached[0] is index:
        return cached[1]
    singles = tuple(frozenset([pid]) for pid in index.path_ids)
    net._inference_cache["singleton_pathsets"] = (index, singles)
    return singles


@dataclass(frozen=True)
class SliceSystemBatch:
    """All candidate System 4s of a network, in flat array form.

    Built once per network, ``min_pathsets`` and method by
    :func:`build_slice_batch` and consumed by the batched scoring
    (:func:`batch_unsolvability_arrays`) and the batched normalization
    (:func:`repro.measurement.normalize.batch_slice_observations`):
    instead of walking per-system dicts, every pair of every candidate
    system lives in one flat ``(n_pairs,)`` index array, with
    ``offsets`` marking system boundaries.

    The per-σ :class:`SliceSystem` objects (matrices, pathset
    families) are built *lazily*, one at a time, by :meth:`system`
    and memoized — the flat arrays alone carry the records→verdict
    hot path, and at ≥5k paths the eager objects would dominate time
    and memory. :class:`SliceSystemsView` is the ``{σ: system}``
    mapping over that memo.

    Attributes:
        index: The path/link registry.
        sigmas: Candidate sequences, sorted (σ-sorted system order).
        sigma_masks: ``(n_systems, |L|)`` boolean link masks, aligned.
        pair_a / pair_b: Flat path-row arrays of all systems' pairs.
        offsets: ``(n_systems + 1,)`` boundaries into the pair arrays.
        member_rows: Flat member-path rows of all systems (each
            system's slice sorted ascending — its ``P_σ``).
        member_offsets: ``(n_systems + 1,)`` boundaries into
            ``member_rows``.
        member_a / member_b: Each pair's positions in the flat
            ``member_rows``, aligned with ``pair_a``/``pair_b``
            (``member_rows[member_a] == pair_a``): the scorer gathers
            a pair's singleton costs, which are per member, through
            them. :attr:`la`/:attr:`lb` are the same positions local
            to the owning system's segment.
        singletons: Singleton pathsets aligned with the registry rows
            (shared with :func:`_singleton_pathsets`).
    """

    index: PathIndex
    sigmas: Tuple[LinkSeq, ...]
    sigma_masks: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    offsets: np.ndarray
    member_rows: np.ndarray
    member_offsets: np.ndarray
    member_a: np.ndarray
    member_b: np.ndarray
    singletons: Tuple[PathSet, ...]

    @property
    def num_systems(self) -> int:
        return len(self.sigmas)

    @property
    def num_pairs(self) -> int:
        return int(self.pair_a.size)

    @cached_property
    def system_of(self) -> Dict[LinkSeq, int]:
        """``{σ: system position}``."""
        return {sigma: g for g, sigma in enumerate(self.sigmas)}

    @cached_property
    def sigma_incidence(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(n_systems, |L|)`` float32 0/1 σ × link incidence and the
        ``(n_systems,)`` σ sizes — the operands of the §5 redundancy
        pruning (:func:`repro.core.algorithm.redundant_rows`)."""
        incidence = self.sigma_masks.astype(np.float32)
        return incidence, incidence.sum(axis=1)

    @cached_property
    def _memo(self) -> Dict[int, SliceSystem]:
        return {}

    @property
    def num_materialized(self) -> int:
        """How many per-σ systems have been built so far."""
        return len(self._memo)

    @property
    def la(self) -> np.ndarray:
        """Each pair's *local* member position ``a`` (within its
        system's ``member_rows`` segment), built on each read."""
        return self.member_a - self._pair_member_base()

    @property
    def lb(self) -> np.ndarray:
        """As :attr:`la`, for ``b``."""
        return self.member_b - self._pair_member_base()

    def _pair_member_base(self) -> np.ndarray:
        """Each pair's system's first position in ``member_rows``."""
        return np.repeat(self.member_offsets[:-1], np.diff(self.offsets))

    def _pair_list(self, g: int) -> List[Tuple[str, str]]:
        path_ids = self.index.path_ids
        lo, hi = self.offsets[g], self.offsets[g + 1]
        return [
            (path_ids[i], path_ids[j])
            for i, j in zip(
                self.pair_a[lo:hi].tolist(), self.pair_b[lo:hi].tolist()
            )
        ]

    def _member_rows(self, g: int) -> np.ndarray:
        return self.member_rows[
            self.member_offsets[g]:self.member_offsets[g + 1]
        ]

    def system(self, g: int) -> SliceSystem:
        """The :class:`SliceSystem` of ``sigmas[g]`` (built on first
        request, then memoized)."""
        system = self._memo.get(g)
        if system is None:
            lo, hi = self.offsets[g], self.offsets[g + 1]
            base = self.member_offsets[g]
            system = _make_system(
                self.index,
                self.sigmas[g],
                self.sigma_masks[g],
                self._member_rows(g),
                self.member_a[lo:hi] - base,
                self.member_b[lo:hi] - base,
                self._pair_list(g),
                self.singletons,
            )
            self._memo[g] = system
        return system

    @property
    def systems(self) -> Tuple[SliceSystem, ...]:
        """Every :class:`SliceSystem`, aligned with :attr:`sigmas`."""
        return tuple(map(self.system, range(self.num_systems)))

    def systems_dict(self) -> Dict[LinkSeq, SliceSystem]:
        """``{σ: system}`` in σ-sorted insertion order."""
        return dict(zip(self.sigmas, self.systems))

    def families(self) -> Iterator[PathSetFamily]:
        """Each system's pathset family, in system order — without
        building the systems' matrices."""
        for g in range(self.num_systems):
            system = self._memo.get(g)
            yield (
                system.family
                if system is not None
                else _pathset_family(
                    self._member_rows(g), self._pair_list(g), self.singletons
                )
            )


class SliceSystemsView(Mapping[LinkSeq, SliceSystem]):
    """Read-only ``{σ: SliceSystem}`` over a :class:`SliceSystemBatch`.

    The shape of :attr:`AlgorithmResult.systems
    <repro.core.algorithm.AlgorithmResult.systems>`: iteration and
    membership use the batch's σ order and table, and a system is
    built (through :meth:`SliceSystemBatch.system`) only when read.
    Pickles as a plain ``dict``, so a result crossing a process or
    cache boundary carries every system, as an eager dict would.
    """

    __slots__ = ("_batch",)

    def __init__(self, batch: SliceSystemBatch) -> None:
        self._batch = batch

    def __getitem__(self, sigma: LinkSeq) -> SliceSystem:
        g = self._batch.system_of.get(sigma)
        if g is None:
            raise KeyError(sigma)
        return self._batch.system(g)

    def __contains__(self, sigma: object) -> bool:
        return sigma in self._batch.system_of

    def __iter__(self) -> Iterator[LinkSeq]:
        return iter(self._batch.sigmas)

    def __len__(self) -> int:
        return self._batch.num_systems

    def __reduce__(self):
        return (dict, (self._batch.systems_dict(),))

    def __repr__(self) -> str:
        return f"SliceSystemsView({len(self)} systems)"


def _member_layout(
    groups: _PairGroups,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each group's member paths and each pair's member positions.

    Runs over blocks of whole groups of about :data:`COLD_BLOCK`
    pairs: within a block, the member rows of every group come from
    one sorted unique over ``(group, row)`` keys, and a pair's
    positions are its keys' ranks among the block's members, offset
    by the members of the blocks before.

    Returns:
        ``(member_rows, member_counts, member_a, member_b)`` — the
        members of each group ascending, one count per group, and each
        pair's positions in the flat ``member_rows``, aligned with
        ``groups.pair_a`` / ``pair_b``.
    """
    offsets = groups.offsets
    num_paths = groups.index.num_paths
    member_a = np.empty(groups.pair_a.size, dtype=np.intp)
    member_b = np.empty(groups.pair_b.size, dtype=np.intp)
    member_parts: List[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    member_counts = np.zeros(offsets.size - 1, dtype=np.intp)
    done = 0  # members of the blocks before
    for g0, g1 in _block_bounds(offsets[:-1]):
        lo, hi = offsets[g0], offsets[g1]
        local_group = np.repeat(
            np.arange(g1 - g0, dtype=np.intp), np.diff(offsets[g0:g1 + 1])
        )
        base = local_group * num_paths
        key_a = base + groups.pair_a[lo:hi]
        key_b = base + groups.pair_b[lo:hi]
        members = sorted_unique(np.concatenate((key_a, key_b)))
        starts = np.searchsorted(
            members, np.arange(g1 - g0 + 1, dtype=np.intp) * num_paths
        )
        member_a[lo:hi] = np.searchsorted(members, key_a) + done
        member_b[lo:hi] = np.searchsorted(members, key_b) + done
        member_parts.append(members % num_paths)
        member_counts[g0:g1] = np.diff(starts)
        done += members.size
    return np.concatenate(member_parts), member_counts, member_a, member_b


def build_slice_batch(
    net: Network, min_pathsets: int
) -> Tuple[SliceSystemBatch, Tuple[LinkSeq, ...]]:
    """Lines 2–12 of Algorithm 1, batched.

    Groups all path pairs by shared sequence (:func:`_pair_groups`),
    drops sequences below the pathset threshold, and lays out every
    surviving System 4 in flat arrays (objects materialize lazily).
    When nothing is dropped, the batch shares the groups' pair arrays.
    Memoized on the network per ``min_pathsets``; served only while
    the memo's registry is the network's current one.

    Returns:
        ``(batch, skipped)`` — the candidate systems and the
        sequences with too few pathsets (non-identifiable).

    Raises:
        ConfigurationError: If ``min_pathsets`` is not an integer.
    """
    if isinstance(min_pathsets, bool) or not isinstance(
        min_pathsets, (int, np.integer)
    ):
        raise ConfigurationError(
            f"min_pathsets must be an integer, got {min_pathsets!r}"
        )
    min_pathsets = int(min_pathsets)
    cache_key = ("slice_batch", min_pathsets)
    cached = net._inference_cache.get(cache_key)
    if cached is not None and cached[0].index is net.path_index:
        return cached

    groups = _pair_groups(net)
    index = net.path_index
    member_rows, member_counts, member_a, member_b = _member_layout(groups)
    pair_counts = np.diff(groups.offsets)
    kept = member_counts + pair_counts >= min_pathsets
    pair_a, pair_b = groups.pair_a, groups.pair_b
    offsets, sigma_masks = groups.offsets, groups.sigma_masks
    if not kept.all():
        on_pair = np.repeat(kept, pair_counts)
        pair_a, pair_b = pair_a[on_pair], pair_b[on_pair]
        # A kept pair's members move down by the members of the
        # dropped groups before its own.
        dropped_before = np.cumsum(np.where(kept, 0, member_counts))
        shift = np.repeat(dropped_before[kept], pair_counts[kept])
        member_a = member_a[on_pair] - shift
        member_b = member_b[on_pair] - shift
        member_rows = member_rows[np.repeat(kept, member_counts)]
        offsets = _offsets(pair_counts[kept])
        sigma_masks = sigma_masks[kept]
    keep_list = kept.tolist()
    batch = SliceSystemBatch(
        index=index,
        sigmas=tuple(s for s, k in zip(groups.sigmas, keep_list) if k),
        sigma_masks=sigma_masks,
        pair_a=pair_a,
        pair_b=pair_b,
        offsets=offsets,
        member_rows=member_rows,
        member_offsets=_offsets(member_counts[kept]),
        member_a=member_a,
        member_b=member_b,
        singletons=_singleton_pathsets(net),
    )
    skipped = tuple(s for s, k in zip(groups.sigmas, keep_list) if not k)
    result = (batch, skipped)
    net._inference_cache[cache_key] = result
    return result


# ----------------------------------------------------------------------
# Batched scoring
# ----------------------------------------------------------------------


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer arrays, by one sort.

    Keeps the first element of the flattened sorted array and every
    element that differs from its predecessor: same values, same dtype.
    NumPy 2.x's ``np.unique`` deduplicates through a hash table, which
    is 15–35× slower than a sort at 10⁵–10⁶ int64 keys (NumPy 2.4.6).
    """
    ordered = np.sort(values, axis=None)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def pair_keys(
    pair_a: np.ndarray, pair_b: np.ndarray, num_paths: int
) -> np.ndarray:
    """Scalar ``a·|P| + b`` keys of row pairs (``a < b``), as int64."""
    return pair_a.astype(np.int64) * num_paths + pair_b


def gather_sorted(
    sorted_keys: np.ndarray, sorted_values: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """``sorted_values`` at the positions of ``keys`` in ``sorted_keys``.

    A ``searchsorted`` lookup over unique ascending keys; keys that are
    absent gather NaN. Values are copied, never recomputed, so the
    result is bitwise the stored values.
    """
    if sorted_keys.size == 0:
        return np.full(keys.shape, np.nan)
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    out = sorted_values[pos]
    out[sorted_keys[pos] != keys] = np.nan
    return out


def _observation_arrays(
    batch: SliceSystemBatch, observations: Mapping[PathSet, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Unpack a pathset→value mapping into the scorer's cost arrays.

    The one edge where a hand-built or exact mapping enters the
    array route. A mapping has one value per singleton, so every σ
    prices a member path alike. Returns ``(y_member, y_pair_flat)``:
    singleton values aligned with ``batch.member_rows`` and pair
    values aligned with ``batch.pair_a``/``pair_b``: one pass
    collects pair values by scalar pair key, then one sorted-key
    gather. Entries for paths outside the index are ignored.

    Raises:
        SliceError: If a pathset some σ needs is not in the mapping.
    """
    index = batch.index
    pos = index.path_pos
    num_paths = index.num_paths
    y_single = np.full(num_paths, np.nan)
    rows_a: List[int] = []
    rows_b: List[int] = []
    pair_values: List[float] = []
    for ps, value in observations.items():
        size = len(ps)
        if size == 1:
            (pid,) = ps
            i = pos.get(pid)
            if i is not None:
                y_single[i] = value
        elif size == 2:
            pid_a, pid_b = ps
            i, j = pos.get(pid_a), pos.get(pid_b)
            if i is not None and j is not None:
                rows_a.append(i)
                rows_b.append(j)
                pair_values.append(value)
    # Each temporary is dropped as soon as it is consumed: at 5k paths
    # there are ~900k pairs, and the lists alone are ~25 MB.
    rows = np.array([rows_a, rows_b], dtype=np.intp).reshape(2, -1)
    values = np.array(pair_values, dtype=float)
    del rows_a, rows_b, pair_values
    rows.sort(axis=0)  # each column becomes (a, b) with a < b
    keys = pair_keys(rows[0], rows[1], num_paths)
    del rows
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    del order
    y_pair_flat = gather_sorted(
        keys, values, pair_keys(batch.pair_a, batch.pair_b, num_paths)
    )
    y_member = y_single[batch.member_rows]
    for costs, rows in (
        (y_member, [batch.member_rows]),
        (y_pair_flat, [batch.pair_a, batch.pair_b]),
    ):
        missing = np.flatnonzero(np.isnan(costs))
        if missing.size:
            paths = sorted(index.path_ids[r[missing[0]]] for r in rows)
            raise SliceError(f"missing observation for pathset {paths}")
    return y_member, y_pair_flat


def batch_pair_estimates_arrays(
    batch: SliceSystemBatch,
    y_member: np.ndarray,
    y_pair_flat: np.ndarray,
) -> np.ndarray:
    """Equation 14 for *all* candidate systems at once.

    ``y_member`` is aligned with ``batch.member_rows`` (each σ's own
    singleton costs), ``y_pair_flat`` with ``batch.pair_a``/``pair_b``.
    NaN costs mark a σ that Algorithm 2 could not normalize (no
    interval in which all its paths sent); its estimates are NaN.

    Returns:
        The flat ``(n_pairs,)`` array of ``y_a + y_b − y_ab``
        estimates, aligned with ``batch.pair_a``/``pair_b`` and
        segmented by ``batch.offsets``: σ ``g``'s estimates are
        ``[offsets[g], offsets[g + 1])``, in the order of its
        :attr:`SliceSystem.pairs`.
    """
    return _pair_estimates(batch, y_member, y_pair_flat, 0, batch.num_pairs)


def _pair_estimates(
    batch: SliceSystemBatch,
    y_member: np.ndarray,
    y_pair_flat: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Equation 14 over the flat pairs ``[lo, hi)``."""
    return (
        y_member[batch.member_a[lo:hi]]
        + y_member[batch.member_b[lo:hi]]
        - y_pair_flat[lo:hi]
    )


def batch_unsolvability_arrays(
    batch: SliceSystemBatch,
    y_member: np.ndarray,
    y_pair_flat: np.ndarray,
) -> np.ndarray:
    """Unsolvability scores of all candidate systems in one pass.

    Per-pair estimates (:func:`batch_pair_estimates_arrays`) are
    clipped at 0 first: a performance number is a nonnegative cost,
    so a negative estimate carries no evidence about σ — it is
    sampling noise (or mild anti-correlation from capacity coupling)
    and must not inflate the spread. Each system's score is then the
    max − min over its segment; single-pair systems score 0. A σ with
    NaN costs (not normalized, so not examined) scores NaN.

    Scored over blocks of whole systems (:func:`_block_bounds`), so
    no ``(n_pairs,)`` estimate array is held at once.
    """
    offsets = batch.offsets
    spread = np.zeros(batch.num_systems, dtype=float)
    for g0, g1 in _block_bounds(offsets[:-1]):
        lo, hi = int(offsets[g0]), int(offsets[g1])
        clipped = _pair_estimates(batch, y_member, y_pair_flat, lo, hi)
        np.maximum(clipped, 0.0, out=clipped)
        starts = offsets[g0:g1] - lo
        spread[g0:g1] = np.maximum.reduceat(clipped, starts)
        spread[g0:g1] -= np.minimum.reduceat(clipped, starts)
    # spread * 0.0 is 0 for a single-pair system, NaN for an
    # unexamined one.
    return np.where(np.diff(offsets) >= 2, spread, spread * 0.0)
