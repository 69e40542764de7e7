"""Algorithm 2: pathset performance numbers from raw records.

The paper's key measurement-processing insight (§6.2): even a neutral
link may drop *different fractions* of packets from paths that carry
different traffic mixes, because loss is not uniform per packet. A
naive comparison would misread this as non-neutrality. Algorithm 2
therefore normalizes observations to *equal-rate traffic aggregates*:

1. In each interval, find the minimum packet count ``m`` over the
   involved paths and (virtually) subsample every path's traffic down
   to ``m`` packets.
2. A path is *congestion-free* in the interval when its subsampled
   loss fraction is below the loss threshold.
3. A pathset is congestion-free when all member paths are.
4. The pathset's congestion-free probability is the fraction of
   congestion-free intervals; its performance number is
   ``y = −log P`` (clamped away from 0).

Subsampling ``m`` of ``M`` packets of which ``L`` were lost makes the
sampled loss count hypergeometric(M, L, m); we either draw it
(``mode="sampled"``) or use its expectation ``m·L/M``
(``mode="expected"``, the default — deterministic and unbiased).

Everything here is batched (DESIGN.md S17): the stacked counters live
on :class:`MeasurementData`, the expected-mode congestion status is
one array expression (``m·L/M`` divided by ``m`` is just ``L/M``, so
the indicator does not depend on the family's minimum rate), and
sampled mode draws all of a family's hypergeometric counts in one
array-shaped call. Only intervals in which every path of the family
sent are *valid*; a pathset congestion-free in ``k`` of ``T`` valid
intervals costs ``cost_table(T)[k]``.

:func:`batch_slice_observations` prices a whole slice batch through
one count route, which the streaming window shares. The members'
status and ``sent > 0`` rows are packed into 64-interval words
(:func:`interval_words`). :func:`slice_counts` ANDs each σ group's
traffic words into its valid mask, masks its members' status words
with it, and pops singleton and pair counts and each group's ``T_g``.
:func:`slice_costs` prices every count by its group's
``cost_table(T_g)``. A singleton has one cost per σ group it belongs
to, so the costs leave here as per-member arrays. Sampled mode differs
only in how the status rows are made: drawn group by group. The
per-pathset loops are frozen with the tests, in
``tests/oracles/algorithm_reference.py`` (its merged mapping keeps one
value per singleton); the per-family semantics are pinned by
``tests/oracles/family_reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.pathsets import PathSet, PathSetFamily
from repro.core.slices import gather_sorted, pair_keys, sorted_unique
from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData

#: Default loss threshold: 1% of (normalized) packets lost marks an
#: interval as congested, matching Algorithm 2's ``0.01·m`` and the
#: bold default of Table 1.
DEFAULT_LOSS_THRESHOLD = 0.01

_BYTE_POPCOUNT = np.array(
    [bin(byte).count("1") for byte in range(256)], dtype=np.int64
)


def _byte_popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word, in ``words``' shape, through a
    byte table: the popcount for NumPy < 2.0, which has no
    ``bitwise_count``."""
    words = np.ascontiguousarray(words)
    table = _BYTE_POPCOUNT[words.view(np.uint8)]
    return table.reshape(words.shape + (8,)).sum(axis=-1)


_popcount = getattr(np, "bitwise_count", _byte_popcount)


#: Pairs per block in :func:`_joint_counts`: bounds the gathered
#: ``(block,)`` word temporaries to a few hundred KB however many
#: sharing pairs a topology has.
PAIR_BLOCK = 1 << 15


def pair_joint_counts(
    status: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    block_pairs: int = PAIR_BLOCK,
) -> np.ndarray:
    """``(status[rows_a] & status[rows_b]).sum(axis=1)``, exactly: how
    many intervals each pair of rows was congestion-free together.
    The boolean ``(n, T)`` matrix is packed by :func:`interval_words`
    and counted by :func:`_joint_counts`."""
    out = np.zeros(rows_a.size, dtype=np.int64)
    _joint_counts(interval_words(status), rows_a, rows_b, out, block_pairs)
    return out


def interval_words(
    matrix: np.ndarray, rows: Optional[np.ndarray] = None
) -> np.ndarray:
    """A boolean ``(n, T)`` matrix packed into 64-interval words,
    stored column-major: one contiguous ``(n,)`` uint64 array per
    word. With ``rows``, the words of those rows, in that order
    (gathered after packing, so a row that several members share is
    packed once)."""
    num_rows, total = matrix.shape
    num_words = (total + 63) >> 6
    # Rows padded to whole words and packed as one flat run: much
    # faster than a per-row packbits when rows are short.
    padded = np.zeros((num_rows, num_words * 64), dtype=bool)
    padded[:, :total] = matrix
    words = np.packbits(padded.reshape(-1)).view(np.uint64)
    words = words.reshape(num_rows, num_words).T
    if rows is not None:
        return words.take(rows, axis=1)
    return np.ascontiguousarray(words)


def _joint_counts(
    words: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    acc: np.ndarray,
    block_pairs: int,
) -> None:
    """Add the joint counts of pairs of :func:`interval_words` rows
    into the int64 ``acc``: the one pair-count primitive of
    Algorithm 2. Per block of pairs and per word, two ``take``
    gathers, an AND and a popcount; blocking keeps the temporaries
    bounded at millions of sharing pairs."""
    for lo in range(0, rows_a.size, block_pairs):
        hi = lo + block_pairs
        a, b, out = rows_a[lo:hi], rows_b[lo:hi], acc[lo:hi]
        for col in words:
            out += _popcount(col.take(a) & col.take(b))


def cost_table(total: int) -> np.ndarray:
    """Algorithm 2's cost of every count of ``total`` intervals.

    ``table[k] = −log(clip(k/total, 1/(2·total), 1))``, so a pathset
    congestion-free in ``k`` intervals costs ``table[k]`` — the same
    float64 as evaluating the expression per pathset.
    """
    eps = 1.0 / (2.0 * total)
    return -np.log(np.clip(np.arange(total + 1) / total, eps, 1.0))


def _check_args(
    loss_threshold: float, mode: str, rng: Optional[np.random.Generator]
) -> None:
    if not 0.0 < loss_threshold < 1.0:
        raise MeasurementError(
            f"loss threshold must be in (0,1), got {loss_threshold}"
        )
    if mode not in ("expected", "sampled"):
        raise MeasurementError(f"unknown mode {mode!r}")
    if mode == "sampled" and rng is None:
        raise MeasurementError("mode='sampled' requires an rng")


def _sampled_loss(
    sent: np.ndarray,
    lost: np.ndarray,
    m: np.ndarray,
    valid: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Hypergeometric subsampled loss counts, drawn in one array call.

    Only valid intervals are drawn (invalid ones consume no
    randomness), in row-major path×interval order — the same RNG
    stream as drawing each cell individually.
    """
    sampled_lost = np.zeros_like(sent, dtype=float)
    cols = np.flatnonzero(valid)
    if cols.size:
        sub_sent = sent[:, cols]
        sub_lost = lost[:, cols]
        sampled_lost[:, cols] = rng.hypergeometric(
            sub_lost,
            sub_sent - sub_lost,
            np.broadcast_to(m[cols], sub_sent.shape),
        )
    return sampled_lost


def congestion_free_matrix(
    data: MeasurementData,
    path_ids: Tuple[str, ...],
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-interval congestion-free indicators for normalized paths.

    Args:
        data: Raw records.
        path_ids: The paths to normalize jointly (the paths of one
            slice family — ``Paths(σ)`` in the paper).
        loss_threshold: Congestion threshold on the loss fraction.
        mode: ``"expected"`` (deterministic) or ``"sampled"``
            (hypergeometric draw, requires ``rng``).
        rng: Random generator for ``mode="sampled"``.

    Returns:
        ``(status, valid)`` where ``status[i, t]`` is 1 when path
        ``path_ids[i]`` was congestion-free in interval ``t`` and
        ``valid[t]`` marks intervals where every path sent at least
        one packet (others carry no information and are skipped).
    """
    _check_args(loss_threshold, mode, rng)
    rows = data.rows_of(path_ids)
    sent = data.sent_matrix[rows]
    lost = data.lost_matrix[rows]
    valid = (sent > 0).all(axis=0)

    if mode == "expected":
        # The expected subsampled fraction (m·L/M)/m is L/M: the
        # indicator is independent of the family's minimum rate.
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(sent > 0, lost / sent, 0.0)
    else:
        m = np.where(valid, sent.min(axis=0), 0)
        sampled_lost = _sampled_loss(sent, lost, m, valid, rng)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(m > 0, sampled_lost / np.maximum(m, 1), 0.0)

    status = (frac < loss_threshold).astype(np.int8)
    status[:, ~valid] = 0
    return status, valid


def _family_values(
    status_valid: np.ndarray,
    family: PathSetFamily,
    index: Dict[str, int],
) -> np.ndarray:
    """Performance numbers for one family from its status matrix.

    ``status_valid`` is the boolean congestion-free matrix restricted
    to valid intervals (family paths × valid intervals). A singleton
    ``{a}`` is counted as the pair ``(a, a)``, so singletons and pairs
    share one :func:`pair_joint_counts` call; pathsets of any other
    size (in practice the rare ≥ 3) are counted one by one. Every
    count is priced by :func:`cost_table`.
    """
    rows_a: List[int] = []
    rows_b: List[int] = []
    others: List[Tuple[int, List[int]]] = []
    for f, ps in enumerate(family):
        rows = [index[pid] for pid in ps]
        if not 1 <= len(rows) <= 2:
            others.append((f, rows))
            rows = [0]  # a placeholder count, overwritten below
        rows_a.append(rows[0])
        rows_b.append(rows[-1])
    counts = pair_joint_counts(
        status_valid,
        np.array(rows_a, dtype=np.intp),
        np.array(rows_b, dtype=np.intp),
    )
    for f, rows in others:
        counts[f] = status_valid[rows].all(axis=0).sum()
    return cost_table(status_valid.shape[1])[counts]


def pathset_performance_numbers(
    data: MeasurementData,
    family: PathSetFamily,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Dict[PathSet, float]:
    """Algorithm 2: performance numbers for a family of pathsets.

    All paths appearing in the family are normalized *jointly* (one
    common subsampling), matching the paper's per-slice processing.
    A pathset congestion-free in ``k`` of the ``T`` valid intervals
    costs ``cost_table(T)[k]``: the probability is clamped at
    ``1/(2T)``, so a pathset congested in *every* interval gets a
    large finite cost.

    Args:
        data: Raw measurement records.
        family: The pathsets to evaluate (singletons and pairs for
            System 4 families).
        loss_threshold: See :func:`congestion_free_matrix`.
        mode: ``"expected"`` or ``"sampled"``.
        rng: Generator for sampled mode.

    Returns:
        ``{pathset: y}`` with ``y = −log P(pathset congestion-free)``.

    Raises:
        MeasurementError: When no interval has traffic on every path
            of the family.
    """
    paths: Tuple[str, ...] = tuple(
        sorted({pid for ps in family for pid in ps})
    )
    if not paths:
        return {}
    status, valid = congestion_free_matrix(
        data, paths, loss_threshold, mode, rng
    )
    if not valid.any():
        raise MeasurementError(
            "no interval has traffic on every involved path; cannot "
            "normalize (paths: %s)" % (paths,)
        )
    index = {pid: i for i, pid in enumerate(paths)}
    values = _family_values(status[:, valid].astype(bool), family, index)
    return {ps: float(values[f]) for f, ps in enumerate(family)}


class PathsetObservations(Mapping[PathSet, float]):
    """Read-only ``{pathset: y}`` display view over a slice batch's
    cost arrays.

    What :func:`batch_slice_observations` returns next to the arrays,
    so no frozenset is built per pathset (~905k of them at 5356
    paths) unless a caller reads them. No verdict reads it: a path in
    several σ groups has one cost per group and a mapping holds one,
    so a singleton shows the cost of the last group, in batch order,
    that contains the path and was normalized (all groups agree when
    every path sent in every interval). Pathsets only unexamined
    groups hold are absent.

    * Singletons are the ``used`` rows (the batch's member paths),
      valued by ``y_single`` (NaN on every other row); lookups go
      through ``index.path_pos``.
    * Pairs are ``(pair_a[k], pair_b[k])``, valued by
      ``y_pair_flat[k]``; lookups search a lazily built sorted array
      of ``a·|P| + b`` keys.
    * Iteration order is the eager dict's: singletons by row, then
      pairs in flat batch order.
    * Values are the stored float64s, returned as Python floats —
      equal to an eager dict's values bit for bit.

    It pickles (and copies) as a plain ``dict``. Absent or foreign
    pathsets raise :class:`KeyError`.
    """

    __slots__ = (
        "index", "used", "y_single", "pair_a", "pair_b", "y_pair_flat",
        "_sorted",
    )

    def __init__(
        self, batch, y_member: np.ndarray, y_pair_flat: np.ndarray
    ) -> None:
        self.index = batch.index
        member_rows, pair_a, pair_b = (
            batch.member_rows, batch.pair_a, batch.pair_b
        )
        if np.isnan(y_member).any():
            # Unexamined σ groups (NaN costs) measured nothing.
            kept = ~np.isnan(y_member)
            member_rows, y_member = member_rows[kept], y_member[kept]
            kept = ~np.isnan(y_pair_flat)
            pair_a, pair_b = pair_a[kept], pair_b[kept]
            y_pair_flat = y_pair_flat[kept]
        self.used = sorted_unique(member_rows)
        self.y_single = np.full(self.index.num_paths, np.nan)
        # Repeated rows keep the last value assigned, the later group's.
        self.y_single[member_rows] = y_member
        self.pair_a = pair_a
        self.pair_b = pair_b
        self.y_pair_flat = y_pair_flat
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _sorted_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` of every pair, in ascending key order."""
        if self._sorted is None:
            keys = pair_keys(self.pair_a, self.pair_b, self.index.num_paths)
            order = np.argsort(keys)
            self._sorted = (keys[order], self.y_pair_flat[order])
        return self._sorted

    def __getitem__(self, pathset: PathSet) -> float:
        rows = (
            [self.index.path_pos.get(pid) for pid in pathset]
            if isinstance(pathset, frozenset) and 1 <= len(pathset) <= 2
            else [None]
        )
        if None in rows:
            raise KeyError(pathset)
        if len(rows) == 1:
            value = self.y_single[rows[0]]
        else:
            key = min(rows) * self.index.num_paths + max(rows)
            value = gather_sorted(*self._sorted_pairs(), np.array([key]))[0]
        if math.isnan(value):  # NaN marks an unmeasured pathset
            raise KeyError(pathset)
        return float(value)

    def __len__(self) -> int:
        return int(self.used.size + self.pair_a.size)

    def __iter__(self) -> Iterator[PathSet]:
        path_ids = self.index.path_ids
        for r in self.used.tolist():
            yield frozenset([path_ids[r]])
        for a, b in zip(self.pair_a.tolist(), self.pair_b.tolist()):
            yield frozenset((path_ids[a], path_ids[b]))

    def _value_list(self) -> List[float]:
        return self.y_single[self.used].tolist() + self.y_pair_flat.tolist()

    def items(self) -> ItemsView:
        return _ObservationItems(self)

    def __reduce__(self):
        return (dict, (dict(self.items()),))

    def __repr__(self) -> str:
        return f"PathsetObservations({len(self)} pathsets)"


class _ObservationItems(ItemsView):
    """Items of a :class:`PathsetObservations` in one array pass."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping._value_list())


def batch_slice_observations(
    data: MeasurementData,
    batch,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
    materialize: bool = True,
) -> Tuple[Mapping[PathSet, float], np.ndarray, np.ndarray]:
    """Per-slice observations for a whole
    :class:`~repro.core.slices.SliceSystemBatch` at once.

    Algorithm 2 normalizes each σ group over its valid intervals, the
    ones in which every member path sent: the members' congestion-free
    rows (data-row order in expected mode, drawn group by group in
    sampled mode) and ``sent > 0`` rows are counted by
    :func:`slice_counts` and priced by :func:`slice_costs`.

    Args:
        materialize: When False the mapping is returned empty; the
            arrays alone carry a verdict.

    Returns:
        ``(observations, y_member, y_pair_flat)`` — a display-only
        :class:`PathsetObservations` view (``{}`` for a batch without
        systems), then the cost arrays that carry the verdict:
        ``y_member`` aligned with ``batch.member_rows`` (each σ's own
        singleton costs) and ``y_pair_flat`` aligned with
        ``batch.pair_a``/``pair_b``. Feed the arrays to
        :func:`repro.core.slices.batch_unsolvability_arrays`. A σ
        group with no valid interval cannot be normalized: its costs
        are NaN, and the verdict leaves it unexamined.

    Raises:
        MeasurementError: On records with zero intervals.
    """
    _check_args(loss_threshold, mode, rng)
    if batch.num_systems == 0:
        return {}, np.zeros(0, dtype=float), np.zeros(0, dtype=float)
    if data.num_intervals == 0:
        raise MeasurementError("no interval in the records; cannot normalize")

    # Each member's data row, mapped once from the used path rows.
    used = sorted_unique(batch.member_rows)
    path_ids = batch.index.path_ids
    data_row = np.zeros(batch.index.num_paths, dtype=np.intp)
    data_row[used] = data.rows_of(path_ids[r] for r in used.tolist())
    member_data = data_row[batch.member_rows]

    sent = data.sent_matrix
    traffic = interval_words(sent > 0, member_data)
    if mode == "expected":
        # L/M is NaN where nothing was sent; such cells are not valid.
        with np.errstate(divide="ignore", invalid="ignore"):
            status = data.lost_matrix / sent < loss_threshold
        status = interval_words(status, member_data)
    else:
        status = interval_words(
            _sampled_member_status(data, batch, loss_threshold, rng)
        )
    y_member, y_pair_flat = slice_costs(
        batch, slice_counts(batch, status, traffic)
    )
    if not materialize:
        return {}, y_member, y_pair_flat
    view = PathsetObservations(batch, y_member, y_pair_flat)
    return view, y_member, y_pair_flat


def slice_counts(
    batch, status: np.ndarray, traffic: np.ndarray
) -> np.ndarray:
    """Algorithm 2's integer counts for a slice batch over one span of
    intervals.

    ``status`` and ``traffic`` are the :func:`interval_words` of each
    member's congestion-free and ``sent > 0`` rows, aligned with
    ``batch.member_rows``. A σ group's valid mask is the AND of its
    members' traffic words; a member's words are masked by its group's.
    Returns one int64 vector: each member's congestion-free count,
    then each pair's joint count (aligned with ``batch.pair_a``), then
    each group's valid count ``T_g``. Every entry adds over disjoint
    spans.
    """
    sizes = np.diff(batch.member_offsets)
    valid = np.bitwise_and.reduceat(
        traffic, batch.member_offsets[:-1], axis=1
    )
    masked = status & np.repeat(valid, sizes, axis=1)
    num_members, num_pairs = batch.member_rows.size, batch.num_pairs
    counts = np.zeros(num_members + num_pairs + valid.shape[1], np.int64)
    counts[:num_members] = _popcount(masked).sum(axis=0)
    _joint_counts(
        masked, batch.member_a, batch.member_b,
        counts[num_members:num_members + num_pairs], PAIR_BLOCK,
    )
    counts[num_members + num_pairs:] = _popcount(valid).sum(axis=0)
    return counts


def slice_costs(batch, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(y_member, y_pair_flat)`` from :func:`slice_counts`' vector.

    Each count is priced by its group's ``cost_table(T_g)``: the
    tables of the distinct ``T_g`` are concatenated, so a count plus
    its group's table offset is one flat index (no offset to add when
    every group has the same ``T_g``). A group with ``T_g = 0`` prices
    to NaN.
    """
    num_members = batch.member_rows.size
    num_pairs = batch.num_pairs
    totals, group_table = np.unique(
        counts[num_members + num_pairs:], return_inverse=True
    )
    tables = [
        cost_table(total) if total else np.full(1, np.nan)
        for total in totals.tolist()
    ]
    flat = np.concatenate(tables)
    member_counts = counts[:num_members]
    pair_counts = counts[num_members:num_members + num_pairs]
    # One table is indexed by the counts as they are. Offsetting them
    # builds fresh per-pair index arrays: a fifth of the routine's time
    # on all-traffic records with 900k pairs.
    if len(tables) > 1:
        starts = np.cumsum([0] + [table.size for table in tables[:-1]])
        base = starts[group_table]
        member_counts = member_counts + np.repeat(
            base, np.diff(batch.member_offsets)
        )
        pair_counts = pair_counts + np.repeat(base, np.diff(batch.offsets))
    return flat[member_counts], flat[pair_counts]


def _sampled_member_status(
    data: MeasurementData,
    batch,
    loss_threshold: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each member's congestion-free row, aligned with
    ``batch.member_rows``: drawn through :func:`congestion_free_matrix`
    one σ group at a time in batch order, with the paths in sorted-id
    order."""
    path_ids = batch.index.path_ids
    status = np.empty(
        (batch.member_rows.size, data.num_intervals), dtype=bool
    )
    for g in range(batch.num_systems):
        mlo, mhi = batch.member_offsets[g], batch.member_offsets[g + 1]
        ids = [path_ids[r] for r in batch.member_rows[mlo:mhi].tolist()]
        # Data rows are in sorted-id order, so this sorts the members.
        order = np.argsort(data.rows_of(ids))
        drawn, _ = congestion_free_matrix(
            data, tuple(ids[i] for i in order.tolist()), loss_threshold,
            "sampled", rng,
        )
        status[mlo + order] = drawn
    return status


def path_congestion_probability(
    data: MeasurementData,
    path_id: str,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
) -> float:
    """Unnormalized per-path congestion probability (Figure 8's y-axis).

    The fraction of intervals (with traffic) in which the path's raw
    loss fraction reached the threshold.
    """
    rec = data.record(path_id)
    has_traffic = rec.sent > 0
    if not has_traffic.any():
        return 0.0
    frac = rec.loss_fraction()
    congested = (frac >= loss_threshold) & has_traffic
    return float(congested.sum() / has_traffic.sum())
