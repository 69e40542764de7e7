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

Since the indexed rewrite (DESIGN.md S17) everything here is batched:
the stacked counters are cached on :class:`MeasurementData`, the
expected-mode congestion status is one array expression (``m·L/M``
divided by ``m`` is just ``L/M``, so the indicator does not depend on
the family's minimum rate), sampled mode draws all hypergeometric
counts in one array-shaped call, and a family's pathset costs come
from index arrays — singleton costs are status rows, pair costs
elementwise row ANDs. The pre-rewrite per-pathset loops are frozen
with the tests, in ``tests/oracles/algorithm_reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.network import PathIndex
from repro.core.pathsets import PathSet, PathSetFamily
from repro.core.slices import (
    _observation_arrays,
    gather_sorted,
    pair_keys,
    sorted_unique,
)
from repro.exceptions import MeasurementError
from repro.measurement.records import MeasurementData

#: Default loss threshold: 1% of (normalized) packets lost marks an
#: interval as congested, matching Algorithm 2's ``0.01·m`` and the
#: bold default of Table 1.
DEFAULT_LOSS_THRESHOLD = 0.01

if hasattr(np, "bitwise_count"):
    _popcount = np.bitwise_count
else:  # pragma: no cover - NumPy < 2.0 has no bitwise_count
    _BYTE_POPCOUNT = np.array(
        [bin(byte).count("1") for byte in range(256)], dtype=np.int64
    )

    def _popcount(words: np.ndarray) -> np.ndarray:
        return _BYTE_POPCOUNT[words.view(np.uint8)].reshape(-1, 8).sum(1)


#: Pairs per block in :func:`pair_joint_counts`: bounds the gathered
#: ``(block,)`` word temporaries to a few hundred KB however many
#: sharing pairs a topology has.
PAIR_BLOCK = 1 << 15


def pair_joint_counts(
    status: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    block_pairs: int = PAIR_BLOCK,
) -> np.ndarray:
    """``(status[rows_a] & status[rows_b]).sum(axis=1)``, exactly.

    The one pair-count primitive of Algorithm 2: how many intervals
    each pair of paths was congestion-free together. The boolean
    ``(n, T)`` matrix is packed into 64-interval words
    (:func:`_interval_words`), and each block of pairs is counted by
    :func:`_joint_counts`. Blocking over pairs keeps the temporaries
    bounded at millions of sharing pairs.
    """
    words = _interval_words(status)
    num_pairs = int(rows_a.size)
    out = np.zeros(num_pairs, dtype=np.int64)
    for lo in range(0, num_pairs, block_pairs):
        hi = lo + block_pairs
        _joint_counts(words, rows_a[lo:hi], rows_b[lo:hi], out[lo:hi])
    return out


def _interval_words(status: np.ndarray) -> np.ndarray:
    """A boolean ``(n, T)`` matrix packed into 64-interval words,
    stored column-major: one contiguous ``(n,)`` uint64 array per
    word."""
    num_rows, total = status.shape
    num_words = (total + 63) >> 6
    packed = np.zeros((num_rows, num_words * 8), dtype=np.uint8)
    packed[:, : (total + 7) >> 3] = np.packbits(status, axis=1)
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _joint_counts(
    words: np.ndarray,
    rows_a: np.ndarray,
    rows_b: np.ndarray,
    acc: np.ndarray,
) -> None:
    """Add the joint counts of one block of pairs over
    :func:`_interval_words` into the int64 ``acc``: two ``take``
    gathers, an AND and a popcount per word."""
    for col in words:
        acc += _popcount(col.take(rows_a) & col.take(rows_b))


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


def _family_index_arrays(
    family: PathSetFamily, index: Dict[str, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[Tuple[int, PathSet]]]:
    """Split a family into index arrays by pathset size.

    Returns ``(single_pos, single_row, pair_pos, pair_rows, larger)``
    where ``*_pos`` index into the family and ``larger`` holds the
    (rare) pathsets of size ≥ 3, evaluated per set.
    """
    single_pos: List[int] = []
    single_row: List[int] = []
    pair_pos: List[int] = []
    pair_a: List[int] = []
    pair_b: List[int] = []
    larger: List[Tuple[int, PathSet]] = []
    for f, ps in enumerate(family):
        size = len(ps)
        if size == 1:
            (pid,) = ps
            single_pos.append(f)
            single_row.append(index[pid])
        elif size == 2:
            pid_a, pid_b = ps
            pair_pos.append(f)
            pair_a.append(index[pid_a])
            pair_b.append(index[pid_b])
        else:
            larger.append((f, ps))
    return (
        np.array(single_pos, dtype=np.intp),
        np.array(single_row, dtype=np.intp),
        np.array(pair_pos, dtype=np.intp),
        np.stack(
            [
                np.array(pair_a, dtype=np.intp),
                np.array(pair_b, dtype=np.intp),
            ]
        ),
        larger,
    )


def _family_values(
    status_valid: np.ndarray,
    family: PathSetFamily,
    index: Dict[str, int],
    eps: float,
) -> np.ndarray:
    """Performance numbers for one family from its status matrix.

    ``status_valid`` is the boolean congestion-free matrix restricted
    to valid intervals (family paths × valid intervals). Singleton
    probabilities are row means, pair probabilities are means of
    elementwise row ANDs — no per-pathset Python loop.
    """
    p_free = np.empty(len(family), dtype=float)
    single_pos, single_row, pair_pos, pair_rows, larger = (
        _family_index_arrays(family, index)
    )
    if single_pos.size:
        p_free[single_pos] = status_valid[single_row].mean(axis=1)
    if pair_pos.size:
        joint = status_valid[pair_rows[0]] & status_valid[pair_rows[1]]
        p_free[pair_pos] = joint.mean(axis=1)
    for f, ps in larger:
        rows = [index[pid] for pid in ps]
        p_free[f] = status_valid[rows].all(axis=0).mean()
    return -np.log(np.clip(p_free, eps, 1.0))


def pathset_performance_numbers(
    data: MeasurementData,
    family: PathSetFamily,
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
    min_probability: Optional[float] = None,
) -> Dict[PathSet, float]:
    """Algorithm 2: performance numbers for a family of pathsets.

    All paths appearing in the family are normalized *jointly* (one
    common subsampling), matching the paper's per-slice processing.

    Args:
        data: Raw measurement records.
        family: The pathsets to evaluate (singletons and pairs for
            System 4 families).
        loss_threshold: See :func:`congestion_free_matrix`.
        mode: ``"expected"`` or ``"sampled"``.
        rng: Generator for sampled mode.
        min_probability: Clamp for the congestion-free probability
            before taking logs; defaults to ``1/(2T)`` so that a
            pathset congested in *every* interval gets a large finite
            cost.

    Returns:
        ``{pathset: y}`` with ``y = −log P(pathset congestion-free)``.
    """
    paths: Tuple[str, ...] = tuple(
        sorted({pid for ps in family for pid in ps})
    )
    if not paths:
        return {}
    status, valid = congestion_free_matrix(
        data, paths, loss_threshold, mode, rng
    )
    index = {pid: i for i, pid in enumerate(paths)}
    total_valid = int(valid.sum())
    if total_valid == 0:
        raise MeasurementError(
            "no interval has traffic on every involved path; cannot "
            "normalize (paths: %s)" % (paths,)
        )
    eps = (
        min_probability
        if min_probability is not None
        else 1.0 / (2.0 * total_valid)
    )
    values = _family_values(
        status[:, valid].astype(bool), family, index, eps
    )
    return {ps: float(values[f]) for f, ps in enumerate(family)}


def slice_observations(
    data: MeasurementData,
    families: Iterable[PathSetFamily],
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Dict[PathSet, float]:
    """Per-slice normalization over many System 4 families.

    The paper normalizes *per slice* — each System 4's vector ``y`` is
    computed with that slice's own equal-rate aggregates. When the
    same pathset appears in several slices, the value from the larger
    normalization group wins deterministically (groups sorted by path
    tuple); values differ only marginally and only through the shared
    minimum rate.

    Returns:
        A merged ``{pathset: y}`` mapping covering every family.
    """
    merged: Dict[PathSet, float] = {}
    for fam in sorted(
        families, key=lambda f: tuple(sorted(tuple(sorted(ps)) for ps in f))
    ):
        if not fam:
            continue
        values = pathset_performance_numbers(
            data, fam, loss_threshold, mode, rng
        )
        merged.update(values)
    return merged


def joint_slice_observations(
    data: MeasurementData,
    families: Sequence[PathSetFamily],
    loss_threshold: float = DEFAULT_LOSS_THRESHOLD,
    mode: str = "expected",
    rng: Optional[np.random.Generator] = None,
) -> Dict[PathSet, float]:
    """Per-slice normalization with one joint status matrix.

    The batched form of :func:`slice_observations`, and the fallback
    of :func:`batch_slice_observations` (which the experiment runner
    calls): families are merged *in the given order*
    (σ-sorted system order — later families win shared pathsets,
    matching the historical per-slice loop), and in expected mode the
    congestion status of every path is computed once for the whole
    experiment instead of once per family. This is valid because the
    expected-mode indicator is ``L/M < threshold`` — independent of
    the family's minimum rate (see :func:`congestion_free_matrix`);
    only the set of *valid* intervals, the clamp ``1/(2T_valid)``,
    and sampled-mode draws are family-dependent.

    When every path has traffic in every interval (the common case
    for emulated and synthetic records), all families see the same
    valid set and the merge collapses further: every pathset is
    evaluated exactly once from the joint matrix — singletons as
    status rows, pairs as elementwise row ANDs.
    """
    _check_args(loss_threshold, mode, rng)
    families = [fam for fam in families if fam]
    if not families:
        return {}
    if mode == "sampled":
        # Sampled draws are family-coupled (the minimum rate enters
        # the hypergeometric); keep the per-family path, which draws
        # each family's counts in one array call.
        merged: Dict[PathSet, float] = {}
        for fam in families:
            merged.update(
                pathset_performance_numbers(
                    data, fam, loss_threshold, mode, rng
                )
            )
        return merged

    sent = data.sent_matrix
    lost = data.lost_matrix
    has_traffic = sent > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(has_traffic, lost / sent, 0.0)
    status = (frac < loss_threshold) & has_traffic

    if bool(has_traffic.all()):
        # Fast path: every interval is valid for every family, so a
        # pathset's value is family-independent — evaluate each
        # pathset once, straight off the joint matrix.
        total_valid = status.shape[1]
        eps = 1.0 / (2.0 * total_valid)
        index = {pid: i for i, pid in enumerate(data.path_ids)}
        seen: Set[PathSet] = set()
        flat: List[PathSet] = []
        for fam in families:
            for ps in fam:
                if ps not in seen:
                    seen.add(ps)
                    flat.append(ps)
        values = _family_values(status, tuple(flat), index, eps)
        return {ps: float(values[f]) for f, ps in enumerate(flat)}

    merged = {}
    for fam in families:
        paths = tuple(sorted({pid for ps in fam for pid in ps}))
        rows = data.rows_of(paths)
        valid = has_traffic[rows].all(axis=0)
        total_valid = int(valid.sum())
        if total_valid == 0:
            raise MeasurementError(
                "no interval has traffic on every involved path; cannot "
                "normalize (paths: %s)" % (paths,)
            )
        eps = 1.0 / (2.0 * total_valid)
        index = {pid: i for i, pid in enumerate(paths)}
        values = _family_values(status[rows][:, valid], fam, index, eps)
        merged.update(
            {ps: float(values[f]) for f, ps in enumerate(fam)}
        )
    return merged


class PathsetObservations(Mapping[PathSet, float]):
    """Read-only ``{pathset: y}`` view over Algorithm 2's cost arrays.

    What :func:`batch_slice_observations` returns on its fast path: a
    mapping backed by the arrays the pipeline computes anyway, so a
    verdict never builds one frozenset per pathset (~905k of them at
    5356 paths) unless a caller reads them.

    * Singletons are the ``used`` rows, valued by ``y_single`` (NaN on
      every other row); lookups go through ``index.path_pos``.
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
        self,
        index: PathIndex,
        used: np.ndarray,
        y_single: np.ndarray,
        pair_a: np.ndarray,
        pair_b: np.ndarray,
        y_pair_flat: np.ndarray,
    ) -> None:
        self.index = index
        self.used = used
        self.y_single = y_single
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

    def pair_values(
        self, pair_a: np.ndarray, pair_b: np.ndarray
    ) -> np.ndarray:
        """Pair values gathered at rows ``(pair_a, pair_b)`` (NaN where
        unmeasured) — the stored array itself for the same pairs."""
        if pair_a is self.pair_a and pair_b is self.pair_b:
            return self.y_pair_flat
        return gather_sorted(
            *self._sorted_pairs(),
            pair_keys(pair_a, pair_b, self.index.num_paths),
        )

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

    The runner's route: when expected-mode normalization applies and
    every path has traffic in every interval, all singleton costs
    come from one joint status matrix (row counts) and all pair
    costs from :func:`pair_joint_counts` over the batch's flat pair
    index arrays — no per-family or per-pathset Python work, and the
    returned mapping is a :class:`PathsetObservations` view over those
    arrays. Otherwise it defers to :func:`joint_slice_observations`
    (identical values, family by family) and gathers the arrays from
    its dict.

    Args:
        materialize: When False *and* the fast path applies, the
            mapping is returned empty; the non-fast fallback always
            returns its dict.

    Returns:
        ``(observations, y_single, y_pair_flat)`` — the pathset→cost
        mapping plus the same values in gatherable array form:
        ``y_single`` indexed by path row (NaN for unmeasured paths),
        ``y_pair_flat`` aligned with ``batch.pair_a``/``pair_b``.
        Feed the arrays to
        :func:`repro.core.slices.batch_unsolvability_arrays`.
    """
    _check_args(loss_threshold, mode, rng)
    index = batch.index
    num_paths = index.num_paths

    if batch.num_systems == 0:
        return {}, np.full(num_paths, np.nan), np.zeros(0, dtype=float)

    fast = mode == "expected" and data.all_sent_positive
    if not fast:
        observations = joint_slice_observations(
            data,
            list(batch.families()),
            loss_threshold=loss_threshold,
            mode=mode,
            rng=rng,
        )
        return (observations,) + _observation_arrays(batch, observations)

    sent = data.sent_matrix
    lost = data.lost_matrix
    status = (lost / sent) < loss_threshold
    table = cost_table(status.shape[1])

    used = sorted_unique(batch.member_rows)
    path_ids = index.path_ids
    data_rows = data.rows_of(path_ids[r] for r in used)
    # Indexed by path row (all-False for paths in no system), so the
    # batch's pair rows gather it directly, with no per-pair remap.
    joint = np.zeros((num_paths, status.shape[1]), dtype=bool)
    joint[used] = status[data_rows]
    y_single = np.full(num_paths, np.nan)
    y_single[used] = table[joint[used].sum(axis=1)]
    # Costs block by block: no (n_pairs,) count array next to them.
    words = _interval_words(joint)
    y_pair_flat = np.empty(batch.num_pairs)
    for lo in range(0, batch.num_pairs, PAIR_BLOCK):
        hi = min(lo + PAIR_BLOCK, batch.num_pairs)
        counts = np.zeros(hi - lo, dtype=np.int64)
        _joint_counts(words, batch.pair_a[lo:hi], batch.pair_b[lo:hi], counts)
        y_pair_flat[lo:hi] = table[counts]

    if not materialize:
        return {}, y_single, y_pair_flat
    # Each sharing pair belongs to exactly one σ group, so the flat
    # pair arrays enumerate every pair pathset once.
    observations = PathsetObservations(
        index, used, y_single, batch.pair_a, batch.pair_b, y_pair_flat
    )
    return observations, y_single, y_pair_flat


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
