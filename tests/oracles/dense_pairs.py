"""Dense oracle for the pair pass and the slice-batch layout.

The pair pass of Algorithm 1 (lines 2–8) done the obvious way: every
``triu`` pair of the registry, its full boolean shared-link row, and
one ``np.unique`` over those rows. The layout oracle then takes each
σ group's member paths with its own ``np.unique``. The shipped
blocked passes in :mod:`repro.core.slices` must produce the same
arrays, dtype and all. Memory is ``O(P² · |L|)``: small networks only.
"""

import numpy as np

from repro.core.slices import _PairGroups


def dense_pair_groups(net) -> _PairGroups:
    """The σ-sorted :class:`_PairGroups` of ``net``, from the dense
    ``P²`` pass."""
    index = net.path_index
    ia, ib = np.triu_indices(index.num_paths, k=1)
    shared = index.incidence[ia] & index.incidence[ib]
    nonempty = shared.any(axis=1)
    ia, ib, shared = ia[nonempty], ib[nonempty], shared[nonempty]
    masks, inverse = np.unique(shared, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sigmas = [index.linkseq_from_mask(mask) for mask in masks]
    sigma_order = sorted(range(len(sigmas)), key=sigmas.__getitem__)
    rank = np.empty(len(sigmas), dtype=np.intp)
    rank[sigma_order] = np.arange(len(sigmas))
    # triu order is row-major, so a stable sort on σ rank keeps it
    # within each group.
    by_group = np.argsort(rank[inverse], kind="stable")
    counts = np.bincount(rank[inverse], minlength=len(sigmas))
    sorted_sigmas = tuple(sigmas[g] for g in sigma_order)
    return _PairGroups(
        index=index,
        sigmas=sorted_sigmas,
        sigma_masks=masks[sigma_order],
        pair_a=ia[by_group].astype(np.intp),
        pair_b=ib[by_group].astype(np.intp),
        offsets=np.concatenate(
            [np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp)]
        ),
        group_of={s: g for g, s in enumerate(sorted_sigmas)},
    )


def dense_slice_layout(groups: _PairGroups, min_pathsets: int) -> dict:
    """The flat arrays :func:`build_slice_batch` must produce from
    ``groups``, one σ group at a time.

    Returns:
        ``{field: array}`` for the batch's ``pair_a``, ``pair_b``,
        ``offsets``, ``la``, ``lb``, ``member_rows``,
        ``member_offsets``, ``member_a``, ``member_b`` and
        ``sigma_masks``, plus ``sigmas`` and ``skipped`` tuples.
    """
    out = {name: [] for name in ("pair_a", "pair_b", "la", "lb", "member_rows")}
    pair_counts, member_counts, kept, skipped = [], [], [], []
    for g, sigma in enumerate(groups.sigmas):
        pa, pb = groups.group(g)
        members = np.unique(np.concatenate((pa, pb)))
        if members.size + pa.size < min_pathsets:
            skipped.append(sigma)
            continue
        kept.append(g)
        out["pair_a"].append(pa)
        out["pair_b"].append(pb)
        out["la"].append(np.searchsorted(members, pa))
        out["lb"].append(np.searchsorted(members, pb))
        out["member_rows"].append(members)
        pair_counts.append(pa.size)
        member_counts.append(members.size)
    layout = {
        name: np.concatenate(parts).astype(np.intp)
        if parts
        else np.zeros(0, dtype=np.intp)
        for name, parts in out.items()
    }
    for name, counts in (
        ("offsets", pair_counts),
        ("member_offsets", member_counts),
    ):
        layout[name] = np.concatenate(
            [np.zeros(1, dtype=np.intp), np.cumsum(counts, dtype=np.intp)]
        )
    base = np.repeat(layout["member_offsets"][:-1], pair_counts)
    layout["member_a"] = base + layout["la"]
    layout["member_b"] = base + layout["lb"]
    layout["sigma_masks"] = groups.sigma_masks[kept]
    layout["sigmas"] = tuple(groups.sigmas[g] for g in kept)
    layout["skipped"] = tuple(skipped)
    return layout
