"""The §5 pruning over any list of link sequences.

:func:`~repro.core.algorithm.prune_identified` reads only a slice
batch's ``sigmas`` and ``sigma_incidence``, so a stand-in with those
two fields lets the pruning tests run on hand-written and random
sequence families that no network produces.
"""

from types import SimpleNamespace

import numpy as np

from repro.core.algorithm import prune_identified


def sequence_batch(examined):
    """A batch stand-in whose σ are ``examined`` (duplicates dropped),
    with their σ × link incidence and sizes."""
    sigmas = tuple(dict.fromkeys(examined))
    column = {}
    for sigma in sigmas:
        for lid in sigma:
            column.setdefault(lid, len(column))
    incidence = np.zeros((len(sigmas), len(column)), dtype=np.float32)
    for g, sigma in enumerate(sigmas):
        incidence[g, [column[lid] for lid in sigma]] = 1.0
    return SimpleNamespace(
        sigmas=sigmas, sigma_incidence=(incidence, incidence.sum(axis=1))
    )


def prune(identified, examined):
    """``prune_identified`` of ``identified`` ⊆ ``examined``, both
    given as sequences."""
    batch = sequence_batch(examined)
    row = {sigma: g for g, sigma in enumerate(batch.sigmas)}
    return prune_identified(batch, [row[sigma] for sigma in identified])
