"""Shared configuration for the inference golden equivalence suite.

The golden file (``golden/inference_goldens.json``) holds Algorithm
1/2 outputs — identified / neutral / skipped sequence sets,
unsolvability scores, and normalized observations — captured from the
*pre-vectorization* inference pipeline (the seed implementation, now
frozen as ``tests/oracles/algorithm_reference.py``) on a locked set of
seed topologies: the paper figures, star/chain/tree/mesh generator
draws, and the multi-ISP measured subnetwork, in exact and scored
modes (plus one sampled-normalization case).

The equivalence test re-runs the same cases on the vectorized
pipeline and compares: the identified/neutral/skipped *sets* must be
identical, scores and observations equal within fp tolerance.

Regenerate (only if the *reference* semantics legitimately change)
with::

    PYTHONPATH=src:tests/core python tests/core/inference_golden_config.py
"""

import json
import os

import numpy as np

from repro.core.classes import classes_from_mapping
from repro.core.performance import performance_with_violations
from repro.measurement.synthetic import synthesize_records
from repro.topology.generators import (
    chain_network,
    random_mesh_network,
    random_tree_network,
    random_two_class_performance,
    star_network,
)
from repro.topology.figures import ALL_FIGURES
from repro.topology.multi_isp import (
    POLICED_LINKS,
    build_federated_multi_isp,
    build_multi_isp,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "inference_goldens.json"
)

#: Normalization rng seed for scored/sampled cases (fresh per case).
NORM_SEED = 123

#: Per-case interval-count overrides (default 1200). The ≥1k-path
#: federated case uses fewer intervals to keep the suite fast.
CASE_INTERVALS = {"fed5x10": 400}

#: Cases whose scored golden entry omits the per-pathset observation
#: dump (≈10⁵ pathsets — the dense/sparse differential tests cover
#: the observation layer instead).
SKIP_OBSERVATION_GOLDENS = frozenset({"fed5x10"})

#: Cases excluded from the frozen-reference side-by-side runs (the
#: reference implementation is intentionally O(P²) Python and would
#: dominate the suite at ≥1k paths).
REFERENCE_EXEMPT = frozenset({"fed5x10"})

#: The federated multi-ISP cases (PR 6): two small exhaustively
#: checked topologies plus one ≥1k-path generated one.
FEDERATED_CASE_NAMES = ("fed2x3", "fed3x4", "fed5x10")


def _multi_isp_case():
    """The measured (dark+light) multi-ISP subnetwork + ground truth."""
    topo = build_multi_isp()
    measured = topo.dark_paths + topo.light_paths
    net = topo.network.restricted_to_paths(measured)
    mapping = {pid: "c1" for pid in topo.dark_paths}
    mapping.update({pid: "c2" for pid in topo.light_paths})
    classes = classes_from_mapping(net, mapping)
    perf = performance_with_violations(
        net,
        classes,
        {lid: 0.008 for lid in net.link_ids},
        {
            lid: {"c1": 0.02, "c2": 0.35}
            for lid in POLICED_LINKS
            if lid in net.links
        },
    )
    return net, perf


def build_cases():
    """The locked case list: ``{name: (net, perf, min_pathsets, mode)}``.

    Construction is fully deterministic (fixed seeds) so capture and
    test see byte-identical inputs.
    """
    cases = {}
    for name, mp in (
        ("figure1", 3),
        ("figure2", 3),
        ("figure4", 5),
        ("figure5", 5),
        ("figure6", 5),
    ):
        fig = ALL_FIGURES[name]()
        cases[name] = (fig.network, fig.performance, mp, "expected")

    net = star_network(12)
    perf, _ = random_two_class_performance(
        np.random.default_rng(11), net, num_violations=1
    )
    cases["star12"] = (net, perf, 5, "expected")

    net = chain_network(4, 8)
    perf, _ = random_two_class_performance(
        np.random.default_rng(12), net, num_violations=2
    )
    cases["chain4x8"] = (net, perf, 5, "expected")

    net = random_tree_network(np.random.default_rng(13), num_leaves=8)
    perf, _ = random_two_class_performance(
        np.random.default_rng(14), net, num_violations=2
    )
    cases["tree8"] = (net, perf, 5, "expected")

    net = random_mesh_network(np.random.default_rng(15), 6, 2)
    perf, _ = random_two_class_performance(
        np.random.default_rng(16), net, num_violations=2
    )
    cases["mesh6"] = (net, perf, 5, "expected")

    cases["multi_isp"] = _multi_isp_case() + (5, "expected")

    net = star_network(10)
    perf, _ = random_two_class_performance(
        np.random.default_rng(17), net, num_violations=1
    )
    cases["star10_sampled"] = (net, perf, 5, "sampled")

    for name, (num_isps, hosts, seed, violations) in {
        "fed2x3": (2, 3, 21, 2),
        "fed3x4": (3, 4, 22, 3),
        "fed5x10": (5, 10, 23, 3),
    }.items():
        fed = build_federated_multi_isp(num_isps, hosts)
        perf, _ = random_two_class_performance(
            np.random.default_rng(seed), fed.network, num_violations=violations
        )
        cases[name] = (fed.network, perf, 5, "expected")
    return cases


def case_records(name, net, perf, num_intervals=None):
    """Deterministic synthetic records for one case."""
    if num_intervals is None:
        num_intervals = CASE_INTERVALS.get(name, 1200)
    seed = sum(ord(c) for c in name)
    return synthesize_records(
        perf,
        np.random.default_rng(seed),
        num_intervals=num_intervals,
    )


def sigma_key(sigma):
    return ",".join(sigma)


def pathset_key(ps):
    return "|".join(sorted(ps))


def result_to_dict(result):
    return {
        "identified": sorted(sigma_key(s) for s in result.identified),
        "identified_raw": sorted(
            sigma_key(s) for s in result.identified_raw
        ),
        "neutral": sorted(sigma_key(s) for s in result.neutral),
        "skipped": sorted(sigma_key(s) for s in result.skipped),
        "scores": {
            sigma_key(s): float(v) for s, v in sorted(result.scores.items())
        },
    }


def capture_entry(name, net, perf, mp, mode):
    """One golden entry from the current implementation."""
    from repro.core.algorithm import (
        identify_non_neutral,
        identify_non_neutral_exact,
    )
    from repro.core.slices import build_slice_system, shared_sequences
    from repro.measurement.normalize import pathset_performance_numbers

    entry = {"min_pathsets": mp, "mode": mode}
    entry["exact"] = result_to_dict(
        identify_non_neutral_exact(perf, min_pathsets=mp)
    )
    data = case_records(name, net, perf)
    rng = np.random.default_rng(NORM_SEED)
    observations = {}
    for sigma, pairs in sorted(shared_sequences(net).items()):
        system = build_slice_system(net, sigma, pairs)
        if system is None or system.num_pathsets < mp:
            continue
        observations.update(
            pathset_performance_numbers(
                data, system.family, mode=mode, rng=rng
            )
        )
    algorithm = identify_non_neutral(net, observations, min_pathsets=mp)
    scored = result_to_dict(algorithm)
    if name not in SKIP_OBSERVATION_GOLDENS:
        scored["observations"] = {
            pathset_key(ps): float(v)
            for ps, v in sorted(
                observations.items(), key=lambda kv: pathset_key(kv[0])
            )
        }
    entry["scored"] = scored
    return entry


def capture(only=None):
    """Capture goldens from the current implementation.

    With ``only`` (a list of case names), existing entries are
    preserved verbatim and just the named cases are (re)computed and
    merged in — the mode used to add the federated multi-ISP cases
    *before* the sparse rewrite, per the PR-6 differential-test
    protocol. Without ``only``, everything is regenerated (run only
    if the *reference* semantics legitimately change).
    """
    goldens = {}
    if only is not None and os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            goldens = json.load(fh)
    for name, (net, perf, mp, mode) in build_cases().items():
        if only is not None and name not in only:
            continue
        goldens[name] = capture_entry(name, net, perf, mp, mode)
        print(f"captured {name}")
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
    print(
        f"captured {len(goldens)} cases -> {GOLDEN_PATH} "
        f"({os.path.getsize(GOLDEN_PATH)} bytes)"
    )


if __name__ == "__main__":
    import sys

    capture(only=sys.argv[1:] or None)
