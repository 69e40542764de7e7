"""Reproduction of *Network Neutrality Inference* (SIGCOMM 2014).

Zhang, Mara, Argyraki: detect and localize network-neutrality
violations from external observations by forming systems of equations
that a neutral network could always solve — and flagging the link
sequences whose systems cannot be solved.

Public API highlights:

* :mod:`repro.core` — the theory: networks, performance classes,
  equivalent neutral networks, observability (Theorem 1),
  identifiability (Lemmas 2–3), and Algorithm 1.
* :mod:`repro.measurement` — Algorithm 2 measurement processing and
  the two-cluster unsolvability decision.
* :mod:`repro.fluid` / :mod:`repro.emulator` — the emulation
  substrates (fluid TCP model and packet-level DES).
* :mod:`repro.topology`, :mod:`repro.workloads` — evaluation inputs.
* :mod:`repro.experiments` — end-to-end experiment runners that
  regenerate the paper's figures and tables.
* :mod:`repro.tomography` — classical tomography baselines.
"""

from repro._namespace import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core": (
        "AlgorithmResult",
        "ClassAssignment",
        "Network",
        "NetworkPerformance",
        "Path",
        "PerformanceClass",
        "build_equivalent",
        "build_slice_system",
        "check_observability",
        "evaluate",
        "identify_non_neutral",
        "identify_non_neutral_exact",
        "is_identifiable_exact",
        "network_from_path_specs",
        "neutral_performance",
        "performance_with_violations",
        "routing_matrix",
        "satisfies_lemma3",
        "two_classes",
    ),
    "exceptions": ("ReproError",),
})
__all__ += ["__version__"]
