"""Topologies: the paper's figure networks, evaluation topologies A
and B, and random generators."""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "dumbbell": (
        "CLASS1_PATHS",
        "CLASS2_PATHS",
        "SHARED_LINK",
        "DumbbellTopology",
        "build_dumbbell",
    ),
    "multi_isp": (
        "NEUTRAL_BUSY_LINK",
        "POLICED_LINKS",
        "MultiIspTopology",
        "build_multi_isp",
    ),
    "generators": (
        "chain_network",
        "random_mesh_network",
        "random_tree_network",
        "random_two_class_performance",
        "star_network",
    ),
    "figures": (
        "ALL_FIGURES",
        "FigureNetwork",
        "figure1",
        "figure2",
        "figure4",
        "figure5",
        "figure6",
    ),
})
