"""Classical tomography baselines (the approach the paper inverts)."""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "boolean": (
        "BooleanTomographyResult",
        "boolean_tomography",
        "path_states",
        "smallest_explanation",
    ),
    "lsq": ("LsqTomographyResult", "lsq_tomography"),
})
