"""Analysis utilities: boxplot summaries and report tables."""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "stats": (
        "BoxplotSummary",
        "boxplot_summary",
        "format_table",
        "series_summary",
    ),
})
