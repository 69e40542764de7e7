"""Workload profiles: Table 1 parameter space and Table 3 host groups."""

from repro._namespace import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "profiles": (
        "TABLE1",
        "TABLE3",
        "HostGroupProfile",
        "ParameterTable",
        "class_workload",
        "group_workload",
        "slots_for_size",
    ),
})
