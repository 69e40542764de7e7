"""The per-link spec, as the substrate layer exports it.

:class:`LinkSpec` lives in :mod:`repro.fluid.params`, a leaf module
both engines import; it is re-exported here with
:func:`normalize_specs` (the mapping type check) and
:data:`DEFAULT_DELAY_SECONDS`. Every engine, session and substrate
accepts ``LinkSpec`` mappings directly: the fluid engine reads them
as they are and the packet engine converts each link to packet units
itself. All errors are :class:`~repro.exceptions.ConfigurationError`.
"""

from repro.fluid.params import (
    DEFAULT_DELAY_SECONDS,
    LinkSpec,
    normalize_specs,
)

__all__ = [
    "DEFAULT_DELAY_SECONDS",
    "LinkSpec",
    "normalize_specs",
]
