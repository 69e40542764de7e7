"""Performance classes (paper Section 2.3).

A *performance class* is a set of paths that the network treats "the
same". The family of all classes ``C`` partitions the path set ``P``:
every path belongs to exactly one class. A flow type (e.g. "traffic
from content provider X", "BitTorrent traffic") is modeled as the set
of paths that carry it, which is exactly a performance class.

When ``|C| == 1`` every link is trivially neutral (there is only one
class to treat differently).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.core.network import Network
from repro.exceptions import ClassAssignmentError


@dataclass(frozen=True)
class PerformanceClass:
    """One performance class ``c_n``: a named set of paths."""

    name: str
    paths: FrozenSet[str]

    def __contains__(self, path_id: str) -> bool:
        return path_id in self.paths

    def __len__(self) -> int:
        return len(self.paths)


class ClassAssignment:
    """The ordered family ``C`` of performance classes for a network.

    Args:
        classes: The classes, in the paper's arbitrary-but-fixed order
            ``c_1 .. c_|C|``.
        net: Optional network to validate against: classes must
            partition ``P`` exactly.

    Raises:
        ClassAssignmentError: If classes overlap, are empty, or do not
            cover the network's paths.
    """

    def __init__(
        self,
        classes: Sequence[PerformanceClass],
        net: Network = None,
    ) -> None:
        if not classes:
            raise ClassAssignmentError("at least one class is required")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ClassAssignmentError(f"duplicate class names: {names}")
        seen: Dict[str, str] = {}
        for cls in classes:
            if not cls.paths:
                raise ClassAssignmentError(f"class {cls.name!r} is empty")
            for pid in cls.paths:
                if pid in seen:
                    raise ClassAssignmentError(
                        f"path {pid!r} is in classes {seen[pid]!r} and "
                        f"{cls.name!r}; classes must be disjoint"
                    )
                seen[pid] = cls.name
        if net is not None:
            missing = set(net.path_ids) - set(seen)
            if missing:
                raise ClassAssignmentError(
                    f"paths not covered by any class: {sorted(missing)}"
                )
            extra = set(seen) - set(net.path_ids)
            if extra:
                raise ClassAssignmentError(
                    f"classes mention unknown paths: {sorted(extra)}"
                )
        self._classes: Tuple[PerformanceClass, ...] = tuple(classes)
        self._class_of: Dict[str, str] = seen

    @property
    def classes(self) -> Tuple[PerformanceClass, ...]:
        return self._classes

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __iter__(self):
        return iter(self._classes)

    def by_name(self, name: str) -> PerformanceClass:
        for cls in self._classes:
            if cls.name == name:
                return cls
        raise ClassAssignmentError(f"no class named {name!r}")

    def class_of(self, path_id: str) -> str:
        """The name of the class containing ``path_id``."""
        try:
            return self._class_of[path_id]
        except KeyError:
            raise ClassAssignmentError(
                f"path {path_id!r} belongs to no class"
            ) from None


def two_classes(
    net: Network,
    class2_paths: Iterable[str],
    names: Tuple[str, str] = ("c1", "c2"),
) -> ClassAssignment:
    """A two-class assignment: ``class2_paths`` vs everything else.

    This mirrors the paper's evaluation setting, where the network
    either is neutral or distinguishes exactly two classes (class c2
    being the throttled one).
    """
    c2 = frozenset(class2_paths)
    c1 = frozenset(net.path_ids) - c2
    if not c1:
        raise ClassAssignmentError("class 1 would be empty")
    return ClassAssignment(
        [PerformanceClass(names[0], c1), PerformanceClass(names[1], c2)], net
    )


def classes_from_mapping(
    net: Network, mapping: Mapping[str, str]
) -> ClassAssignment:
    """Build an assignment from ``{path_id: class_name}``."""
    buckets: Dict[str, List[str]] = {}
    for pid, cname in mapping.items():
        buckets.setdefault(cname, []).append(pid)
    classes = [
        PerformanceClass(cname, frozenset(pids))
        for cname, pids in sorted(buckets.items())
    ]
    return ClassAssignment(classes, net)
