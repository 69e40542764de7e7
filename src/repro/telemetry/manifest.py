"""Run manifests: provenance attached to sweep/bench/monitor artifacts.

A :class:`RunManifest` pins down *what produced an artifact*: substrate
``name:version`` tags (the same tags ``repro info`` reports),
numpy/python versions, seed, spec digests, best-effort
``git describe``, and host.  Benches embed it in
``BENCH_*.json`` (via ``benchmarks/_emit.py``), CLI runs prepend it to
``trace.jsonl``, and ``repro trace`` prints it above the span tree.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple


def _git_describe() -> Optional[str]:
    """Best-effort ``git describe`` for the repo holding this source."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else None


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run; build with :meth:`collect`."""

    kind: str
    created: float
    run_id: Optional[str]
    host: str
    platform: str
    python: str
    numpy: str
    substrates: Tuple[Tuple[str, str], ...]
    seed: Optional[int]
    spec_digests: Tuple[str, ...]
    git: Optional[str]
    extra: Tuple[Tuple[str, Any], ...] = field(default=())

    @classmethod
    def collect(cls, kind: str, *, seed: Optional[int] = None,
                spec_digests: Sequence[str] = (),
                substrates: Optional[Sequence[str]] = None,
                run_id: Optional[str] = None,
                extra: Optional[Dict[str, Any]] = None) -> "RunManifest":
        # Lazy imports: the manifest reaches into the engine/substrate
        # layers, which must stay importable without telemetry.
        import numpy as np

        from repro.substrate.registry import (available_substrates,
                                              substrate_cache_tag)

        names = (tuple(substrates) if substrates is not None
                 else tuple(available_substrates()))
        tags = []
        for name in names:
            try:
                tags.append((name, substrate_cache_tag(name)))
            except Exception:
                tags.append((name, f"{name}:unknown"))
        if run_id is None:
            from repro.telemetry import trace as _trace
            tracer = _trace.get_tracer()
            run_id = tracer.run_id if tracer.enabled else None
        return cls(
            kind=kind,
            created=time.time(),
            run_id=run_id,
            host=socket.gethostname(),
            platform=platform.platform(),
            python=sys.version.split()[0],
            numpy=np.__version__,
            substrates=tuple(tags),
            seed=seed,
            spec_digests=tuple(spec_digests),
            git=_git_describe(),
            extra=tuple(sorted((extra or {}).items())),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "manifest": {
                "kind": self.kind,
                "created": self.created,
                "run_id": self.run_id,
                "host": self.host,
                "platform": self.platform,
                "python": self.python,
                "numpy": self.numpy,
                "substrates": {name: tag for name, tag in self.substrates},
                "seed": self.seed,
                "spec_digests": list(self.spec_digests),
                "git": self.git,
                "extra": dict(self.extra),
            }
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def write_manifest(manifest: RunManifest) -> None:
    """Append a manifest record to the active trace (if exporting)."""
    from repro.telemetry import trace as _trace

    _trace.get_tracer().write_record(manifest.as_dict())
