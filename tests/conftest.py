"""Suite-wide fixtures."""

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def _telemetry_disabled(monkeypatch):
    """Pin telemetry off (and its registry clean) for every test.

    The tier-1 contracts are asserted on the no-op fast path — the
    state the suite inherits on a developer machine regardless of any
    ambient ``REPRO_TELEMETRY``. Tests that exercise telemetry opt in
    via ``telemetry.configure`` and are restored here afterwards.
    """
    monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
    telemetry.configure(enabled=False)
    telemetry.reset_registry()
    try:
        yield
    finally:
        telemetry.configure(enabled=False)
        telemetry.reset_registry()
