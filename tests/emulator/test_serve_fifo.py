"""Scalar oracles for the packet engine's closed-form queue scans.

:func:`repro.emulator.core.greedy_admission` and
:func:`repro.emulator.core._serve_fifo` replace per-packet loops with
``minimum.accumulate`` / ``maximum.accumulate`` closed forms. The two
loops below are the rules those closed forms implement, written one
packet at a time and frozen here as references:

* greedy admission — packet ``i`` is admitted iff the count admitted
  before it is strictly below ``caps[i]``;
* droptail FIFO — the same admission against the per-packet capacity
  curve, then the Lindley recurrence
  ``dep_k = max(arr_k, dep_{k-1}) + 1/rate``.

Admission is integer arithmetic, so masks must match exactly. The
Lindley recurrence adds in a different order than the closed-form
unroll, so departure times are compared at fp tolerance.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.emulator.core import _serve_fifo, greedy_admission

_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _serve_fifo_oracle(arr, rate, busy_until, capacity, admit, dep):
    """Droptail admission + Lindley serialization of one batch.

    Writes ``admit`` for all ``n`` packets and the first ``m``
    entries of ``dep``; returns ``(m, all_admitted, new_busy)``.
    """
    n = arr.shape[0]
    service = 1.0 / rate
    if busy_until <= arr[0] and n <= capacity:
        # No standing backlog and the whole batch fits: no drops.
        prev = busy_until
        for i in range(n):
            admit[i] = True
            t = arr[i]
            if t < prev:
                t = prev
            t += service
            dep[i] = t
            prev = t
        return n, True, prev
    m = 0
    admitted = 0
    all_admitted = True
    prev = busy_until
    for i in range(n):
        backlog = (busy_until - arr[i]) * rate
        if backlog < 0.0:
            backlog = 0.0
        backlog = math.ceil(backlog)
        served_new = (arr[i] - busy_until) * rate
        if served_new < 0.0:
            served_new = 0.0
        served_new = math.floor(served_new)
        if served_new > i:
            served_new = float(i)
        cap = capacity - backlog + served_new
        if cap < 0.0:
            cap = 0.0
        if admitted < int(cap):
            admit[i] = True
            admitted += 1
            t = arr[i]
            if t < prev:
                t = prev
            t += service
            dep[m] = t
            prev = t
            m += 1
        else:
            admit[i] = False
            all_admitted = False
    new_busy = prev if m > 0 else busy_until
    return m, all_admitted, new_busy


def _greedy_admission_oracle(caps, admit):
    """Greedy admission as a loop. Returns whether everything was
    admitted."""
    n = caps.shape[0]
    admitted = 0
    all_admitted = True
    for i in range(n):
        if admitted < caps[i]:
            admit[i] = True
            admitted += 1
        else:
            admit[i] = False
            all_admitted = False
    return all_admitted


@_SETTINGS
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(0, 200),
    slope=st.floats(0.0, 3.0),
)
def test_greedy_admission_matches_oracle(seed, n, slope):
    """The closed-form ``cummin`` route is integer-exact: identical
    masks to the counting loop for any nondecreasing capacity
    sequence."""
    rng = np.random.default_rng(seed)
    caps = np.floor(
        np.cumsum(rng.uniform(0.0, slope, n))
    ).astype(np.int64)
    expected = np.empty(n, dtype=bool)
    _greedy_admission_oracle(caps, expected)
    np.testing.assert_array_equal(greedy_admission(caps), expected)


@_SETTINGS
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 150),
    rate=st.floats(10.0, 5000.0),
    capacity=st.integers(1, 80),
    busy_ahead=st.booleans(),
)
def test_serve_fifo_matches_oracle(seed, n, rate, capacity, busy_ahead):
    """Closed-form scan vs the Lindley recurrence: admission masks
    exact, departure times and the new busy horizon at fp
    tolerance."""
    rng = np.random.default_rng(seed)
    arr = np.sort(rng.uniform(0.0, 0.05, n))
    busy = float(arr[0] + (0.01 if busy_ahead else -0.01))
    admit, dep, new_busy = _serve_fifo(arr, rate, busy, capacity)

    o_mask = np.empty(n, dtype=bool)
    o_dep = np.empty(n)
    m, _, o_busy = _serve_fifo_oracle(
        arr, float(rate), busy, float(capacity), o_mask, o_dep
    )
    mask = np.ones(n, dtype=bool) if admit is None else admit
    np.testing.assert_array_equal(mask, o_mask)
    np.testing.assert_allclose(dep, o_dep[:m], rtol=1e-9, atol=1e-12)
    assert np.isclose(new_busy, o_busy, rtol=1e-9, atol=1e-12)
    assert np.all(np.diff(dep) >= -1e-12)
    assert dep.shape[0] == int(np.count_nonzero(mask))
