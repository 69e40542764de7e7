"""Conservation law of the fluid engine's burst-drop allocator.

:func:`repro.fluid.batch._allocate_bursts` spreads each path's burst
volume over its flows. Whatever order the Gumbel keys pick, a flow
never loses more than it sent, and a path loses exactly its burst,
capped at what the path sent — a property of any correct allocation,
not of a recorded run.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fluid.batch import _allocate_bursts


@st.composite
def burst_case(draw):
    """``B`` scenarios of ``P`` paths over disjoint flow slots: some
    slots sent nothing, some paths carry no burst, and bursts range
    from a sliver of the path's send to several times it."""
    num_scenarios = draw(st.integers(1, 3))
    num_paths = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    flat = num_scenarios * num_paths
    slot_counts = rng.integers(1, 6, size=flat)
    bounds = np.concatenate([[0], np.cumsum(slot_counts)])
    slots_of_path = [
        np.arange(bounds[fp], bounds[fp + 1]) for fp in range(flat)
    ]
    send = rng.exponential(10.0, size=bounds[-1])
    send[rng.random(send.size) < 0.3] = 0.0
    path_send = np.array([send[m].sum() for m in slots_of_path])
    path_burst = path_send * rng.choice(
        [0.0, 0.01, 0.5, 1.0, 3.0], size=flat
    )
    seeds = [int(s) for s in rng.integers(0, 2**31, size=num_scenarios)]
    return num_paths, slots_of_path, send, path_send, path_burst, seeds


@settings(max_examples=200, deadline=None)
@given(burst_case())
def test_bursts_are_conserved_and_bounded_by_send(case):
    num_paths, slots_of_path, send, path_send, path_burst, seeds = case
    slot_burst = np.zeros_like(send)
    _allocate_bursts(
        [np.random.default_rng(s) for s in seeds], num_paths,
        path_burst, path_send, slots_of_path, send, slot_burst,
    )
    assert (slot_burst >= 0.0).all()
    assert (slot_burst <= send).all()
    for fp, members in enumerate(slots_of_path):
        expected = min(path_burst[fp], path_send[fp])
        np.testing.assert_allclose(
            slot_burst[members].sum(), expected, rtol=1e-12, atol=1e-9
        )
