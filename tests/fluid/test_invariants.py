"""Physical laws of the fluid step program, checked between intervals.

A single dumbbell run carries all four mechanism families at once —
a policer, a class-targeted AQM, a dual shaper and weighted service —
and swaps them around mid-run. After every interval the step
program's :class:`~repro.fluid.batch.FluidState` must hold:

* every token bucket within ``[0, bucket depth]``;
* every common queue within ``[0, its buffer]`` and every virtual
  queue within ``[0, its own buffer]``;

and the run's result must obey each link's capacity law: what
arrived, minus what was dropped, minus the growth of the backlog, is
at most what the link can serve in an interval. None of these depend
on a recorded run.
"""

import numpy as np
import pytest

from repro.fluid import (
    AqmSpec,
    FluidNetwork,
    LinkSpec,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.fluid.batch import FluidState, run_steps
from repro.topology.dumbbell import build_dumbbell
from repro.workloads.profiles import class_workload

INTERVALS = 240
SWAP_AT = 120
#: The access links that carry a mechanism run at 20 Mbps, so their
#: mechanisms engage; l5 (100 Mbps) is shared by all four paths. Every
#: dual queue's buffer_seconds equals its link's, so a swap never
#: leaves a queue above its new buffer.
SLOW = 20.0


class _Probed(FluidNetwork):
    """A one-world fluid network whose step state the test can read."""

    def _interval_loop(self, session):
        self.state = FluidState([self], session)
        return run_steps(self.state, session)


def _specs(l1, l3, l4, l5):
    """Link specs with the given mechanisms on l1 (carries p1, class
    c1), l3 (p3, c2), l4 (p4, c2) and the shared l5."""
    return {
        "l1": LinkSpec(capacity_mbps=SLOW, **l1),
        "l3": LinkSpec(capacity_mbps=SLOW, **l3),
        "l4": LinkSpec(capacity_mbps=SLOW, **l4),
        "l5": LinkSpec(**l5),
    }


FIRST = _specs(
    l1={"shaper": ShaperSpec("c1", 0.5, buffer_seconds=0.2)},
    l3={"policer": PolicerSpec("c2", 0.5)},
    l4={"aqm": AqmSpec("c2")},
    l5={"weighted": WeightedShaperSpec("c2", 0.3, buffer_seconds=0.2)},
)
SWAPPED = _specs(
    l1={"weighted": WeightedShaperSpec("c1", 0.5, buffer_seconds=0.2)},
    l3={"aqm": AqmSpec("c2")},
    l4={"shaper": ShaperSpec("c2", 0.5, buffer_seconds=0.2)},
    l5={"policer": PolicerSpec("c2", 0.3)},
)


def _out_of_bounds(st):
    """Every token bucket and queue of ``st`` outside its range."""
    bad = [
        ("tokens", r, st.tokens[r], bucket)
        for r, _, bucket, _, _ in st.policers
        if not 0.0 <= st.tokens[r] <= bucket
    ]
    bad += [
        ("queue", r, q, buf)
        for r, (q, buf) in enumerate(zip(st.queue, st.buffers))
        if not 0.0 <= q <= buf
    ]
    for r, _, _, _, t_buf, o_buf, _, _ in st.duals:
        for name, q, buf in (
            ("target queue", st.shaper_tq[r], t_buf),
            ("other queue", st.shaper_oq[r], o_buf),
        ):
            if not 0.0 <= q <= buf:
                bad.append((name, r, q, buf))
    return bad


@pytest.fixture(scope="module")
def probed_run():
    topo = build_dumbbell()
    specs = dict(topo.link_specs)
    specs.update(FIRST)
    workloads = class_workload(
        topo.network.path_ids, mean_size_mb=10, flows_per_path=5,
        mean_gap_seconds=1.0,
    )
    sim = _Probed(topo.network, topo.classes, specs, workloads, seed=7)
    session = sim.session()
    engaged = {"policer": 0, "aqm": 0, "dual": 0}
    violations = []
    for i in range(INTERVALS):
        if i == SWAP_AT:
            swapped = dict(topo.link_specs)
            swapped.update(SWAPPED)
            session.set_link_specs(swapped)
        session.advance(1)
        st = sim.state
        violations += [(i, *v) for v in _out_of_bounds(st)]
        engaged["policer"] += any(
            st.tokens[r] < bucket for r, _, bucket, _, _ in st.policers
        )
        engaged["aqm"] += any(st.queue[r] > 0 for r, *_ in st.aqms)
        engaged["dual"] += any(st.shaper_tq[r] > 0 for r, *_ in st.duals)
    return topo, specs, swapped, session.result(), engaged, violations


def test_state_stays_within_its_bounds(probed_run):
    """Checked after every interval; each mechanism family must also
    have been exercised (a bucket below full, a queue above empty)."""
    *_, engaged, violations = probed_run
    assert not violations, violations[:5]
    assert all(engaged.values()), engaged


def test_links_serve_at_most_their_capacity(probed_run):
    topo, specs, swapped, res, *_ = probed_run
    dt = res.interval_seconds
    for lid in topo.network.link_ids:
        arrivals = sum(res.link_class_arrivals[lid].values())
        drops = sum(res.link_class_drops[lid].values())
        backlog = res.queue_occupancy[lid]
        growth = np.diff(backlog, prepend=0.0)
        served = arrivals - drops - growth
        capacity = np.where(
            np.arange(len(served)) < SWAP_AT,
            specs[lid].capacity_pps,
            swapped[lid].capacity_pps,
        )
        bound = capacity * dt * (1.0 + 1e-9) + 1e-6
        assert (served <= bound).all(), (
            lid, float((served - capacity * dt).max())
        )
