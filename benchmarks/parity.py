"""Bitwise parity digests of both emulation engines' outputs.

Runs a fixed list of fluid and packet emulations and prints one
SHA-256 digest per run, taken over every array the run produced: each
measured path's ``sent`` / ``lost`` counters, the per-link per-class
arrivals and drops, the queue-occupancy and per-path RTT traces, and
the completed-flow counts (or, for ``keep_ground_truth=False``
sessions on either engine and for ``batch-b3-chunks``' per-world
chunks across a swap, every emitted chunk). Two checkouts whose digests agree
produce bit-identical outputs on these runs, so a refactor of either
engine can be checked against its parent commit with::

    PYTHONPATH=src python benchmarks/parity.py --out new.json
    (cd ../parent && PYTHONPATH=src python benchmarks/parity.py \\
        --out old.json)
    PYTHONPATH=src python benchmarks/parity.py --compare old.json

The fluid runs drive ``FluidNetwork`` / ``FluidBatchNetwork`` with
the topology builders' specs; the packet runs (``packet-*``) go
through ``get_substrate("packet")`` with explicit ``LinkSpec``
values. Both routes exist unchanged on older commits, so the script
runs there too. The ``infer-*`` entries digest inference on the
records of two of those runs, in expected mode and in sampled mode
with a fixed seed: the ``batch_slice_observations`` pair costs, the
flat Equation-14 estimates ``batch_pair_estimates_arrays`` computes
from that call's own outputs, and the ``infer_from_measurements``
scores and identified set, so an Algorithm 1/2 refactor is checked
bit for bit as well (the singleton costs enter through the
estimates, whatever array carries them). ``fig10b-multi-isp-10s``
digests ``run_topology_b``'s per-σ estimates and identified flags
(Figure 10(b)) on a 10 s run. The
``monitor-*`` entries digest a ``NeutralityMonitor`` report on three
synthesized record streams with a planted onset: the per-window
scores, CUSUM flags, change points and identified sets, and the
full-stream final verdict. The ``monitor-cli-*`` entries digest the
stdout of two ``repro monitor`` runs (a dumbbell policing onset and a
neutral multi-ISP stream), which checks the command's whole route
from the scenario to the printed timeline. The ``slices-*`` entries
digest the cold ``build_slice_batch`` arrays (σ order, pairs, member
layout, σ masks and the skipped sequences) of four fresh networks:
the 8×13 federated topology, a 2000-spoke star, a 300-hop chain of
400 paths and a random mesh. The ``run-*`` entries digest whole experiment
runs through the family entry points — every emulation array, the
scores and the identified set of each point: Table 2 sets 4 and 6
through an inline ``SweepRunner`` (set 4's 10 Mb point and set 6 as
one scenario batch, the other set-4 points one by one), Table 2 sets
2–9 at short points through an inline ``SweepRunner`` (a parent
commit that batched fewer points runs the rest singly, so comparing
against it checks the batches against single runs), topology B
through ``run_topology_b_point`` and
``run_topology_b_rate_batch``. The ``decide-*`` entries digest Algorithm 1's
decide + prune tail (identified, unpruned, neutral and skipped
sequences, and the scores) on each route into it:
``identify_non_neutral`` and ``identify_non_neutral_exact`` on the
exact observations of the theory figures, and ``identify_from_scores``
with a cluster and a threshold decider on the scores of a synthesized
run. The whole list runs in well under a minute on one core.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import sys

import numpy as np

from repro import cli
from repro.core.algorithm import (
    DEFAULT_MIN_PATHSETS,
    identify_from_scores,
    identify_non_neutral,
    identify_non_neutral_exact,
    required_pathsets,
)
from repro.core.performance import LinkPerformance, NetworkPerformance
from repro.core.slices import (
    batch_pair_estimates_arrays,
    batch_unsolvability_arrays,
    build_slice_batch,
)
from repro.exceptions import MeasurementError
from repro.experiments.config import EmulationSettings
from repro.experiments.runner import (
    infer_from_measurements,
    measured_subnetwork,
)
from repro.experiments.sweep import SweepRunner
from repro.experiments.topology_a import sweep_points
from repro.experiments.topology_b import (
    TOPOLOGY_B_SETTINGS,
    run_topology_b,
    run_topology_b_point,
    run_topology_b_rate_batch,
    table3_workloads,
)
from repro.fluid import FluidBatchNetwork, FluidNetwork
from repro.fluid.params import (
    AqmSpec,
    FlowSlotSpec,
    PathWorkload,
    PolicerSpec,
    ShaperSpec,
    WeightedShaperSpec,
)
from repro.measurement.clustering import (
    make_cluster_decider,
    threshold_decider,
)
from repro.measurement.normalize import batch_slice_observations
from repro.measurement.records import MeasurementData, PathRecord
from repro.measurement.synthetic import synthesize_records
from repro.streaming.monitor import NeutralityMonitor
from repro.streaming.stream import ReplayStream
from repro.substrate.registry import get_substrate
from repro.substrate.spec import LinkSpec
from repro.topology.dumbbell import SHARED_LINK, build_dumbbell
from repro.topology.figures import ALL_FIGURES
from repro.topology.generators import (
    chain_network,
    random_mesh_network,
    random_two_class_performance,
    star_network,
)
from repro.topology.multi_isp import (
    build_federated_multi_isp,
    build_multi_isp,
)

SEED = 11
DURATION = 20.0


def _dumbbell_workloads(net):
    return {
        pid: PathWorkload(
            slots=(FlowSlotSpec(mean_size_mb=10.0, mean_gap_seconds=2.0),)
            * 4,
            rtt_seconds=0.05,
        )
        for pid in net.path_ids
    }


def _dumbbell(mechanism=None):
    topo = build_dumbbell(mechanism=mechanism, rate_fraction=0.3)
    return topo, _dumbbell_workloads(topo.network)


def _shared_link_specs(**mechanism):
    """Dumbbell link specs with one mechanism on the shared link."""
    specs = dict(build_dumbbell().link_specs)
    specs[SHARED_LINK] = dataclasses.replace(specs[SHARED_LINK], **mechanism)
    return specs


def _update(h, name, array):
    h.update(name.encode())
    h.update(str(array.dtype).encode())
    h.update(str(array.shape).encode())
    h.update(array.tobytes())


def result_digest(result):
    """SHA-256 over every array of one emulation result."""
    h = hashlib.sha256()
    for pid in sorted(result.measurements.path_ids):
        rec = result.measurements.record(pid)
        _update(h, f"sent/{pid}", rec.sent)
        _update(h, f"lost/{pid}", rec.lost)
    for field in ("link_class_arrivals", "link_class_drops"):
        per_link = getattr(result, field)
        for lid in sorted(per_link):
            for cn in sorted(per_link[lid]):
                _update(h, f"{field}/{lid}/{cn}", per_link[lid][cn])
    for lid in sorted(result.queue_occupancy):
        _update(h, f"queue/{lid}", result.queue_occupancy[lid])
    for pid in sorted(result.path_rtt_seconds):
        _update(h, f"rtt/{pid}", result.path_rtt_seconds[pid])
    h.update(json.dumps(result.flows_completed, sort_keys=True).encode())
    return h.hexdigest()


def chunks_digest(chunks):
    """SHA-256 over a sequence of emitted record chunks."""
    h = hashlib.sha256()
    for i, chunk in enumerate(chunks):
        h.update(repr((chunk.path_ids, chunk.start_interval)).encode())
        _update(h, f"sent/{i}", chunk.sent)
        _update(h, f"lost/{i}", chunk.lost)
    return h.hexdigest()


def _one_shot(mechanism, **run_kwargs):
    topo, wl = _dumbbell(mechanism)
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=SEED
    )
    return result_digest(sim.run(DURATION, **run_kwargs))


def infer_digest(net, data):
    """SHA-256 over inference on one run's records: the Algorithm 2
    pair costs, the Equation-14 estimates and the verdict, in both
    normalization modes (a ``MeasurementError`` is digested by its
    message)."""
    h = hashlib.sha256()
    batch, _ = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    for mode in ("expected", "sampled"):
        try:
            _, singles, y_pair = batch_slice_observations(
                data, batch, mode=mode, rng=np.random.default_rng(SEED)
            )
            _update(h, f"{mode}/y_pair", y_pair)
            _update(
                h,
                f"{mode}/estimates",
                batch_pair_estimates_arrays(batch, singles, y_pair),
            )
            _, algorithm = infer_from_measurements(
                net,
                data,
                settings=EmulationSettings(normalization_mode=mode),
                rng=np.random.default_rng(SEED),
            )
            h.update(repr(sorted(algorithm.scores.items())).encode())
            h.update(repr(algorithm.identified).encode())
        except MeasurementError as exc:
            h.update(f"{mode}/error/{exc}".encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _policing_run():
    """The ``dumbbell-policing`` run, shared with its ``infer-`` entry."""
    topo, wl = _dumbbell("policing")
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=SEED
    )
    return measured_subnetwork(topo.network, wl), sim.run(DURATION)


@functools.lru_cache(maxsize=None)
def _multi_isp_run():
    """The ``multi-isp-10s`` run, shared with its ``infer-`` entry."""
    topo = build_multi_isp(policing_rate=0.15)
    wl = table3_workloads(topo)
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=SEED
    )
    return measured_subnetwork(topo.network, wl), sim.run(10.0)


def run_two_families():
    """Two mechanism families in one scenario: a policer on the shared
    link and AQM on p3's (congested) egress link."""
    topo, wl = _dumbbell(None)
    specs = _shared_link_specs(policer=PolicerSpec("c2", 0.3))
    # Capacity and buffer depth are the spec's first two fields on
    # every commit (the buffer field's name differs between them).
    specs["l8"] = type(specs["l8"])(8.0, 0.1, aqm=AqmSpec("c2"))
    sim = FluidNetwork(topo.network, topo.classes, specs, wl, seed=SEED)
    return result_digest(sim.run(DURATION))


def run_segmented_swap():
    """Neutral → policing → policing at a higher rate (a deep token
    bucket, so the drained one carries over) → shaping → neutral,
    swapped mid-run."""
    topo, wl = _dumbbell(None)
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=SEED
    )
    session = sim.session(warmup_seconds=1.0)
    chunks = []
    for mechanism in (
        {"policer": PolicerSpec("c2", 0.1, burst_seconds=0.2)},
        {"policer": PolicerSpec("c2", 0.15, burst_seconds=0.2)},
        {"shaper": ShaperSpec("c2", 0.3)},
        {},
    ):
        chunks.append(session.advance(37))
        session.set_link_specs(_shared_link_specs(**mechanism))
    chunks.append(session.advance(40))
    return chunks_digest(chunks) + ":" + result_digest(session.result())


def run_streaming_chunks():
    """``keep_ground_truth=False``: only the emitted chunks remain."""
    topo, wl = _dumbbell("aqm")
    sim = FluidNetwork(
        topo.network, topo.classes, topo.link_specs, wl, seed=SEED
    )
    session = sim.session(keep_ground_truth=False)
    chunks = [session.advance(n) for n in (10, 25, 1, 64)]
    return chunks_digest(chunks)


def run_batch_mixed():
    """A B=4 batch: mixed families and a swap of every world."""
    topo, wl = _dumbbell(None)
    spec_sets = [
        _shared_link_specs(policer=PolicerSpec("c2", 0.25)),
        _shared_link_specs(shaper=ShaperSpec("c2", 0.3)),
        _shared_link_specs(aqm=AqmSpec("c2")),
        _shared_link_specs(),
    ]
    sim = FluidBatchNetwork(
        topo.network, topo.classes, spec_sets, wl, [SEED, 12, 13, 14]
    )
    session = sim.session(warmup_seconds=1.0)
    session.advance(30)
    session.set_link_specs(spec_sets[1])
    session.advance(70)
    return ":".join(result_digest(r) for r in session.results())


def run_batch_chunks():
    """A B=3 batch's per-world chunks, advanced in uneven segments
    around a swap of every world to AQM."""
    topo, wl = _dumbbell(None)
    spec_sets = [
        _shared_link_specs(policer=PolicerSpec("c2", 0.25)),
        _shared_link_specs(shaper=ShaperSpec("c2", 0.3)),
        _shared_link_specs(),
    ]
    sim = FluidBatchNetwork(
        topo.network, topo.classes, spec_sets, wl, [SEED, 21, 22]
    )
    session = sim.session(warmup_seconds=1.0)
    per_world = [[] for _ in spec_sets]
    for n in (17, 40, 3):
        for chunks, chunk in zip(per_world, session.advance(n)):
            chunks.append(chunk)
        if n == 17:
            session.set_link_specs(_shared_link_specs(aqm=AqmSpec("c2")))
    return ":".join(chunks_digest(chunks) for chunks in per_world)


#: Packet runs: a 2000 packets/second bottleneck (24 Mbps) behind
#: 240 Mbps access and egress links.
PACKET_SETTINGS = EmulationSettings(
    duration_seconds=DURATION, warmup_seconds=1.0, seed=SEED
)


def _packet_specs(**mechanism):
    """Explicit ``LinkSpec`` values for every dumbbell link."""
    net = build_dumbbell().network
    specs = {lid: LinkSpec(capacity_mbps=240.0) for lid in net.link_ids}
    specs[SHARED_LINK] = LinkSpec(
        capacity_mbps=24.0, buffer_seconds=0.2, **mechanism
    )
    return specs


def _packet_one_shot(**mechanism):
    topo, wl = _dumbbell(None)
    result = get_substrate("packet").run(
        topo.network, topo.classes, _packet_specs(**mechanism), wl,
        PACKET_SETTINGS,
    )
    return result_digest(result)


def run_packet_segmented_swap():
    """The fluid swap sequence on the packet engine, through the
    substrate's resumable session."""
    topo, wl = _dumbbell(None)
    session = get_substrate("packet").start(
        topo.network, topo.classes, _packet_specs(), wl, PACKET_SETTINGS
    )
    chunks = []
    for mechanism in (
        {"policer": PolicerSpec("c2", 0.1, burst_seconds=0.2)},
        {"policer": PolicerSpec("c2", 0.15, burst_seconds=0.2)},
        {"shaper": ShaperSpec("c2", 0.3)},
        {},
    ):
        chunks.append(session.advance(37))
        session.set_link_specs(_packet_specs(**mechanism))
    chunks.append(session.advance(40))
    return chunks_digest(chunks) + ":" + result_digest(session.result())


def run_packet_streaming_chunks():
    """``keep_ground_truth=False`` on the packet engine: only the
    emitted chunks remain."""
    topo, wl = _dumbbell(None)
    session = get_substrate("packet").start(
        topo.network, topo.classes, _packet_specs(aqm=AqmSpec("c2")), wl,
        PACKET_SETTINGS, keep_ground_truth=False,
    )
    chunks = [session.advance(n) for n in (10, 25, 1, 64)]
    return chunks_digest(chunks)


def _onset_records(net, half):
    """``2 * half`` synthesized intervals: neutral for ``half``, then
    with four planted violations."""
    perf, classes = random_two_class_performance(
        np.random.default_rng(SEED), net, num_violations=4
    )
    neutral = NetworkPerformance(
        net,
        classes,
        {
            lid: LinkPerformance.neutral(
                min(
                    perf.link_performance(lid).for_class(c)
                    for c in classes.names
                ),
                classes.names,
            )
            for lid in net.link_ids
        },
    )
    before = synthesize_records(
        neutral, np.random.default_rng(SEED + 1), num_intervals=half
    )
    after = synthesize_records(
        perf, np.random.default_rng(SEED + 2), num_intervals=half
    )
    return (
        before.path_ids,
        np.hstack([before.sent_matrix, after.sent_matrix]),
        np.hstack([before.lost_matrix, after.lost_matrix]),
    )


def _records(path_ids, sent, lost):
    return MeasurementData(
        [PathRecord(pid, sent[i], lost[i]) for i, pid in enumerate(path_ids)],
        0.1,
    )


@functools.lru_cache(maxsize=None)
def _federated_stream():
    """The 5×10 federated network (1225 paths) and 1200 intervals with
    the onset at 600."""
    net = build_federated_multi_isp(5, 10).network
    return net, _records(*_onset_records(net, 600))


def _mesh_stream():
    """A random mesh and 800 intervals with the onset at 400. One path
    sends nothing over [200, 330), so the windows inside that span are
    uninformative; scattered zero-sent cells in [500, 560) send the
    windows over them down the per-group branch."""
    net = random_mesh_network(
        np.random.default_rng(SEED), num_stubs=8, extra_edges=3
    )
    path_ids, sent, lost = _onset_records(net, 400)
    sent[0, 200:330] = 0
    holes = np.zeros(sent.shape, dtype=bool)
    holes[:, 500:560] = (
        np.random.default_rng(SEED + 3).random((sent.shape[0], 60)) < 0.02
    )
    sent[holes] = 0
    lost = np.minimum(lost, sent)
    return net, _records(path_ids, sent, lost)


def _verdict_repr(result):
    if result is None:
        return "None"
    return repr(
        (
            result.identified,
            result.identified_raw,
            result.neutral,
            result.skipped,
            sorted(result.scores.items()),
        )
    )


def monitor_digest(net, data, window, stride, chunk):
    """SHA-256 over one ``NeutralityMonitor`` report: the score
    timeline (NaN cells marked, then zeroed), the CUSUM flags and
    change points, each window's identified sets, and the final
    verdict."""
    monitor = NeutralityMonitor(
        net, EmulationSettings(), window_intervals=window, stride=stride
    )
    report = monitor.run(ReplayStream(data, chunk_intervals=chunk))
    h = hashlib.sha256()
    h.update(repr(report.sigmas).encode())
    _update(h, "window_ends", report.window_ends)
    _update(h, "scores/nan", np.isnan(report.scores))
    _update(h, "scores", np.nan_to_num(report.scores, nan=0.0))
    _update(h, "flagged", report.flagged)
    for cp in report.change_points:
        h.update(
            repr(
                (
                    cp.sigma,
                    cp.kind,
                    cp.window_index,
                    cp.interval,
                    cp.estimate_interval,
                )
            ).encode()
        )
    for w in report.windows:
        h.update(repr((w.index, w.start_interval, w.end_interval)).encode())
        h.update(
            repr(
                None
                if w.result is None
                else (w.result.identified, w.result.identified_raw)
            ).encode()
        )
    h.update(_verdict_repr(report.final).encode())
    return h.hexdigest()


def cli_digest(*argv):
    """SHA-256 over the stdout of one ``repro`` command, which must
    exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


#: The flat arrays of a :class:`SliceSystemBatch`.
BATCH_FIELDS = (
    "pair_a", "pair_b", "offsets", "la", "lb",
    "member_rows", "member_offsets", "sigma_masks",
)


def slices_digest(net):
    """SHA-256 over a cold ``build_slice_batch`` on a fresh network:
    the candidate and skipped sequences, then every flat array."""
    batch, skipped = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    h = hashlib.sha256()
    h.update(repr((batch.sigmas, skipped)).encode())
    for field in BATCH_FIELDS:
        _update(h, field, getattr(batch, field))
    return h.hexdigest()


def _topology_b_settings(duration):
    """Topology-B settings without warm-up: after a 10 s one, some σ
    group of a 10 s run has no interval in which all its paths sent,
    and commits before that σ was left unexamined fail the run."""
    return dataclasses.replace(
        TOPOLOGY_B_SETTINGS.quick(duration), warmup_seconds=0.0
    ).with_seed(SEED)


def fig10b_digest(duration):
    """SHA-256 over Figure 10(b): each examined σ of a topology-B run
    with its identified flag and its c2 / other pair estimates."""
    h = hashlib.sha256()
    for seq in run_topology_b(_topology_b_settings(duration)).sequences:
        h.update(
            repr(
                (seq.sigma, seq.identified, seq.c2_estimates,
                 seq.other_estimates)
            ).encode()
        )
    return h.hexdigest()


def _digest_verdicts(results):
    h = hashlib.sha256()
    for result in results:
        h.update(_verdict_repr(result).encode())
    return h.hexdigest()


def decide_theory_digest(exact):
    """SHA-256 over Algorithm 1 on each theory figure's exact
    observations: the rank test (``exact``) or the scored route on
    the exact pathset values."""
    results = []
    for _, builder in sorted(ALL_FIGURES.items()):
        perf = builder().performance
        if exact:
            results.append(identify_non_neutral_exact(perf))
        else:
            obs = {
                ps: perf.pathset_performance(ps)
                for ps in required_pathsets(perf.network)
            }
            results.append(identify_non_neutral(perf.network, obs))
    return _digest_verdicts(results)


@functools.lru_cache(maxsize=None)
def _synthesized_scores():
    """A random mesh with four planted violations, 600 synthesized
    intervals: its slice batch and every σ's (finite) score."""
    net = random_mesh_network(
        np.random.default_rng(SEED), num_stubs=10, extra_edges=3
    )
    perf, _ = random_two_class_performance(
        np.random.default_rng(SEED), net, num_violations=4
    )
    data = synthesize_records(
        perf, np.random.default_rng(SEED + 1), num_intervals=600
    )
    batch, skipped = build_slice_batch(net, DEFAULT_MIN_PATHSETS)
    _, y_member, y_pair = batch_slice_observations(data, batch)
    scores = batch_unsolvability_arrays(batch, y_member, y_pair)
    if not np.isfinite(scores).all():
        raise RuntimeError("synthesized scores must all be finite")
    return batch, skipped, dict(zip(batch.sigmas, scores.tolist()))


def decide_scores_digest(*deciders):
    """SHA-256 over ``identify_from_scores`` on the synthesized
    scores, once per decider."""
    batch, skipped, scores = _synthesized_scores()
    return _digest_verdicts(
        identify_from_scores(batch, skipped, scores, decider)
        for decider in deciders
    )


def outcomes_digest(outcomes):
    """SHA-256 over experiment outcomes, in order: every emulation
    array, then the scores and the identified set of each."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(result_digest(outcome.emulation).encode())
        h.update(repr(sorted(outcome.algorithm.scores.items())).encode())
        h.update(repr(outcome.algorithm.identified).encode())
    return h.hexdigest()


def _sweep_digest(set_numbers, settings):
    with SweepRunner.for_settings(settings) as runner:
        results = runner.run(sweep_points(set_numbers, settings))
    return outcomes_digest(results[key] for key in sorted(results))


def run_sweep_table2():
    """Table 2 sets 4 and 6 through an inline sweep runner: set 4's
    10 Mb point and set 6's four rates as one scenario batch, set 4's
    other points one by one (its 1 Mb point has the most flow
    slots)."""
    return _sweep_digest(
        (4, 6), EmulationSettings(duration_seconds=DURATION, seed=SEED)
    )


def run_table2_sets_2_9():
    """Table 2 sets 2–9 at 4 s points through an inline sweep runner:
    26 of the 30 points run in scenario batches that mix sets and
    mechanisms (one of 14, six pairs), the other four singly."""
    return _sweep_digest(
        range(2, 10),
        EmulationSettings(
            duration_seconds=4.0, warmup_seconds=1.0, seed=SEED
        ),
    )


def run_topology_b_rates():
    """One topology-B point at rate 0.15, then rates 0.1 and 0.2 as
    one rate batch."""
    settings = _topology_b_settings(10.0)
    reports = [run_topology_b_point(settings, 0.15, SEED)]
    reports += run_topology_b_rate_batch(
        [SEED, SEED + 1],
        [{"settings": settings, "policing_rate": r} for r in (0.1, 0.2)],
    )
    return outcomes_digest(report.outcome for report in reports)


RUNS = {
    "dumbbell-neutral": lambda: _one_shot(None),
    "dumbbell-policing": lambda: result_digest(_policing_run()[1]),
    "dumbbell-shaping": lambda: _one_shot("shaping"),
    "dumbbell-aqm": lambda: _one_shot("aqm"),
    "dumbbell-weighted": lambda: _one_shot("weighted"),
    "dumbbell-policing-warmup": lambda: _one_shot(
        "policing", warmup_seconds=2.5
    ),
    "dumbbell-policer-and-aqm": run_two_families,
    "multi-isp-10s": lambda: result_digest(_multi_isp_run()[1]),
    "segmented-swap": run_segmented_swap,
    "streaming-chunks": run_streaming_chunks,
    "batch-b4-mixed": run_batch_mixed,
    "batch-b3-chunks": run_batch_chunks,
    "packet-dumbbell-neutral": lambda: _packet_one_shot(),
    "packet-dumbbell-policing": lambda: _packet_one_shot(
        policer=PolicerSpec("c2", 0.3)
    ),
    "packet-dumbbell-aqm": lambda: _packet_one_shot(aqm=AqmSpec("c2")),
    "packet-dumbbell-weighted": lambda: _packet_one_shot(
        weighted=WeightedShaperSpec("c2", 0.3)
    ),
    "packet-segmented-swap": run_packet_segmented_swap,
    "packet-streaming-chunks": run_packet_streaming_chunks,
    "infer-dumbbell-policing": lambda: infer_digest(
        _policing_run()[0], _policing_run()[1].measurements
    ),
    "infer-multi-isp-10s": lambda: infer_digest(
        _multi_isp_run()[0], _multi_isp_run()[1].measurements
    ),
    "fig10b-multi-isp-10s": lambda: fig10b_digest(10.0),
    "monitor-federated-sliding": lambda: monitor_digest(
        *_federated_stream(), window=100, stride=25, chunk=25
    ),
    "monitor-federated-growing": lambda: monitor_digest(
        *_federated_stream(), window=None, stride=50, chunk=25
    ),
    "monitor-mesh-holes": lambda: monitor_digest(
        *_mesh_stream(), window=100, stride=25, chunk=40
    ),
    "monitor-cli-dumbbell-onset": lambda: cli_digest(
        "monitor", "--duration", "20", "--warmup", "2", "--onset", "8",
        "--chunk", "25", "--window", "50", "--seed", "3",
    ),
    "monitor-cli-multi-isp-neutral": lambda: cli_digest(
        "monitor", "--topology", "multi_isp", "--mechanism", "none",
        "--duration", "30", "--warmup", "2", "--seed", "4",
    ),
    "slices-federated-8x13": lambda: slices_digest(
        build_federated_multi_isp(8, 13).network
    ),
    "slices-star-2000": lambda: slices_digest(star_network(2000)),
    "slices-chain-300x400": lambda: slices_digest(chain_network(300, 400)),
    "slices-mesh": lambda: slices_digest(
        random_mesh_network(
            np.random.default_rng(SEED), num_stubs=12, extra_edges=6
        )
    ),
    "run-sweep-table2-sets-4-6": run_sweep_table2,
    "run-table2-sets-2-9": run_table2_sets_2_9,
    "run-topology-b-rates": run_topology_b_rates,
    "decide-theory-scored": lambda: decide_theory_digest(exact=False),
    "decide-theory-exact": lambda: decide_theory_digest(exact=True),
    "decide-synth-cluster": lambda: decide_scores_digest(
        make_cluster_decider(),
        make_cluster_decider(min_absolute=0.02, min_ratio=2.0, definite=0.10),
    ),
    "decide-synth-threshold": lambda: decide_scores_digest(
        threshold_decider(0.01), threshold_decider(0.03)
    ),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the digests as JSON here")
    parser.add_argument(
        "--compare",
        help="JSON digests to compare against; exit 1 on any mismatch",
    )
    args = parser.parse_args(argv)
    digests = {}
    for name, run in RUNS.items():
        digests[name] = run()
        print(f"{name:30s} {digests[name][:16]}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
    if args.compare:
        with open(args.compare) as fh:
            expected = json.load(fh)
        bad = sorted(
            name for name in expected if digests.get(name) != expected[name]
        )
        if bad:
            print(f"MISMATCH: {', '.join(bad)}")
            return 1
        print(f"all {len(expected)} digests equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
