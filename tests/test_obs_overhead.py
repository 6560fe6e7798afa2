"""Overhead guard: a disabled (null) tracer must cost < 5% on the hot path.

The yardstick is one instrumented transaction — ``begin``/``read``/
``write``/``commit`` through a ``VC2PLScheduler`` — because that is the unit
instrumentation is attached to and the unit it is paid per: a scheduler
opens one ``txn`` span and guards a handful of emit sites per transaction.
It is not a bare ``VersionControl`` call: a ``vc_register``/``vc_complete``
pair is a few dict operations and three comparisons, far less than anything
a client can ask the system to do, so a share of *that* says how small the
module is, not what tracing costs a transaction.  The disabled
configuration is what every component runs with by default: ``NULL_TRACER``
in the ``tracer`` slot and *no* VC observer subscribed —
``subscribe_version_control`` refuses to subscribe for a disabled tracer
precisely so this guard can hold.

Each attempt times ``WINDOWS`` short windows per configuration, interleaved
and with the cyclic collector paused, and compares the medians — not the
minima: on a shared host a few windows land in a frequency burst and run a
third faster than the rest, so the minimum of an allocation-heavy loop is
its noisiest statistic, where the median moves only if the typical window
does.  A few whole-test retries keep a single scheduler hiccup from failing
CI; a genuine regression (an unguarded emit, an observer subscribed for a
disabled tracer) fails all attempts.  The exporter guards further down time
pure emit loops, for which best-of-N is steady.
"""

import gc
import statistics
import time

from repro.obs import NULL_TRACER, attach_tracer
from repro.obs.spans import NULL_SPAN, start_span
from repro.protocols.registry import make_scheduler
from repro.protocols.vc_two_phase_locking import VC2PLScheduler

N_TXNS = 1_000
REPEATS = 5
ATTEMPTS = 3
LIMIT = 1.05
WINDOWS = 60
TXNS_PER_WINDOW = 50


def txn_window(db: VC2PLScheduler, spanned: bool = False) -> float:
    """Seconds for ``TXNS_PER_WINDOW`` read-modify-write transactions.

    With ``spanned`` each one is additionally wrapped in a span opened on
    ``NULL_TRACER`` — what an instrumented caller (a session, a campaign
    client) does around every transaction; with the tracer disabled
    ``start_span`` must collapse to returning the shared ``NULL_SPAN``.
    """
    t0 = time.perf_counter()
    for i in range(TXNS_PER_WINDOW):
        key = f"k{i % 16}"
        if spanned:
            span = start_span(NULL_TRACER, "txn", parent=None, txn=i)
        txn = db.begin()
        db.read(txn, key).result()
        db.write(txn, key, i).result()
        db.commit(txn).result()
        if spanned:
            span.end()
    return time.perf_counter() - t0


def null_attached() -> VC2PLScheduler:
    db = VC2PLScheduler()
    attach_tracer(db, NULL_TRACER)
    assert db.vc._observers == []  # disabled tracer must subscribe nothing
    return db


def overhead_ratio(spanned: bool) -> float:
    """Median window of a NULL_TRACER-attached scheduler over a bare one's."""
    bare: list[float] = []
    attached: list[float] = []
    gc.disable()
    try:
        for _ in range(WINDOWS):
            bare.append(txn_window(VC2PLScheduler()))
            attached.append(txn_window(null_attached(), spanned))
    finally:
        gc.enable()
    return statistics.median(attached) / statistics.median(bare)


def accepted_ratio(spanned: bool) -> float:
    """The first of up to ``ATTEMPTS`` ratios under ``LIMIT``, else the last."""
    ratio = float("inf")
    for _ in range(ATTEMPTS):
        ratio = overhead_ratio(spanned)
        if ratio < LIMIT:
            break
    return ratio


def test_null_tracer_overhead_below_5_percent():
    ratio = accepted_ratio(spanned=False)
    assert ratio < LIMIT, (
        f"null tracer costs {100 * (ratio - 1):.1f}% of a vc-2pl transaction "
        f"(limit {100 * (LIMIT - 1):.0f}%)"
    )


def test_null_tracer_span_recording_overhead_below_5_percent():
    ratio = accepted_ratio(spanned=True)
    assert ratio < LIMIT, (
        f"NULL_TRACER span recording costs {100 * (ratio - 1):.1f}% of a "
        f"vc-2pl transaction (limit {100 * (LIMIT - 1):.0f}%)"
    )


def test_null_span_is_shared_and_inert():
    """The structural facts the span timing guard rests on."""
    span = start_span(NULL_TRACER, "txn", txn=1)
    assert span is NULL_SPAN  # no allocation per call
    assert span.context is None
    with span:  # context-manager use must not touch the active slot
        assert NULL_TRACER.active_span is None


def test_null_attach_leaves_hot_path_untouched():
    """The structural facts the timing guard rests on."""
    db = make_scheduler("vc-2pl")
    handle = attach_tracer(db, NULL_TRACER)
    assert db.vc._observers == []  # no observer => vc_* calls do zero extra work
    assert db.counters.tracer is NULL_TRACER
    assert db.locks.tracer is NULL_TRACER
    assert NULL_TRACER.enabled is False  # every emit site guards on this
    handle.detach()


def test_null_pipeline_is_free():
    """An exporter-less ObsPipeline must not create a real tracer at all."""
    from repro.obs.pipeline import ObsPipeline

    pipeline = ObsPipeline()
    assert pipeline.tracer is NULL_TRACER
    assert not pipeline.enabled
    pipeline.close()


SLO_LIMIT = 1.25  # engine+recorder vs plain JSONL export, emit-heavy loop


def _emit_loop(tracer) -> None:
    """An emit-heavy loop through an enabled tracer: paired txn events plus
    a lag sample per iteration — the shape the SLO engine works hardest on."""
    for i in range(N_TXNS):
        tracer.emit("txn.begin", i, "rw")
        tracer.emit("vc.register", i, i + 1, i - i % 7, i % 7)
        tracer.emit("txn.commit", i, "rw", i)


WITNESS_LIMIT = 1.25  # streaming certifier vs plain JSONL export


def _history_loop(tracer, n=N_TXNS) -> None:
    """A full committed-transaction stream with the watermark chasing the
    frontier — the shape that keeps the witness sealing continuously."""
    for i in range(1, n + 1):
        tracer.emit("history.begin", i, "rw")
        tracer.emit("history.read", i, f"k{i % 8}", max(0, i - 8))
        tracer.emit("history.write", i, f"k{i % 8}")
        tracer.emit("history.commit", i, i, i, "rw")
        tracer.emit("vc.advance", i, i + 1, i, 0)


def test_witness_engine_overhead_within_budget():
    """The sealing certifier may cost at most ~25% more than JSONL export
    on a commit-heavy history stream.  Pearce–Kelly insertions that respect
    the existing order are O(1) and sealing keeps the graph at the frontier,
    so per-event cost must stay flat — this is what justifies running the
    witness inside every drill, campaign, and bench by default."""
    import io

    from repro.obs.exporters import JsonlExporter
    from repro.obs.tracer import Tracer
    from repro.obs.witness import WitnessEngine

    ratio = float("inf")
    for _ in range(ATTEMPTS):
        jsonl_best = float("inf")
        witness_best = float("inf")
        for _ in range(REPEATS):
            tracer = Tracer(exporters=[JsonlExporter(io.StringIO())])
            t0 = time.perf_counter()
            _history_loop(tracer)
            jsonl_best = min(jsonl_best, time.perf_counter() - t0)

            engine = WitnessEngine(seal=True)
            tracer = Tracer(exporters=[engine])
            t0 = time.perf_counter()
            _history_loop(tracer)
            engine.finish()
            assert engine.ok and engine.committed == N_TXNS
            witness_best = min(witness_best, time.perf_counter() - t0)
        ratio = witness_best / jsonl_best
        if ratio < WITNESS_LIMIT:
            break
    assert ratio < WITNESS_LIMIT, (
        f"witness engine costs {ratio:.2f}x the JSONL exporter on a "
        f"commit-heavy loop (limit {WITNESS_LIMIT:.2f}x)"
    )


def test_witness_memory_stays_at_frontier_during_overhead_loop():
    """The companion structural fact: the overhead loop's peak tracked
    state is a small constant, not O(N_TXNS)."""
    from repro.obs.tracer import Tracer
    from repro.obs.witness import WitnessEngine

    engine = WitnessEngine(seal=True)
    tracer = Tracer(exporters=[engine])
    _history_loop(tracer)
    engine.finish()
    assert engine.peak_tracked < 32


def test_slo_engine_overhead_within_budget():
    """Watchdogs (engine + flight recorder) may cost at most ~25% more than
    the cheapest useful enabled configuration (JSONL to a string buffer) on
    an emit-heavy loop.  Keeping the engine within a constant factor of the
    serialization floor is what makes 'leave the watchdogs on for the whole
    campaign' a defensible default."""
    import io

    from repro.obs.exporters import JsonlExporter
    from repro.obs.slo import FlightRecorder, SLOEngine, default_objectives
    from repro.obs.tracer import Tracer

    ratio = float("inf")
    for _ in range(ATTEMPTS):
        jsonl_best = float("inf")
        slo_best = float("inf")
        for _ in range(REPEATS):
            tracer = Tracer(exporters=[JsonlExporter(io.StringIO())])
            t0 = time.perf_counter()
            _emit_loop(tracer)
            jsonl_best = min(jsonl_best, time.perf_counter() - t0)

            engine = SLOEngine(
                default_objectives(),
                window=25.0,
                recorder=FlightRecorder(capacity=8192),
            )
            tracer = Tracer(exporters=[engine])
            t0 = time.perf_counter()
            _emit_loop(tracer)
            engine.finish()
            slo_best = min(slo_best, time.perf_counter() - t0)
        ratio = slo_best / jsonl_best
        if ratio < SLO_LIMIT:
            break
    assert ratio < SLO_LIMIT, (
        f"SLO engine costs {ratio:.2f}x the JSONL exporter on an emit-heavy "
        f"loop (limit {SLO_LIMIT:.2f}x)"
    )
