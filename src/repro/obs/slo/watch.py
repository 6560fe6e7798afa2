"""``python -m repro watch`` — deterministic offline SLO replay of a trace.

Replays a JSONL trace (written by :class:`~repro.obs.exporters.JsonlExporter`
or the ``drill --trace`` flag) through a fresh :class:`SLOEngine` in virtual
time and prints the verdict.  Because the engine is a pure function of the
event stream, two invocations over the same file produce byte-identical
output and byte-identical bundles — the watchdog equivalent of the seeded
replay guarantee everywhere else in this repo.

With ``--witness`` the same replay also feeds the streaming MVSG certifier
(:class:`~repro.obs.witness.WitnessEngine`), printing its 1SR verdict next
to the SLO table — one pass over the trace answers both "did the run keep
its promises?" and "was it serializable?" (see ``docs/witness.md``).

Exit codes: 0 — no unexpected breach; 3 — unexpected breach (or any breach
with ``--strict``), or a failed ``--witness`` certification; 1 — trace
unreadable; 2 — bad usage.
"""

from __future__ import annotations

import json

from repro.cli import Parser
from repro.obs.analyze import read_trace
from repro.obs.slo.engine import SLOEngine
from repro.obs.slo.objectives import PROFILES
from repro.obs.slo.recorder import FlightRecorder
from repro.obs.tracer import replay
from repro.obs.witness import WitnessEngine


def main(argv: list[str]) -> int:
    """``python -m repro watch <trace.jsonl> [--window W] [--profile P] ...``."""
    parser = Parser(
        {
            "window": dict(
                type=float, default=25.0,
                help="tumbling-window width in virtual time units (default 25)",
            ),
            "profile": dict(
                choices=sorted(PROFILES), default="default",
                help="objective profile to evaluate (default: default)",
            ),
            "bundle_dir": dict(
                metavar="DIR", help="write a flight-recorder bundle per breach into DIR"
            ),
            "json": dict(
                action="store_true",
                help="print the machine-readable verdict block instead of the table",
            ),
            "strict": dict(
                action="store_true",
                help="fail (exit 3) on expected breaches too, not just unexpected",
            ),
            "witness": dict(
                action="store_true",
                help="also certify the trace's history.* stream with the streaming "
                "MVSG witness; exit 3 if it refuses to certify 1SR",
            ),
        },
        prog="repro watch",
        description="Replay a JSONL trace through the SLO watchdogs and "
        "report breach verdicts (see docs/slo.md).",
    )
    parser.add_argument("trace", help="JSONL trace file to replay")
    args = parser.parse(argv)
    if isinstance(args, int):
        return args
    events = read_trace(args.trace)
    if events is None:
        return 1
    engine = SLOEngine(
        PROFILES[args.profile](),
        window=args.window,
        recorder=FlightRecorder(capacity=8192),
        bundle_dir=args.bundle_dir,
        bundle_prefix="watch",
    )
    certifier = None
    if args.witness:
        certifier = WitnessEngine(seal=True)
    replay(events, *filter(None, (engine, certifier)))
    engine.finish()
    if certifier is not None:
        certifier.finish()

    if args.json:
        verdict = engine.report()
        if certifier is not None:
            verdict = {"slo": verdict, "witness": certifier.report()}
        print(json.dumps(verdict, sort_keys=True, indent=2, default=repr))
    else:
        print(engine.render())
        if engine.bundle_paths:
            for path in engine.bundle_paths:
                print(f"bundle written to {path}")
        if certifier is not None:
            print(certifier.render())
    failed = engine.breaches if args.strict else engine.unexpected_breaches
    if certifier is not None and not certifier.ok:
        return 3
    return 3 if failed else 0
