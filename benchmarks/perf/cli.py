"""Command line of the benchmark (see README.md for the full story).

Driver contract (``BENCHMARK.json``)::

    python3 benchmarks/perf --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints every metric of the run by name and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Whole suite (every workload, untraced then traced)::

    PYTHONHASHSEED=0 PYTHONPATH=src python -m benchmarks.perf --seed 0 --out results.json

plus ``--selftest``, ``--compare A.json B.json`` and ``--repeat N``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from . import use_checkout_source
from .runner import PassFailed, render, result_line, run_workload
from .selftest import selftest
from .shims import resolve
from .spec import DRIVER_ENTRY_POINTS, END_TO_END, WORKLOADS

DEFAULT_SECONDS = 10


def _child(spec_json: str) -> int:
    try:
        use_checkout_source()
        for dotted in DRIVER_ENTRY_POINTS:
            resolve(dotted)
    except LookupError as error:
        print(
            f"benchmarks.perf: driver entry point missing ({error}). The benchmark "
            "drives the system through the public entry points listed in "
            "benchmarks/perf/README.md and cannot run without them.",
            file=sys.stderr,
        )
        return 3
    from .harness import run_pass  # imports the system: only after the check above

    print(json.dumps(run_pass(json.loads(spec_json))))
    return 0


def _suite(args: argparse.Namespace) -> dict[str, Any]:
    out: dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": args.seconds, "workloads": {},
    }
    for name in (w.name for w in WORKLOADS):
        entry: dict[str, Any] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            trace_out = None
            if trace and args.trace_out:  # one dump per workload: spans.jsonl -> spans.<name>.jsonl
                trace_out = str(Path(args.trace_out).with_suffix(f".{name}.jsonl"))
            # Same inputs both times: the untraced run's verify pass covers both.
            result = run_workload(
                name, args.seed, args.seconds, trace, trace_out=trace_out, verify=not trace
            )
            print(render(name, result, trace), flush=True)
            entry[key] = result[key]
            entry[f"{key}_checks"] = result["checks"]
            entry[f"{key}_details"] = result["details"]
            entry["correct"] = (
                entry.get("correct", True) and result["correct"] and result["failed"] == 0
            )
        out["workloads"][name] = entry
    out["correct"] = all(e["correct"] for e in out["workloads"].values())
    return out


def _spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: interquartile distance
    with four or more values, full range with fewer."""
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / abs(median) if median else 0.0


def _compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    worse = 0
    print(f"{'workload':<18}{'metric':<20}{'A (base)':>12}{'B':>12}{'change':>9}{'bound':>7}  verdict")
    for name in a["workloads"]:
        for m in END_TO_END:
            va = a["workloads"][name].get("end_to_end", {}).get(m.name)
            vb = b["workloads"].get(name, {}).get("end_to_end", {}).get(m.name)
            if va is None or vb is None or va == 0:
                print(f"{name:<18}{m.name:<20}{str(va):>12}{str(vb):>12}{'':>9}{m.bound:>7.0%}  unresolved (missing)")
                continue
            change = (vb - va) / va
            gain = change if m.better == "higher" else -change
            # Host metrics carry one value per pass: their run-to-run spread.
            per_pass = [run["workloads"][name]["end_to_end_details"]["per_pass"] for run in (a, b)]
            noisy = any(_spread(p[m.name]) > m.bound for p in per_pass if m.name in p)
            if gain < -m.bound:
                verdict = "worse"
                worse += 1
            elif noisy:
                verdict = "unresolved (spread > bound)"
            elif gain > m.bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"{name:<18}{m.name:<20}{va:>12.5g}{vb:>12.5g}{change:>+9.2%}{m.bound:>7.0%}  {verdict} (base A={va:.5g})")
    return 1 if worse else 0


def _repeat(args: argparse.Namespace) -> int:
    runs = [_suite(args) for _ in range(args.repeat)]
    beyond = 0
    print(f"{'workload':<18}{'metric':<20}{'median':>12}{'spread':>9}{'bound':>7}  verdict")
    for name in runs[0]["workloads"]:
        for m in END_TO_END:
            values = [run["workloads"][name]["end_to_end"][m.name] for run in runs]
            spread = _spread(values)
            exact = m.clock == "vt"
            ok = len(set(values)) == 1 if exact else spread <= m.bound
            beyond += not ok
            verdict = ("identical" if ok else "DIFFERS (must be exact)") if exact else (
                "within" if ok else "BEYOND")
            print(f"{name:<18}{m.name:<20}{statistics.median(values):>12.5g}{spread:>9.2%}{m.bound:>7.0%}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs[-1], indent=1) + "\n")
    return 1 if beyond or not all(run["correct"] for run in runs) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long one run keeps measuring (passes are whole)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite mode: write the results JSON here")
    parser.add_argument("--trace-out", help="write the sampled span dump (JSONL) here")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child(args.child)
    try:
        return _dispatch(args)
    except (PassFailed, LookupError) as error:
        print(f"benchmarks.perf: {error}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.compare:
        return _compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.repeat:
        return _repeat(args)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.trace_out)
        print(render(args.workload, result, args.trace))
        print(result_line(result, args.trace))
        return 0 if result["correct"] and result["failed"] == 0 else 1
    suite = _suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=1) + "\n")
    print(f"suite correct={suite['correct']}")
    return 0 if suite["correct"] else 1
