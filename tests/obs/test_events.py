"""The event registry, held in both directions.

Emitters: every ``.emit(`` in ``src/repro`` names a registered event (the
three sites that compute a name are listed here with the names they can
produce), passes exactly its required fields positionally and no unknown
one by keyword; every event of a traced quickstart run and of a traced
fault drill conforms.  Records: a record whose field count is not its
name's fails loudly where its dict is built, and a traced drill's JSONL
replayed into fresh engines gives the live run's reports.  Consumers: every
name an engine subscribes to, and every ``SIGNAL_ROUTES`` key, is
registered, and the names a handler shares lay out its fields alike.
Docs: the schema table in ``docs/observability.md`` is the registry's
rendering.
"""

import ast
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults.campaign import slo_engine
from repro.faults.drill import run_drill
from repro.obs.analyze import load_trace
from repro.obs.events import AMBIENT, EVENTS, as_dict, positions, record, schema_table
from repro.obs.exporters import JsonlExporter
from repro.obs.slo import SLOEngine, bench_objectives, faults_objectives
from repro.obs.slo.engine import _DISPATCH, SIGNAL_ROUTES
from repro.obs.tracer import Tracer, replay
from repro.obs.witness import WitnessEngine

SRC = pathlib.Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent

#: The emit sites whose name is computed, and every name each can produce.
DYNAMIC = {
    ("obs/instrument.py", "f'vc.{event}'"): ("vc.register", "vc.advance", "vc.discard"),
    ("histories/recorder.py", "event"): ("history.commit", "history.abort"),
    ("faults/campaign.py", "event"): ("avail.outage", "shard.outage"),
}


#: Optional fields that every emit of the name still carries: registered
#: optional only because their position in the record varies.
ALWAYS = {"fault.recover": ("incarnation",)}


def violations(event):
    """What is wrong with one event dict against the registry (empty when it
    conforms): an unknown name, a missing required field (or one of
    :data:`ALWAYS`), an unknown one."""
    spec = EVENTS.get(event["name"])
    if spec is None:
        return [f"{event['name']!r} is not a registered event"]
    fields = set(event) - {"name", "ts"}
    present = spec.required + ALWAYS.get(event["name"], ())
    out = [f"{event['name']}: missing {f!r}" for f in present if f not in fields]
    if not spec.free_form:
        known = set(spec.required) | set(spec.optional) | set(AMBIENT)
        out.extend(f"{event['name']}: unknown field {f!r}" for f in sorted(fields - known))
    return out


def emit_sites():
    """``(where, names, positional count, starred, keyword fields, splats)``
    for every ``.emit(`` call; the count leaves out the name and any
    ``*`` expansion."""
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant):
                names = (first.value,)
            else:
                names = DYNAMIC[(where, ast.unparse(first))]
            values = node.args[1:]
            starred = any(isinstance(value, ast.Starred) for value in values)
            count = sum(not isinstance(value, ast.Starred) for value in values)
            fields = {k.arg for k in node.keywords if k.arg is not None}
            splats = any(k.arg is None for k in node.keywords)
            yield f"{where}:{node.lineno}", names, count, starred, fields, splats


class TestEmitSites:
    def test_every_site_names_a_registered_event_with_its_fields(self):
        problems = []
        for where, names, count, starred, fields, splats in emit_sites():
            for name in names:
                spec = EVENTS.get(name)
                if spec is None:
                    problems.append(f"{where}: {name!r} is not registered")
                    continue
                required = len(spec.required)
                # A ``*`` expansion may carry some of them, never too many.
                if count > required or (count < required and not starred):
                    problems.append(
                        f"{where}: {name} passes {count} positional field(s), "
                        f"requires {required}: {', '.join(spec.required)}"
                    )
                problems.extend(
                    f"{where}: {name} passes required {f!r} by keyword"
                    for f in sorted(fields & set(spec.required))
                )
                if not spec.free_form:
                    known = set(spec.optional) | set(AMBIENT)
                    problems.extend(
                        f"{where}: {name} passes unknown {f!r}"
                        for f in sorted(fields - known - set(spec.required))
                    )
        assert not problems, "\n".join(problems)

    def test_every_dynamic_site_is_still_there(self):
        found = {site[1] for site in emit_sites() if len(site[1]) > 1}
        assert found == set(DYNAMIC.values())

    def test_every_registered_name_has_an_emitter(self):
        emitted = {name for site in emit_sites() for name in site[1]}
        assert emitted == set(EVENTS)


class TestRecords:
    def test_a_record_of_the_wrong_arity_fails_where_its_dict_is_built(self):
        assert as_dict(("txn.commit", 1.0, (4, "rw", 2), None, None))["tn"] == 2
        for fields in ((4, "rw"), (4, "rw", 2, 9)):
            with pytest.raises(TypeError, match=r"'txn.commit' has \d positional.*txn, cls, tn"):
                as_dict(("txn.commit", 1.0, fields, None, None))

    def test_a_keyword_for_a_required_field_fails_too(self):
        tracer = Tracer([JsonlExporter(io.StringIO())])
        with pytest.raises(TypeError, match="'txn.begin' has 0 positional"):
            tracer.emit("txn.begin", txn=1, cls="rw")

    def test_a_decoded_line_and_its_record_round_trip(self):
        line = {"name": "wal.force", "ts": 2.0, "made_durable": 1, "durable": 3,
                "torn": True, "span": 4, "trace": 5}
        optional = {"torn": True, "span": 4, "trace": 5}
        assert record(line) == ("wal.force", 2.0, (1, 3), optional, None)
        assert list(as_dict(record(line)).items()) == list(line.items())

    def test_replaying_the_traced_drill_gives_the_live_reports(self):
        """``drill --slo --witness --trace``: the drill's own engines judge
        the run live; fresh ones built the same way judge its JSONL."""
        stream = io.StringIO()
        tracer = Tracer([JsonlExporter(stream)])
        report = run_drill("dvc", seed=0, duration=120.0, tracer=tracer, slo=True, witness=True)
        tracer.close()
        assert report.ok and report.witness["transactions"] > 0
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        # The drill detaches its engines before it emits its closing summary.
        assert events.pop()["name"] == "fault.drill.done"
        slo = slo_engine(faults_objectives(), 120.0, capacity=8192)
        witness = WitnessEngine(seal=True)
        replay(events, slo, witness)
        slo.finish()
        witness.finish()
        assert slo.report() == report.slo
        assert witness.report() == report.witness


def _run(*argv, env=None):
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC.parent), **(env or {})},
        cwd=ROOT, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()


class TestTraces:
    def test_the_quickstart_trace_conforms(self, tmp_path):
        trace = tmp_path / "quickstart.jsonl"
        _run("examples/quickstart.py", env={"REPRO_TRACE": str(trace)})
        events = load_trace(str(trace))
        assert events
        assert [v for event in events for v in violations(event)] == []

    def test_the_traced_fault_drill_conforms(self, tmp_path):
        trace = tmp_path / "drill.jsonl"
        _run("-m", "repro", "drill", "--seeds", "1", "--slo", "--witness", "--trace", str(trace))
        events = load_trace(str(trace))
        names = {event["name"] for event in events}
        assert {"history.commit", "fault.crash", "fault.recover", "span.start",
                "lock.grant"} <= names
        assert [v for event in events for v in violations(event)] == []


class TestSubscriptions:
    def test_every_signal_route_is_a_registered_name(self):
        assert set(SIGNAL_ROUTES) - set(EVENTS) == set()

    @pytest.mark.parametrize("engine", [
        WitnessEngine(seal=True),
        SLOEngine(bench_objectives(ro_never_blocks=True)),
    ], ids=["witness", "slo"])
    def test_every_subscription_is_a_registered_name(self, engine):
        table = WitnessEngine._HANDLERS if isinstance(engine, WitnessEngine) else _DISPATCH
        assert set(table) - set(EVENTS) == set()
        subscribed = {name for name in EVENTS if engine.route(name) is not None}
        assert subscribed == set(table)

    @pytest.mark.parametrize("names,fields", [
        (("history.commit", "history.abort"), ("txn", "ident", "tn")),
        (("vc.register", "vc.advance", "vc.discard"), ("number", "tnc", "vtnc", "lag")),
        (("txn.begin", "txn.commit", "txn.abort", "txn.block"), ("txn", "cls")),
        (("lock.block", "lock.grant"), ("txn",)),
    ])
    def test_the_names_a_handler_shares_lay_out_its_fields_alike(self, names, fields):
        assert len({positions(name, *fields) for name in names}) == 1

    def test_the_witness_takes_the_vc_names_by_name(self):
        assert WitnessEngine(seal=True).route("vc.call") is None
        assert {"vc.register", "vc.advance", "vc.discard"} <= set(WitnessEngine._HANDLERS)

    def test_a_violation_names_the_problem(self):
        assert violations({"name": "txn.begin", "ts": 0.0, "txn": 1, "cls": "rw"}) == []
        assert violations({"name": "txn.begn", "ts": 0.0}) == ["'txn.begn' is not a registered event"]
        assert violations({"name": "txn.begin", "ts": 0.0, "txn": 1, "span": 2, "x": 3}) == [
            "txn.begin: missing 'cls'", "txn.begin: unknown field 'x'",
        ]
        assert violations({"name": "fault.recover", "ts": 0.0, "site": 1, "vtnc": 2}) == [
            "fault.recover: missing 'incarnation'",
        ]

    def test_every_always_present_field_is_registered_optional(self):
        for name, fields in ALWAYS.items():
            assert set(fields) <= set(EVENTS[name].optional)


def test_the_docs_schema_table_is_the_registry_rendered():
    doc = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    header = schema_table().splitlines()[0]
    start = doc.index(header)
    end = doc.index("\n\n", start)
    assert doc[start:end + 1] == schema_table()
