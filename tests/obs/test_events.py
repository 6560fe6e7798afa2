"""The event registry, held in both directions.

Emitters: every ``.emit(`` in ``src/repro`` names a registered event (the
three sites that compute a name are listed here with the names they can
produce) and passes its required fields and no unknown one; every event of
a traced quickstart run and of a traced fault drill conforms.  Consumers:
every name an engine subscribes to, and every ``SIGNAL_ROUTES`` key, is
registered.  Docs: the schema table in ``docs/observability.md`` is the
registry's rendering.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.obs.analyze import load_trace
from repro.obs.events import AMBIENT, EVENTS, schema_table
from repro.obs.slo import SLOEngine, bench_objectives
from repro.obs.slo.engine import _DISPATCH, SIGNAL_ROUTES
from repro.obs.witness import WitnessEngine

SRC = pathlib.Path(repro.__file__).resolve().parent
ROOT = SRC.parent.parent

#: The emit sites whose name is computed, and every name each can produce.
DYNAMIC = {
    ("obs/instrument.py", "f'vc.{event}'"): ("vc.register", "vc.advance", "vc.discard"),
    ("histories/recorder.py", "event"): ("history.commit", "history.abort"),
    ("faults/campaign.py", "event"): ("avail.outage", "shard.outage"),
}


def violations(event):
    """What is wrong with one event dict against the registry (empty when it
    conforms): an unknown name, a missing required field, an unknown one."""
    spec = EVENTS.get(event["name"])
    if spec is None:
        return [f"{event['name']!r} is not a registered event"]
    fields = set(event) - {"name", "ts"}
    out = [f"{event['name']}: missing {f!r}" for f in spec.required if f not in fields]
    if not spec.free_form:
        known = set(spec.required) | set(spec.optional) | set(AMBIENT)
        out.extend(f"{event['name']}: unknown field {f!r}" for f in sorted(fields - known))
    return out


def emit_sites():
    """``(where, names, literal fields, splats)`` for every ``.emit(`` call."""
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
            fields = {k.arg for k in node.keywords if k.arg is not None}
            splats = any(k.arg is None for k in node.keywords)
            yield f"{where}:{node.lineno}", names, fields, splats


class TestEmitSites:
    def test_every_site_names_a_registered_event_with_its_fields(self):
        problems = []
        for where, names, fields, splats in emit_sites():
            for name in names:
                spec = EVENTS.get(name)
                if spec is None:
                    problems.append(f"{where}: {name!r} is not registered")
                    continue
                if not splats:  # a ``**`` expansion may carry the rest
                    missing = set(spec.required) - fields
                    problems.extend(f"{where}: {name} misses {f!r}" for f in sorted(missing))
                if not spec.free_form:
                    known = set(spec.required) | set(spec.optional) | set(AMBIENT)
                    problems.extend(
                        f"{where}: {name} passes unknown {f!r}" for f in sorted(fields - known)
                    )
        assert not problems, "\n".join(problems)

    def test_every_dynamic_site_is_still_there(self):
        found = {names for _, names, _, _ in emit_sites() if len(names) > 1}
        assert found == set(DYNAMIC.values())

    def test_every_registered_name_has_an_emitter(self):
        emitted = {name for _, names, _, _ in emit_sites() for name in names}
        assert emitted == set(EVENTS)


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
        assert {"history.commit", "fault.crash", "span.start", "lock.grant"} <= names
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

    def test_the_witness_takes_the_vc_names_by_name(self):
        assert WitnessEngine(seal=True).route("vc.call") is None
        assert {"vc.register", "vc.advance", "vc.discard"} <= set(WitnessEngine._HANDLERS)

    def test_a_violation_names_the_problem(self):
        assert violations({"name": "txn.begin", "ts": 0.0, "txn": 1, "cls": "rw"}) == []
        assert violations({"name": "txn.begn", "ts": 0.0}) == ["'txn.begn' is not a registered event"]
        assert violations({"name": "txn.begin", "ts": 0.0, "txn": 1, "span": 2, "x": 3}) == [
            "txn.begin: missing 'cls'", "txn.begin: unknown field 'x'",
        ]


def test_the_docs_schema_table_is_the_registry_rendered():
    doc = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
    header = schema_table().splitlines()[0]
    start = doc.index(header)
    end = doc.index("\n\n", start)
    assert doc[start:end + 1] == schema_table()
