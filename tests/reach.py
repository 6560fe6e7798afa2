"""Which functions under ``src/repro`` run: the product paths against tier-1.

Run from the repository root::

    python -m tests.reach            # writes docs/reach.md

On a 2-core machine that is about 3.5 minutes: tier-1 and the product
commands run side by side, each about three times slower than bare.

It copies the working tree (no ``.git``) to a temporary directory and adds
a ``sitecustomize.py`` to the copy's ``src``.  Every interpreter started
with that ``src`` on its path -- the commands below, the tests, and every
subprocess either of them starts -- then records each function it enters
(``sys.setprofile``/``threading.setprofile``, ``call`` events only) and
writes the set when it exits.  Two sets are run:

* (i) the product paths, :data:`PRODUCT`: each command the CLI, the
  examples and the host-time benchmark offer a user;
* (ii) tier-1, ``python -m pytest -q`` with this module loaded as a
  plugin, run to the end (without ``-x`` one failure cannot shorten the
  table; it still fails the run).  The plugin re-arms the hook before
  each test (a test may install its own profiler) and tags what runs with
  the test's file, so a subprocess a test starts is charged to that file
  too.

The table, ``docs/reach.md``, lists every function that (i) does not run,
with its length, the test files that run it, and its verdict from
:data:`ALLOW`.  A function is keyed by its code object's identity while
recording (code objects compare by value: two ``return self`` methods on
the same line of different files are equal) and mapped to
``(file, co_firstlineno, co_name)`` on exit.

Exit status 1 when a product command or tier-1 fails, when a function
neither set runs is not allow-listed as ``abstract`` or ``debug``, or when
a function only one test file runs is not allow-listed.  Every run uses
``PYTHONHASHSEED=0`` and ``--hypothesis-seed=0``, so the table is a
deterministic function of the code: regenerate it and ``git diff``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
TABLE = ROOT / "docs" / "reach.md"

#: The tag of what the product commands run; any other tag is tier-1's.
PRODUCT_TAG = "product"
#: Tier-1's tag before its first test starts: collection and imports.
COLLECTION_TAG = "(collection)"

_DIR_ENV = "REPRO_REACH_DIR"
_TAG_ENV = "REPRO_REACH_TAG"

WORKLOADS = (
    "single_rw", "single_ro_scan", "single_hot_write", "dist_2pc",
    "replica_quorum", "shard_mixed", "single_observed", "single_certified",
)

#: Set (i), run from the copy's root in this order.  ``{q}`` is the
#: quickstart's trace, ``{t}`` the traced fault drill's.
PRODUCT: tuple[tuple[str, ...], ...] = (
    ("-m", "repro", "list"),
    ("-m", "repro", "demo"),
    ("-m", "repro", "selfcheck"),
    ("-m", "repro", "bench", "--quick", "--slo", "--baseline", "BENCH_baseline.json"),
    ("-m", "repro", "report"),
    ("-m", "repro", "drill", "--seeds", "2", "--slo", "--witness", "--trace", "{t}"),
    ("-m", "repro", "drill", "--campaign", "overload", "--seeds", "2"),
    ("-m", "repro", "drill", "--campaign", "replication", "--seeds", "2"),
    ("-m", "repro", "drill", "--campaign", "replication", "--seeds", "2",
     "--mode", "quorum"),
    ("-m", "repro", "drill", "--campaign", "memory", "--seeds", "2"),
    ("-m", "repro", "drill", "--campaign", "availability", "--seeds", "2",
     "--duration", "120"),
    ("-m", "repro", "drill", "--campaign", "shard", "--seeds", "2",
     "--duration", "120"),
    *(("examples/" + name,) for name in sorted(
        p.name for p in (ROOT / "examples").glob("*.py")
    )),
    ("-m", "repro", "trace", "{q}"),
    ("-m", "repro", "trace", "{q}", "--json"),
    ("-m", "repro", "watch", "{q}", "--witness"),
    ("-m", "repro", "explain", "{q}", "8"),
    ("-m", "repro", "explain", "{q}", "8", "--json"),
    ("-m", "repro", "watch", "{t}", "--profile", "faults", "--witness"),
    *(("-m", "benchmarks.perf", "--workload", w, "--seconds", "1", "--trace", "1")
      for w in WORKLOADS),
    ("-m", "benchmarks.perf", "--selftest"),
)

TIER1 = ("-m", "pytest", "-q", "-p", "tests.reach", "--hypothesis-seed=0")

#: The closed set of allow-list categories.
CATEGORIES = {
    "abstract": "a base hook that every subclass overrides",
    "debug": "`__repr__`",
    "failure": "runs only when a check fails or input is bad",
    "oracle": "a reference that tests compare against",
    "shim": "a `benchmarks/perf/shims.py` target",
    "api": "a documented entry point with its own tests (the reason names the doc)",
    "paper": "the vocabulary of the paper's Section 3",
}


def _allow(category: str, reason: str, *idents: str) -> dict[str, tuple[str, str]]:
    return {ident: (category, reason) for ident in idents}


#: ``path::qualname`` (path under ``src/repro``) -> (category, reason).
#: A function (i) does not run needs an entry when tier-1 runs it from one
#: test file only, or when nothing runs it (then ``abstract`` or ``debug``).
ALLOW: dict[str, tuple[str, str]] = {
    **_allow("abstract", "every protocol overrides it",
             *(f"core/interface.py::Scheduler.{name}"
               for name in ("_on_begin", "read", "write", "commit", "abort"))),
    **_allow("abstract", "every VC protocol overrides it",
             *(f"core/vc_scheduler.py::VersionControlledScheduler._rw_{name}"
               for name in ("begin", "read", "write", "commit", "abort"))),
    **_allow("abstract", "both site types override it",
             "distributed/base.py::SiteBase._complete",
             "distributed/base.py::SiteBase._restart_numbering",
             "distributed/base.py::SiteBase.recovery_frontier"),
    **_allow("abstract", "both distributed databases override it",
             *(f"distributed/base.py::Distributed2PLDatabase.{name}"
               for name in ("_build_site", "_ro_read", "_commit_rw"))),
    **_allow("abstract", "both objective kinds override it",
             *(f"obs/slo/objectives.py::Objective.{name}"
               for name in ("observe", "close_window", "threshold_text"))),
    **_allow("debug", "`__repr__`", *(f"{owner}.__repr__" for owner in (
        "cc/lock_manager.py::_Request", "core/futures.py::OpFuture",
        "core/interface.py::Scheduler", "core/transaction.py::Transaction",
        "core/version_control.py::_QueueEntry", "core/version_control.py::VersionControl",
        "distributed/courier.py::_Message", "distributed/dvc.py::_Entry",
        "obs/metrics.py::Counter", "obs/metrics.py::Gauge",
        "obs/spans.py::SpanContext", "obs/spans.py::SpanNode",
        "replica/cluster.py::ReplicaCluster", "replica/node.py::Replica",
        "shard/ring.py::HashRing", "sim/engine.py::Process",
        "storage/version.py::Version", "storage/versioned_object.py::VersionedObject",
    ))),
    **_allow("failure", "the `--slo` gate's text for a witness block that failed",
             "bench/artifact.py::_uncertified"),
    **_allow("failure", "raised on a malformed WAL record", "errors.py::CorruptLogError.__init__"),
    **_allow("failure", "raised under the `reject` staleness policy",
             "errors.py::ReplicaLagging.__init__"),
    **_allow("failure", "printed under a seed that failed", "faults/drill.py::replay_command"),
    **_allow("failure", "raised on a history that is not 1SR",
             "histories/checker.py::NotSerializable.__init__"),
    **_allow("failure", "refuses to mutate the shared disabled tracer",
             "obs/tracer.py::NullTracer.add_exporter"),
    **_allow("failure", "a 1SR violation's flight-recorder bundle",
             "obs/witness/engine.py::WitnessBreach.__init__",
             "obs/witness/engine.py::WitnessBreach.as_dict"),
    **_allow("failure", "a read-only replica refuses writes", "replica/node.py::Replica.write"),
    **_allow("failure", "the message of a lease error",
             "storage/gc.py::ReadOnlyRegistry.snapshot_counts"),
    **_allow("oracle", "the brute-force 1SR reference",
             *(f"histories/enumeration.py::{name}" for name in (
                 "_serial_reads_from", "brute_force_one_copy_serializable",
                 "exists_acyclic_version_order", "exists_acyclic_version_order.search",
                 "witness_serial_orders")),
             "histories/operations.py::History.operations_of"),
    **_allow("oracle", "the plain graph `FanGraph` is checked against",
             *(f"histories/graphs.py::Digraph.{name}"
               for name in ("successors", "__contains__", "__len__"))),
    **_allow("oracle", "the parity bridge from a `History` to the witness",
             "obs/witness/engine.py::witness_history",
             "obs/witness/engine.py::witness_history.send"),
    **_allow("oracle", "the Pearce-Kelly numbering and its invariant audit",
             "obs/witness/topology.py::IncrementalTopology.order",
             "obs/witness/topology.py::IncrementalTopology.check"),
    **_allow("shim", "the `storage.read` layer's wrap target",
             "storage/mvstore.py::MVStore.version_leq"),
    **_allow("shim", "the `distributed.dvc` layer's wrap target",
             "distributed/dvc.py::DistributedVersionControl.discard"),
    **_allow("shim", "the `cc.lock` layer's wrap target",
             "cc/lock_manager.py::LockTable.cancel_request"),
    **_allow("api", "`bench --protocols`, docs/benchmarks.md", "bench/artifact.py::_protocol_list"),
    **_allow("api", "the session API, docs/api.md", *(f"core/session.py::{name}" for name in (
        "TransactionContext.read_many", "TransactionContext.abort", "Database.run",
        "Database._spend_retry", "Database._backoff", "Database.check_serializable"))),
    **_allow("api", "Section 6 remedy 2, docs/api.md",
             "core/snapshot.py::SnapshotManager.begin_current_reader"),
    **_allow("api", "manual mode and its partitions, docs/faults.md",
             "faults/courier.py::FaultyCourier.parked",
             "faults/courier.py::FaultyCourier._dispatch_manual"),
    **_allow("api", "docs/faults.md", "faults/drill.py::run_campaign",
             "faults/invariants.py::FaultInvariantChecker.ok",
             "faults/invariants.py::FaultInvariantChecker.assert_ok"),
    **_allow("api", "docs/api.md", "histories/recorder.py::HistoryRecorder.full_history",
             "shard/ring.py::HashRing.moved_fraction"),
    **_allow("api", "a context manager, docs/observability.md",
             *(f"{owner}.{method}"
               for owner in ("obs/exporters.py::JsonlExporter",
                             "obs/instrument.py::Instrumentation")
               for method in ("__enter__", "__exit__"))),
    **_allow("api", "a context manager, docs/api.md",
             "obs/pipeline.py::ObsPipeline.__enter__", "obs/pipeline.py::ObsPipeline.__exit__"),
    **_allow("api", "the span tree, docs/observability.md", "obs/spans.py::SpanNode.walk"),
    **_allow("api", "`scan()` of a read-only transaction, docs/api.md",
             "protocols/vc_granular.py::VCGranular2PLScheduler.snapshot_scan"),
    **_allow("api", "the per-site breakers, docs/robustness.md",
             *(f"qos/breaker.py::BreakerBoard.{name}" for name in (
                 "__init__", "tracer", "bind_clock", "for_site", "allow", "record_success",
                 "record_failure", "states"))),
    **_allow("api", "a campaign report's `as_dict` field (`DERIVED`), docs/faults.md",
             *(f"qos/memory.py::MemoryReport.{name}"
               for name in ("revocations", "revoked_by_cause", "gc_scan_per_reclaimed")),
             "replica/availability.py::CrashPointResult.as_dict",
             "replica/campaign.py::ReplicationReport.staleness_max"),
    **_allow("api", "retry budgets, docs/robustness.md",
             "qos/retry.py::RetryBudget.tokens", "qos/retry.py::RetryBudget.record_success"),
    **_allow("api", "the scheduler interface, docs/api.md", "replica/node.py::Replica.abort"),
    **_allow("api", "the torn-write fault, docs/faults.md",
             "replica/ship.py::ShippedLog.partial_force"),
    **_allow("api", "the snapshot-lease table, docs/gc.md",
             "storage/gc.py::ReadOnlyRegistry.check", "storage/gc.py::ReadOnlyRegistry.renew"),
    **_allow("api", "workloads, docs/api.md", "workload/spec.py::TxnSpec.reads",
             "workload/spec.py::TxnSpec.writes",
             "workload/spec.py::WorkloadGenerator.transactions"),
    **_allow("paper", "the notation r/w/c/a of Section 3",
             *(f"histories/operations.py::{name}"
               for name in ("read", "write", "commit", "abort"))),
    **_allow("paper", "the history model of Section 3",
             *(f"histories/operations.py::History.{name}"
               for name in ("aborted", "keys", "writers_of", "validate"))),
    **_allow("paper", "Section 3.2: 1SR iff MVSG(H) is acyclic",
             "histories/mvsg.py::is_one_copy_serializable"),
    **_allow("paper", "Section 3.2: a serial order from MVSG(H)",
             "histories/mvsg.py::one_copy_serial_order"),
    **_allow("paper", "recoverability, Section 3",
             "histories/recoverability.py::check_read_strictness"),
    **_allow("paper", "SG(H), Section 3", "histories/serialization_graph.py::serialization_graph"),
    **_allow("paper", "conflict serializability, Section 3",
             "histories/serialization_graph.py::is_conflict_serializable"),
}


# -- the function inventory ----------------------------------------------------


@dataclass(frozen=True)
class Function:
    path: str  # under src/repro, "/"-separated
    qualname: str
    name: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    last: int

    @property
    def ident(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.path, self.first, self.name)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def functions() -> list[Function]:
    """Every ``def`` under ``src/repro``, nested ones included, in file order."""
    found: list[Function] = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(path, qualname, child.name, first, child.end_lineno))
                walk(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        walk(ast.parse(file.read_text(encoding="utf-8"), str(file)), path, "")
    return found


# -- recording -----------------------------------------------------------------

#: Installed as ``sitecustomize`` in the copy's ``src``: inert unless the
#: output directory is set in the environment.
HOOK = '''\
import atexit, json, os, sys, tempfile, threading

_DIR = os.environ.get("%(dir)s")
if _DIR:
    _SRC = os.path.join(os.path.dirname(__file__), "repro", "")
    _seen = {}
    _current = {}

    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _current[id(code)] = code

    def rearm(tag):
        """Record into ``tag`` from now on, and in subprocesses started now."""
        global _current
        os.environ["%(tag)s"] = tag
        _current = _seen.setdefault(tag, {})
        sys.setprofile(_hook)
        threading.setprofile(_hook)

    def _dump():
        sys.setprofile(None)
        out = {
            tag: sorted({
                (c.co_filename[len(_SRC):], c.co_firstlineno, c.co_name)
                for c in codes.values() if c.co_filename.startswith(_SRC)
            })
            for tag, codes in _seen.items()
        }
        fd, _ = tempfile.mkstemp(suffix=".json", dir=_DIR)
        with os.fdopen(fd, "w") as stream:
            json.dump(out, stream)

    atexit.register(_dump)
    rearm(os.environ.get("%(tag)s", "?"))
''' % {"dir": _DIR_ENV, "tag": _TAG_ENV}


def pytest_runtest_logstart(nodeid, location):
    """Plugin hook: re-arm the recorder, tagged with the test's file."""
    hook = sys.modules.get("sitecustomize")
    if hook is not None and hasattr(hook, "rearm"):
        hook.rearm(nodeid.split("::", 1)[0])


def _copy_tree(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    (dest / "src" / "sitecustomize.py").write_text(HOOK, encoding="utf-8")


def _env(copy: Path, out: Path, tag: str) -> dict[str, str]:
    return dict(
        os.environ,
        PYTHONPATH=str(copy / "src"),
        PYTHONHASHSEED="0",
        **{_DIR_ENV: str(out), _TAG_ENV: tag},
    )


def record(copy: Path, out: Path) -> tuple[list[str], bool]:
    """Run both sets in ``copy``; return the failed product commands and
    whether tier-1 passed.  The reached sets land in ``out``."""
    traces = copy / "reach-traces"
    traces.mkdir()
    paths = {"q": str(traces / "quickstart.jsonl"), "t": str(traces / "drill.jsonl")}
    failed = []
    env = _env(copy, out, PRODUCT_TAG)
    env["REPRO_TRACE"] = paths["q"]  # what the quickstart writes its trace to
    with open(traces / "tier1.log", "w+", encoding="utf-8") as log:
        tier1 = subprocess.Popen(
            [sys.executable, *TIER1], cwd=copy, env=_env(copy, out, COLLECTION_TAG),
            stdout=log, stderr=subprocess.STDOUT, text=True,
        )
        for argv in PRODUCT:
            argv = [arg.format(**paths) for arg in argv]
            done = subprocess.run(
                [sys.executable, *argv], cwd=copy, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                failed.append(f"{' '.join(argv)} (exit {done.returncode}): "
                              f"{done.stderr.strip()[-500:]}")
        if tier1.wait() != 0:
            log.seek(0)
            print(log.read()[-4000:], file=sys.stderr)
    return failed, tier1.returncode == 0


def collect(out: Path) -> tuple[set, dict[tuple[str, int, str], set[str]]]:
    """Union the per-process dumps: product keys, and key -> tier-1 tags."""
    product: set = set()
    tier1: dict[tuple[str, int, str], set[str]] = {}
    for dump in sorted(out.glob("*.json")):
        for tag, keys in json.loads(dump.read_text()).items():
            for path, line, name in keys:
                key = (path.replace(os.sep, "/"), line, name)
                if tag == PRODUCT_TAG:
                    product.add(key)
                else:
                    tier1.setdefault(key, set()).add(tag)
    return product, tier1


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    function: Function
    files: tuple[str, ...]  # tier-1 tags that ran it, sorted
    verdict: tuple[str, str] | None  # (category, reason) from ALLOW

    @property
    def problem(self) -> str | None:
        """Why the table is not closed on this row, or None."""
        category = None if self.verdict is None else self.verdict[0]
        if not self.files and category not in ("abstract", "debug"):
            return "run by neither set; delete it, or allow-list it as abstract or debug"
        if len(self.files) == 1 and self.verdict is None:
            return f"run only from {self.files[0]}; delete it with its test, or allow-list it"
        return None


def rows(inventory: list[Function], product: set, tier1: dict) -> list[Row]:
    return [
        Row(f, tuple(sorted(tier1.get(f.key, ()))), ALLOW.get(f.ident))
        for f in inventory
        if f.key not in product
    ]


def _files_cell(files: tuple[str, ...]) -> str:
    if not files:
        return ""
    shown = ", ".join(f"`{name}`" for name in files[:3])
    return shown + (f" (+{len(files) - 3})" if len(files) > 3 else "")


def render(inventory: list[Function], product: set, tier1: dict) -> str:
    table = rows(inventory, product, tier1)
    neither = [r for r in table if not r.files]
    only = [r for r in table if r.files]
    one_file = [r for r in only if len(r.files) == 1]

    def count(selection: list) -> str:
        return f"{len(selection)} ({sum(r.function.lines for r in selection)} lines)"

    out = [
        "# Function reach",
        "",
        "Generated by `python -m tests.reach` (see its docstring); do not edit.",
        "Every `def` under `src/repro` is run under two command sets, and the",
        "table lists each one the product paths do not run.",
        "",
        "- **(i) product paths**, from the repository root with `PYTHONPATH=src`:",
        *(f"  - `python {' '.join(argv)}`".replace("{q}", "Q").replace("{t}", "T")
          for argv in PRODUCT),
        "",
        "  `Q` is the trace `examples/quickstart.py` writes (`REPRO_TRACE=Q`),",
        "  `T` the traced fault drill's.",
        "- **(ii) tier-1**: `python -m pytest -q`, with the hook re-armed and",
        "  re-tagged before each test.  Subprocesses count for whoever started them.",
        "",
        "Both run under `PYTHONHASHSEED=0`; tier-1 under `--hypothesis-seed=0`.",
        "",
        "A verdict is an allow-list category from `tests/reach.py::ALLOW`:",
        "",
        *(f"- `{name}`: {text}." for name, text in CATEGORIES.items()),
        "",
        "The rule: a function neither set runs is deleted unless it is `abstract`",
        "or `debug`; one that only a single test file runs is deleted with that",
        "test or allow-listed.",
        "",
        f"**Counts.** {len(inventory)} functions; the product paths run "
        f"{len(inventory) - len(table)}; tier-1 runs "
        f"{sum(1 for f in inventory if f.key in tier1)}.  "
        f"Run by neither: {count(neither)}.  Run only by tier-1: {count(only)}, "
        f"{len(one_file)} of them from one test file.",
        "",
        "| function | lines | tier-1 | test files | verdict |",
        "|---|---:|---|---|---|",
    ]
    for row in table:
        verdict = "" if row.verdict is None else f"{row.verdict[0]}: {row.verdict[1]}"
        if row.problem:
            verdict = f"**open**: {row.problem}"
        out.append(
            f"| `{row.function.ident}` | {row.function.lines} | "
            f"{len(row.files) or 'no'} | {_files_cell(row.files)} | {verdict} |"
        )
    return "\n".join(out) + "\n"


def main() -> int:
    inventory = functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        copy, out = Path(tmp) / "tree", Path(tmp) / "out"
        out.mkdir()
        _copy_tree(copy)
        failed, tier1_ok = record(copy, out)
        product, tier1 = collect(out)
    TABLE.write_text(render(inventory, product, tier1), encoding="utf-8")
    problems = [
        f"{row.function.ident}: {row.problem}"
        for row in rows(inventory, product, tier1)
        if row.problem
    ]
    for line in failed:
        print(f"product command failed: {line}", file=sys.stderr)
    if not tier1_ok:
        print("tier-1 failed under the recorder", file=sys.stderr)
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if failed or not tier1_ok or problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
