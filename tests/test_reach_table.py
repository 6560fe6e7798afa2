"""What keeps the reach table honest between regenerations (under 1 s).

``python -m tests.reach`` re-runs the product paths and tier-1 to rebuild
``docs/reach.md``; that takes minutes, so it runs nightly.  These checks
need no run:

* every name in every ``__all__`` under ``src/repro`` resolves, so a
  deleted class cannot linger as an export;
* every allow-list entry names a function that exists, under a category
  from the closed set;
* every ``benchmarks/perf/shims.py`` target is run by the product paths
  (the table does not list it) or is allow-listed as ``shim``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro
from benchmarks.perf.shims import TARGETS, resolve
from tests.reach import ALLOW, CATEGORIES, SRC, TABLE, functions


def test_every_all_name_resolves():
    checked, missing = 0, []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"{info.name}.{name}")
    assert checked > 200
    assert missing == []


def test_allow_list_names_functions_under_closed_categories():
    idents = {f.ident for f in functions()}
    assert sorted(ident for ident in ALLOW if ident not in idents) == []
    assert sorted({category for category, _ in ALLOW.values()} - set(CATEGORIES)) == []


def test_every_shim_target_is_run_or_allow_listed():
    verdicts = dict(
        re.findall(r"^\| `([^`]+)` \|.*\| ([^|]*) \|$", TABLE.read_text(), re.M)
    )
    by_key = {f.key: f.ident for f in functions()}
    unreached = []
    for _group, dotted, _txn_at, _hook in TARGETS:
        owner, name = resolve(dotted)
        code = inspect.unwrap(getattr(owner, name)).__code__
        path = Path(code.co_filename).resolve().relative_to(SRC).as_posix()
        ident = by_key[(path, code.co_firstlineno, code.co_name)]
        if ident in verdicts and not verdicts[ident].startswith("shim:"):
            unreached.append(ident)
    assert unreached == []
