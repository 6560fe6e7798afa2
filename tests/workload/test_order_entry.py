"""End-to-end integrity tests: the order-entry scenario across protocols.

The scenario's invariants (stock conservation and balanced books) couple
many objects, so any consistency defect in a protocol shows up as a
violation in some audit.  Every protocol must keep every audit clean and
every history one-copy serializable.
"""

import pytest

from repro.histories import assert_one_copy_serializable
from repro.protocols.registry import PROTOCOLS, make_scheduler
from repro.workload.order_entry import (
    OrderEntryConfig,
    OrderEntryOutcome,
    run_order_entry,
    seed_database,
)

FAST = OrderEntryConfig(duration=200.0, n_items=10, n_clerks=5, n_auditors=2)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_invariants_hold_under_every_protocol(name):
    scheduler = make_scheduler(name)
    outcome = run_order_entry(scheduler, FAST)
    assert outcome.orders_placed > 10, f"{name}: workload barely ran"
    # Single-version TO restarts long audits aggressively; a couple of
    # completed audits still gives the invariants plenty of bite.
    assert outcome.audits >= 2, f"{name}: audits barely ran ({outcome})"
    assert (outcome.conservation_violations, outcome.books_violations) == (0, 0), name
    assert_one_copy_serializable(scheduler.history)


def test_vc_auditors_never_restart():
    scheduler = make_scheduler("vc-2pl")
    outcome = run_order_entry(scheduler, FAST)
    assert outcome.audit_restarts == 0
    assert scheduler.counters.get("cc.ro") == 0


def test_sv_to_auditors_restart():
    """The single-version contrast: auditors get timestamp-rejected."""
    config = OrderEntryConfig(
        duration=300.0, n_items=6, n_clerks=8, n_auditors=3, seed=4
    )
    scheduler = make_scheduler("sv-to")
    outcome = run_order_entry(scheduler, config)
    assert outcome.audit_restarts > 0
    # Restarted audits must still never see torn state.
    assert (outcome.conservation_violations, outcome.books_violations) == (0, 0)


def test_rejected_orders_leave_no_trace():
    config = OrderEntryConfig(
        duration=200.0, n_items=4, initial_stock=3, n_clerks=6, n_auditors=1
    )
    scheduler = make_scheduler("vc-to")
    outcome = run_order_entry(scheduler, config)
    assert outcome.orders_rejected > 0, "tiny stock forces rejections"
    assert (outcome.conservation_violations, outcome.books_violations) == (0, 0)


def test_seed_database_is_one_transaction():
    scheduler = make_scheduler("vc-2pl")
    seed_database(scheduler, OrderEntryConfig(n_items=3))
    assert scheduler.vc.vtnc == 1
    reader = scheduler.begin(read_only=True)
    assert scheduler.read(reader, "stock:0").result() == 1000
    assert scheduler.read(reader, "orders").result() == 0


#: ``run_order_entry(make_scheduler(name), OrderEntryConfig())``, field by
#: field: the same under any ``PYTHONHASHSEED`` and on a repeat in-process.
PINNED_OUTCOMES = {
    "vc-2pl": OrderEntryOutcome(
        orders_placed=467, orders_rejected=0, order_retries=98, audits=26,
        audit_restarts=0, conservation_violations=0, books_violations=0,
    ),
    "sv-2pl": OrderEntryOutcome(
        orders_placed=388, orders_rejected=0, order_retries=125, audits=7,
        audit_restarts=20, conservation_violations=0, books_violations=0,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTCOMES))
def test_default_outcome_is_pinned(name):
    outcome = run_order_entry(make_scheduler(name), OrderEntryConfig())
    assert outcome == PINNED_OUTCOMES[name]


def test_deterministic_outcomes():
    def once():
        scheduler = make_scheduler("vc-occ")
        return run_order_entry(scheduler, FAST)

    assert once() == once()
