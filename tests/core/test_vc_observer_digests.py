"""Pinned observer streams of the two version-control modules.

Everything outside the modules learns of counter movement through
``subscribe``: the tracer bridge, the visibility waiter, the eager collector,
the distributed sites' parked read-only waits.  For seeds 0-2 the literals
below are sha256 over what an observer saw during 2 000 random steps —
``(event, number, tnc, vtnc)`` per notification of ``VersionControl`` plus
the final ``queue_snapshot()``; ``(vtnc,)`` per notification of
``DistributedVersionControl`` plus its final public state.  Completion order
is shuffled, at least one finish in ten is a discard and the queue swings
between near-empty and 50+ entries, so heads stick, discarded heads are
stepped across and idle fast-forwards happen.  Taken at ``f4af9d3``; a
rewrite of either module's internals must not move them.
"""

import hashlib
import random

import pytest

from repro.core.transaction import Transaction
from repro.core.version_control import VersionControl
from repro.distributed.dvc import DistributedVersionControl
from repro.distributed.gtn import counter_of, make_gtn

STEPS = 2_000

PINNED_VC = {
    0: "251b9f4155259922b470dd8b2aa4a38df993889c327c4e867fcf9b75236d216d",
    1: "491a01e96b2dce432a749b65dfa5092e275cd956d39af13dd724ae9ecf9c5f0e",
    2: "0e0e07049895de1ae0ce26cfe6eb6c71d39459a410ace8656ec85325c4b18ee2",
}

PINNED_DVC = {
    0: "895a7f0aade29f3ae1d61b079e2301c73ad6008944666ff1557ff3471f0211be",
    1: "c968466e7c2158d393b41cc9a622836581585e6b7d7a9e00f74b740b4bda234c",
    2: "8fe134ef3f381e3d79aaa9e5532d2a3b7d7db02c194698fe5569ca3040e345e2",
}


def _wants_more(rng: random.Random, step: int, depth: int) -> bool:
    """Drive the queue toward 60 entries, then toward empty, every 400 steps."""
    target = 60 if (step // 400) % 2 == 0 else 0
    return rng.random() < (0.8 if depth < target else 0.1)


def vc_stream(seed: int) -> tuple[str, int, int, int]:
    """Digest, peak queue depth, finishes and discards of one seeded run."""
    rng = random.Random(seed)
    vc = VersionControl()
    digest = hashlib.sha256()
    vc.subscribe(
        lambda event, number: digest.update(
            repr((event, number, vc.tnc, vc.vtnc)).encode()
        )
    )
    unfinished: list[Transaction] = []
    peak = finishes = discards = 0
    for step in range(STEPS):
        if not unfinished or _wants_more(rng, step, len(vc)):
            txn = Transaction(txn_id=step + 1)
            vc.vc_register(txn)
            unfinished.append(txn)
        else:
            txn = unfinished.pop(rng.randrange(len(unfinished)))
            finishes += 1
            if rng.random() < 0.15:
                discards += 1
                vc.vc_discard(txn)
            else:
                vc.vc_complete(txn)
        peak = max(peak, len(vc))
    digest.update(repr(vc.queue_snapshot()).encode())
    return digest.hexdigest(), peak, finishes, discards


def dvc_stream(seed: int) -> tuple[str, int, int, int, int]:
    """The same walk over hold/adopt/complete/discard/try_advance_to; the last
    count is the idle fast-forwards that moved ``vtnc``."""
    rng = random.Random(seed)
    vc = DistributedVersionControl(site_id=2)
    digest = hashlib.sha256()
    vc.subscribe(lambda vtnc: digest.update(repr((vtnc,)).encode()))
    held: list[int] = []  # holding a number, undecided
    adopted: list[int] = []  # decided, not yet complete
    decided: dict[int, int] = {}  # key -> the number its coordinator will decide
    keys: list[int] = []
    peak = finishes = discards = fast_forwards = 0
    for step in range(STEPS):
        if rng.random() < (0.05 if vc.queue_length() else 0.5):
            # Refused unless the site is idle; vc_start fast-forwards silently.
            before = vc.vtnc
            vc.try_advance_to(before + rng.randrange(1, 3_000))
            fast_forwards += vc.vtnc > before
            vc.vc_start()
        elif not (held or adopted) or _wants_more(rng, step, vc.queue_length()):
            key = step + 1
            keys.append(key)
            held.append(key)
            hold = vc.hold(key)
            if rng.random() < 0.5:
                # A coordinator elsewhere decided a larger number: the entry
                # moves toward the tail, past younger local holds.
                other_site = 3 + key % 1_000
                hold = make_gtn(counter_of(hold) + rng.randrange(0, 6), other_site)
            decided[key] = hold
        elif held and (not adopted or rng.random() < 0.5):
            key = held.pop(rng.randrange(len(held)))
            if rng.random() < 0.15:
                finishes += 1
                discards += 1
                vc.discard(key)
            else:
                vc.adopt(key, decided[key])
                adopted.append(key)
        else:
            key = adopted.pop(rng.randrange(len(adopted)))
            finishes += 1
            if rng.random() < 0.05:
                discards += 1
                vc.discard(key)
            else:
                vc.complete(key)
        peak = max(peak, vc.queue_length())
    final = (
        vc.vtnc,
        vc.next_local_number,
        vc.queue_length(),
        [key for key in keys if vc.is_registered(key)],
    )
    digest.update(repr(final).encode())
    return digest.hexdigest(), peak, finishes, discards, fast_forwards


@pytest.mark.parametrize("seed", sorted(PINNED_VC))
def test_version_control_observer_stream_is_pinned(seed):
    digest, peak, finishes, discards = vc_stream(seed)
    assert peak >= 50 and discards * 10 >= finishes  # the run is not vacuous
    assert digest == PINNED_VC[seed]


@pytest.mark.parametrize("seed", sorted(PINNED_DVC))
def test_distributed_version_control_observer_stream_is_pinned(seed):
    digest, peak, finishes, discards, fast_forwards = dvc_stream(seed)
    assert peak >= 50 and discards * 10 >= finishes and fast_forwards >= 5
    assert digest == PINNED_DVC[seed]


if __name__ == "__main__":
    for seed in sorted(PINNED_VC):
        print("vc", seed, *vc_stream(seed))
    for seed in sorted(PINNED_DVC):
        print("dvc", seed, *dvc_stream(seed))
