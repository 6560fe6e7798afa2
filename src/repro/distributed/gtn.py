"""Global transaction numbers for the distributed extension.

Each site generates numbers from its own counter, yet numbers must be
globally unique and totally ordered (paper Section 6: "only one transaction
number for every read-write transaction").  We encode a (counter, site)
pair into a single integer, ``counter * SITE_SPACE + site_id``, preserving
counter-major order.  Integers keep the whole centralized machinery — the
multiversion store, the history model, the MVSG checker — working unchanged
on distributed runs.
"""

from __future__ import annotations

#: Number of distinguishable sites; site ids are 1..SITE_SPACE-1.
SITE_SPACE = 1024


def make_gtn(counter: int, site_id: int) -> int:
    """Encode a (counter, site) pair as a global transaction number."""
    if not 1 <= site_id < SITE_SPACE:
        raise ValueError(f"site_id must be in [1, {SITE_SPACE - 1}]")
    if counter < 1:
        raise ValueError("counter must be >= 1")
    return counter * SITE_SPACE + site_id


def counter_of(gtn: int) -> int:
    """The counter component of a global transaction number."""
    return gtn // SITE_SPACE


def site_of(gtn: int) -> int:
    """The originating site of a global transaction number."""
    return gtn % SITE_SPACE


def max_counter(gtns) -> int:
    """Largest counter component over ``gtns`` (0 when empty).

    Crash recovery uses this to restart a site's counter above every number
    durably recorded anywhere, so a restarted site can never re-issue a
    transaction number already attached to installed versions.
    """
    best = 0
    for gtn in gtns:
        counter = gtn // SITE_SPACE
        if counter > best:
            best = counter
    return best
