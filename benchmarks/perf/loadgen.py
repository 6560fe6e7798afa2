"""Seeded load generator: every transaction script is made in set-up.

The program under test sees only the generated inputs.  One independent
``random.Random`` per client, derived from ``(seed, workload.inputs, client)``, so
the same seed gives the same scripts whatever else changes, and a client's
draws do not shift when another client is added.

Think and service delays are exponential (means 2.0 and 1.0 virtual-time
units), which keeps simulated latencies continuous: percentiles move
smoothly instead of hopping between integer op counts.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import Callable, NamedTuple

from .spec import Workload

THINK_MEAN = 2.0
SERVICE_MEAN = 1.0
#: Scripts are sized for this multiple of the transactions a client is
#: expected to finish; a client that runs dry fails the run's checks.
SCRIPT_MARGIN = 1.6


class TxnScript(NamedTuple):
    think: float  # delay before the transaction (and between restarts)
    read_only: bool
    ops: tuple[tuple[str, str, float], ...]  # (kind "r"/"w", key, service delay)


def _rng(seed: int, workload: str, client: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{workload}:{client}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _Keys:
    """Zipf(theta) draws over ``o0..o{n-1}`` (theta 0 = uniform)."""

    def __init__(self, n: int, theta: float):
        weights = [1.0 / (i + 1) ** theta for i in range(n)]
        total = sum(weights)
        acc = 0.0
        self._cdf = []
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0
        self.names = [f"o{i}" for i in range(n)]

    def distinct(self, rng: random.Random, count: int, allowed=None) -> list[str]:
        """Up to ``count`` distinct keys (one read and one write per object
        per transaction at most, as in the paper's model)."""
        chosen: list[str] = []
        seen: set[str] = set()
        for _ in range(count * 20):
            if len(chosen) == count:
                break
            key = self.names[bisect_left(self._cdf, rng.random())]
            if key not in seen and (allowed is None or allowed(key)):
                seen.add(key)
                chosen.append(key)
        return chosen


def _ops(rng: random.Random, kinds_keys) -> tuple[tuple[str, str, float], ...]:
    return tuple((kind, key, rng.expovariate(1.0 / SERVICE_MEAN)) for kind, key in kinds_keys)


def _rw_kinds(rng: random.Random, keys: list[str], write_fraction: float):
    wrote = False
    out = []
    for i, key in enumerate(keys):
        last = i == len(keys) - 1
        write = rng.random() < write_fraction or (last and not wrote)
        wrote = wrote or write
        out.append(("w" if write else "r", key))
    return out


def generate(
    workload: Workload,
    seed: int,
    vt_span: float,
    shard_of: Callable[[str], int] | None = None,
) -> tuple[list[list[TxnScript]], list[list[TxnScript]]]:
    """Scripts for ``(clients, readers)`` covering ``vt_span`` virtual time.

    ``shard_of`` (shard topology) lets the generator build single-shard and
    cross-shard transactions deliberately instead of by accident of hashing.
    """
    keys = _Keys(workload.n_objects, workload.zipf_theta)
    if shard_of is not None:
        shard_of = {key: shard_of(key) for key in keys.names}.__getitem__

    def count_for(mean_ops: float) -> int:
        return int(vt_span / (THINK_MEAN + mean_ops * SERVICE_MEAN) * SCRIPT_MARGIN) + 8

    mean_ro = sum(workload.ro_ops) / 2
    mean_rw = sum(workload.rw_ops) / 2

    def ro_txn(rng: random.Random) -> TxnScript:
        think = rng.expovariate(1.0 / THINK_MEAN)
        chosen = keys.distinct(rng, rng.randint(*workload.ro_ops))
        return TxnScript(think, True, _ops(rng, [("r", k) for k in chosen]))

    def rw_txn(rng: random.Random) -> TxnScript:
        think = rng.expovariate(1.0 / THINK_MEAN)
        length = rng.randint(*workload.rw_ops)
        if shard_of is not None:
            cross = rng.random() < workload.cross_fraction
            first = keys.distinct(rng, 1)[0]
            home = shard_of(first)
            if cross:
                # Guarantee a second shard, then fill freely.
                other = keys.distinct(rng, 1, lambda k: shard_of(k) != home)
                rest = keys.distinct(
                    rng, max(length - 2, 0), lambda k: k not in (first, *other)
                )
                chosen = [first, *other, *rest]
            else:
                rest = keys.distinct(
                    rng, length - 1, lambda k: k != first and shard_of(k) == home
                )
                chosen = [first, *rest]
        else:
            chosen = keys.distinct(rng, length)
        return TxnScript(think, False, _ops(rng, _rw_kinds(rng, chosen, workload.write_fraction)))

    clients = []
    mean_mixed = workload.ro_fraction * mean_ro + (1 - workload.ro_fraction) * mean_rw
    for c in range(workload.clients):
        rng = _rng(seed, workload.inputs, f"client-{c}")
        clients.append([
            ro_txn(rng) if rng.random() < workload.ro_fraction else rw_txn(rng)
            for _ in range(count_for(mean_mixed))
        ])
    readers = []
    for r in range(workload.readers):
        rng = _rng(seed, workload.inputs, f"reader-{r}")
        readers.append([ro_txn(rng) for _ in range(count_for(mean_ro))])
    return clients, readers
