"""The MVSG edge-derivation rule of Section 3.2, in its two forms.

The paper derives the multiversion serialization graph from reads-from pairs
and a per-object version order:

    for each reads-from pair (Tj reads x from Ti) and each other writer Tk
    of x (k distinct from i and j):
        if Ti <<_x Tk:  add  Tj -> Tk      (an anti-dependency, ``rw``)
        if Tk <<_x Ti:  add  Tk -> Ti      (a write-order edge, ``ww``)

plus the SG reads-from edges Ti -> Tj themselves (``wr``).  Divergent
reimplementations of a correctness oracle are how checkers silently rot, so
the rule lives here and nowhere else, once per shape of caller:

* **Per pair** -- :func:`sg_edge` and :func:`version_order_edges`.  One
  reads-from pair against some candidate writers, one stored edge per rule
  edge.  The online witness (:mod:`repro.obs.witness`) applies it as commits
  stream in: to the writers known so far, and again for each writer that
  arrives later.
* **Per object, compact** -- :func:`fan_version_order_edges`.  A version
  order is a chain ``w_0 << ... << w_m``, so "every writer after ``w_p``" and
  "every writer before ``w_p``" are a suffix and a prefix of one list and
  take one edge each through a chain of junctions, not one edge per member.
  The offline builder (:func:`repro.histories.mvsg.multiversion_serialization_graph`)
  stores that: O(reads + writes) edges where the per-pair form over a
  complete history stores O(reads x writers).

What pins the two together is an edge-set property, not shared code: for
random histories (finish order shuffled against ids, aborted writers, blind
and own-version reads, arbitrary version orders) the compact graph with its
junctions expanded has exactly the edges of the per-pair form run over every
pair and every writer (``tests/histories/test_serializability.py``, which
keeps that nested loop as its reference).

Edges are yielded as ``(src, dst, kind)`` with ``kind`` in ``{"wr", "rw",
"ww"}`` -- the offline graph ignores the tag; the witness keeps it for
``explain`` forensics.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.histories.graphs import Fan

#: Edge-kind tags (Adya-style nomenclature).
WR = "wr"  # reads-from: writer -> reader
RW = "rw"  # anti-dependency: reader -> later writer of the same object
WW = "ww"  # version order: earlier writer -> the read version's writer


def sg_edge(reader: int, writer: int, committed: Iterable[int]) -> tuple[int, int, str] | None:
    """The SG reads-from edge for one pair, or None when it contributes nothing.

    In a multiversion history the only direct conflicts are reads-from
    (``w_i[x_i]`` precedes ``r_j[x_i]``); writes on distinct versions do not
    conflict.  A pair whose writer is uncommitted (aborted or in-flight)
    contributes no edge — that is exactly the committed projection.  The
    notional initial transaction 0 counts as committed.
    """
    if writer != reader and (writer in committed or writer == 0):
        return writer, reader, WR
    return None


def version_order_edges(
    reader: int,
    writer: int,
    others: Iterable[int],
    precedes: Callable[[int, int], bool],
) -> Iterator[tuple[int, int, str]]:
    """Version-order edges for one reads-from pair against candidate writers.

    ``others`` are writers of the same object (in any iteration order);
    ``precedes(a, b)`` is the version order ``a <<_x b``.  Writers equal to
    the pair's reader or writer are skipped per the rule's "k distinct from
    i and j" side condition — the caller never needs to pre-filter.
    """
    for other in others:
        if other == writer or other == reader:
            continue
        if precedes(writer, other):
            yield reader, other, RW  # Tj -> Tk
        else:
            yield other, writer, WW  # Tk -> Ti


def fan_version_order_edges(
    obj: int,
    order: Sequence[int],
    readers_of: Mapping[int, Sequence[int]],
) -> Iterator[tuple[Hashable, Hashable, str]]:
    """Every version-order edge of one object, stored through fan chains.

    ``order`` is the object's version order ``w_0 .. w_m`` (each writer
    once); ``readers_of[w]`` lists who read the version ``w`` wrote (repeats
    allowed; a ``w`` absent from ``order`` derives nothing, as in the
    per-pair form); ``obj`` is an int no other object shares -- it names
    this object's junctions.

    Two chains of :class:`~repro.histories.graphs.Fan` junctions stand for the
    suffixes and prefixes of ``order``:

    * ``After(p) -> w_p`` and ``After(p) -> After(p+1)``, so an edge *into*
      ``After(p)`` reaches exactly ``w_p .. w_m``;
    * ``w_p -> Before(p)`` and ``Before(p) -> Before(p+1)``, so an edge *out
      of* ``Before(p)`` is reached from exactly ``w_0 .. w_p``.

    For a pair "``Tj`` read ``w_p``":

    * ``rw`` (``Tj -> w_q`` for every ``q > p`` with ``w_q`` not ``Tj``): one
      edge ``Tj -> After(p+1)``.  If ``Tj`` is itself a later writer ``w_q``
      the suffix is split around it: direct edges to ``w_(p+1) .. w_(q-1)``
      and ``Tj -> After(q+1)``.
    * ``ww`` (``w_q -> w_p`` for every ``q < p`` that some reader of ``w_p``
      is distinct from): one edge ``Before(p-1) -> w_p`` per version read.
      Two distinct readers between them exclude nobody; a sole reader
      excludes itself, so if it is an earlier writer ``w_q`` the prefix is
      split around it: ``Before(q-1) -> w_p`` and direct edges from
      ``w_(q+1) .. w_(p-1)``.

    Exactness: both chains only ascend, no edge joins one chain to the other
    and junctions carry no other edges, so a path *transaction, junctions,
    transaction* exists exactly where the rule has an edge -- reachability,
    acyclicity, every cycle and every topological order (junctions passed
    through as soon as ready) are those of the per-pair graph.  Junctions
    are made only over the positions some pair reaches, so a writer nobody's
    read concerns touches no edge, again as in the per-pair form.
    """
    position = {writer: p for p, writer in enumerate(order)}
    end = len(order)
    after_from = end  # After(p) is needed for after_from <= p < end
    before_to = -1  # Before(p) is needed for 0 <= p <= before_to
    for writer, readers in readers_of.items():
        p = position.get(writer)
        if p is None:
            continue
        for reader in readers:
            q = position.get(reader, p)
            suffix = p + 1
            if q > p:
                for between in range(p + 1, q):
                    yield reader, order[between], RW
                suffix = q + 1
            if suffix < end:
                yield reader, Fan((obj, suffix)), RW
                if suffix < after_from:
                    after_from = suffix
        prefix = p - 1
        q = position.get(readers[0], p)
        if q < p and readers.count(readers[0]) == len(readers):
            for between in range(q + 1, p):
                yield order[between], writer, WW
            prefix = q - 1
        if prefix >= 0:
            yield Fan((~obj, prefix)), writer, WW
            if prefix > before_to:
                before_to = prefix
    after = [Fan((obj, p)) for p in range(after_from, end)]
    for fan, writer in zip(after, order[after_from:]):
        yield fan, writer, RW
    for fan, following in zip(after, after[1:]):
        yield fan, following, RW
    before = [Fan((~obj, p)) for p in range(before_to + 1)]
    for writer, fan in zip(order, before):
        yield writer, fan, WW
    for fan, following in zip(before, before[1:]):
        yield fan, following, WW


def number_precedes(a: int, b: int) -> bool:
    """The scheduler-chosen version order: by version number (creator tn).

    This is the order Theorem 1 certifies against; the online witness uses
    it directly (no position maps needed — version numbers are totally
    ordered integers with the initial transaction 0 first).
    """
    return a < b
