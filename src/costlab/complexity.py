"""Stagewise prefix-free complexity K_s: the one index behind every K_s query.

A ``KIndex`` holds, per target w, the stages at which K_s(w) changes with
its value from each, so ``k(w, s)`` is one bisect, and the improvement
events in stage order.  ``sum_at(x, s)`` (the sum of 2^-K_s(w) over
x < w <= s, as an int in units of 2^-scale) and ``min_at(x, s)`` (the
least such K_s(w)) read tables of the improvement rows.  As K_s(w) exists
only for w < s, a row made by stage x + 1 has its target at or below x and
never counts for x.  A *prompt* row, made at stage w + 1, counts for x
whenever it is made in (x + 1, s]; a *delayed* row, made later, counts
only if its target also lies beyond x.  So ``sum_at`` is one difference of
an exact-int prefix column of prompt weights plus the weight changes of
the window's delayed rows that count, and ``min_at`` the least length of
the same rows, with the prompt lengths read in whole blocks of 64 from
their minima.  One constructor, ``_Rows.of``, makes these columns from the
rows, which the first query gathers in one pass over the events.

Every index is canonical: its events are the strict improvements of
K_s(w), one per target and stage, as in the staged Kraft-Chaitin
bookkeeping, each a (stage, w, old, new) change that records the length
it replaces, old None at w's first.  ``changes(s)`` is their prefix up to
stage s, which a sweep applies by position to running sums of its own;
one that merges as it plays reads ``events`` so.  Both move ``frontier``,
beyond which a merge must lie.  ``merge`` is the one way to
extend an index: a registered provider merges its requests into a
``copy`` of its base's index, and the separation game its requests and
grants into a copy of its provider's.  A copy shares the per-target lists
and the tables, which are replaced and never mutated.  A merge marks the
targets it improves, and the next query splices their rows into copies of
the last rows for the same constructor, or builds anew if the scale changed.

Conventions:

- A description of w counts from stage ``max(stage, w + 1)`` on, so K_s(w)
  is infinite (None) for w >= s.
- The index has no horizon.  Its callers choose what a stage beyond the
  horizon means: ``KProvider.k(w, s)`` is None for s > horizon, while
  ``cost_k`` and ``cost_max`` clamp s to the horizon.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple


def weight_change(scale: int, old: int | None, new: int) -> int:
    """The change of 2^(scale - K) when K drops from ``old`` (None: infinite) to ``new``."""
    return (1 << (scale - new)) - (0 if old is None else 1 << (scale - old))


_BLOCK = 64  # prompt lengths per entry of the block minima


class _Rows(NamedTuple):
    """The improvement rows of a ``KIndex`` split by kind, each in stage order."""

    scale: int  # the weights are in units of 2^-scale
    prompt_stages: list[int]
    prompt_lengths: list[int]
    prompt_weights: list[int]  # scaled weights
    prompt_prefix: list[int]  # [i]: the sum of the first i prompt weights
    prompt_minima: list[int]  # [j]: the least of prompt_lengths[64 j : 64 (j + 1)], a whole block
    delayed_stages: list[int]
    delayed_targets: list[int]
    delayed_lengths: list[int]
    delayed_weights: list[int]  # scaled weight changes

    @classmethod
    def of(
        cls, scale: int, stages: list[int], lengths: list[int], weights: list[int],
        delayed: list[tuple[int, int, int, int]],
    ) -> _Rows:
        """The tables of the prompt rows' columns and the delayed rows, given
        as (stage, w, length, weight change) in any order: it sorts them."""
        delayed.sort()
        prefix = list(accumulate(weights, initial=0))
        minima = [min(lengths[i : i + _BLOCK]) for i in range(0, len(lengths) - _BLOCK + 1, _BLOCK)]
        columns = [list(c) for c in zip(*delayed)] or [[], [], [], []]
        return cls(scale, stages, lengths, weights, prefix, minima, *columns)


class KIndex:
    """Per-target improvements of K_s(w) and the events they form.

    ``descriptions`` yields (target w, length, stage) triples.  Each target
    keeps its stages in order with K_s(w) from each on.  ``events`` is every
    strict improvement in stage order and nothing else, as a (stage, w, old,
    new) change with old None at w's first, so a sweep and the query tables
    take each one as a change.
    """

    def __init__(self, descriptions: Iterable[tuple[int, int, int]] = ()):
        self.frontier = 0  # the furthest stage a sweep has read the events to
        by_target: dict[int, tuple[list[int], list[int]]] = {}  # w -> (stages, lengths)
        events: list[tuple[int, int, int | None, int]] = []
        for stage, w, length in sorted((max(st, w + 1), w, ln) for w, ln, st in descriptions):
            stages, lengths = by_target.setdefault(w, ([], []))
            old = lengths[-1] if lengths else None
            if old is None or length < old:
                stages.append(stage)
                lengths.append(length)
                events.append((stage, w, old, length))
        self._by_target = by_target
        self.events = events
        # the longest length held, so 2^-K is 2^(scale - K) / 2^scale
        self.scale = max((new for _stage, _w, _old, new in events), default=0)
        self._rows: _Rows | None = None  # the last tables, None until the first query
        self._touched: set[int] = set()  # targets merged into since: the tables are stale

    def k(self, w: int, s: int) -> int | None:
        """K_s(w): the least length of w counting by stage s, None if there is none."""
        stages, lengths = self._by_target.get(w, ((), ()))
        i = bisect.bisect_right(stages, s)
        return lengths[i - 1] if i else None

    def changes(self, s: int) -> list[tuple[int, int, int | None, int]]:
        """The events up to stage s, a prefix of ``events``; moves ``frontier`` to s."""
        self.frontier = max(self.frontier, s)
        return self.events[: bisect.bisect_left(self.events, (s + 1,))]

    def _tables(self) -> _Rows:
        """The improvement rows split into prompt and delayed: built on first
        use, and after a merge spliced from the last tables, unless the merge
        changed the scale."""
        rows = self._rows
        if rows is None or self._touched:
            same = rows is not None and rows.scale == self.scale
            self._rows = self._patched(rows) if same else self._build()
            self._touched = set()
        return self._rows

    def _build(self) -> _Rows:
        """The rows in one pass over the events, which lie in stage order."""
        scale, stages, lengths, delayed = self.scale, [], [], []
        for stage, w, old, new in self.events:
            if stage == w + 1:  # no earlier row for w: old is None
                stages.append(stage)
                lengths.append(new)
            else:
                delayed.append((stage, w, new, weight_change(scale, old, new)))
        return _Rows.of(scale, stages, lengths, [1 << (scale - n) for n in lengths], delayed)

    def _patched(self, rows: _Rows) -> _Rows:
        """``rows``, at the same scale, with each touched target's rows made
        again from its lists, in new lists: a copy may share ``rows``.

        A target keeps its prompt row once it has one, since only a
        description at stage w + 1 removes it and that one takes its place
        with a shorter length; so the prompt row is replaced or inserted at
        its place in stage order, and the delayed rows are made anew, the
        first weighed against the prompt row.
        """
        scale, touched = self.scale, self._touched
        stages, lengths = rows.prompt_stages[:], rows.prompt_lengths[:]
        weights = rows.prompt_weights[:]
        delayed = [
            row
            for row in zip(
                rows.delayed_stages, rows.delayed_targets,
                rows.delayed_lengths, rows.delayed_weights,
            )
            if row[1] not in touched
        ]
        for w in touched:
            w_stages, w_lengths = self._by_target[w]
            old = None
            for stage, length in zip(w_stages, w_lengths):
                if stage != w + 1:
                    delayed.append((stage, w, length, weight_change(scale, old, length)))
                old = length
            if w_stages[0] == w + 1:
                i = bisect.bisect_left(stages, w + 1)
                row = slice(i, i + 1 if i < len(stages) and stages[i] == w + 1 else i)
                stages[row], lengths[row] = [w + 1], [w_lengths[0]]
                weights[row] = [1 << (scale - w_lengths[0])]
        return _Rows.of(scale, stages, lengths, weights, delayed)

    @staticmethod
    def _late(rows: _Rows, x: int, s: int, column: list[int]) -> Iterator[int]:
        """``column``'s entries for the delayed rows made at stages in (x + 1, s]
        whose targets lie beyond x."""
        lo = bisect.bisect_right(rows.delayed_stages, x + 1)
        hi = bisect.bisect_right(rows.delayed_stages, s, lo)
        targets = rows.delayed_targets
        return (column[i] for i in range(lo, hi) if targets[i] > x)

    def sum_at(self, x: int, s: int) -> int:
        """The complexity sum, 2^-K_s(w) summed over x < w <= s, in units of 2^-scale."""
        if s <= x + 1:
            return 0
        rows = self._tables()
        # each target's weight changes by stage s telescope to its current weight
        prompt = rows.prompt_stages
        return (
            rows.prompt_prefix[bisect.bisect_right(prompt, s)]
            - rows.prompt_prefix[bisect.bisect_right(prompt, x + 1)]
            + sum(self._late(rows, x, s, rows.delayed_weights))
        )

    def min_at(self, x: int, s: int) -> int | None:
        """The least K_s(w) over x < w <= s, None if no such w is described by stage s."""
        if s <= x + 1:
            return None
        rows = self._tables()
        # lengths only fall: the least new one is the least current
        prompt, lengths = rows.prompt_stages, rows.prompt_lengths
        lo = bisect.bisect_right(prompt, x + 1)
        hi = bisect.bisect_right(prompt, s, lo)
        first, last = -(-lo // _BLOCK), hi // _BLOCK  # the whole blocks inside [lo, hi)
        if first < last:
            window = lengths[lo : first * _BLOCK] + lengths[last * _BLOCK : hi]
            window += rows.prompt_minima[first:last]
        else:
            window = lengths[lo:hi]
        window.extend(self._late(rows, x, s, rows.delayed_lengths))
        return min(window, default=None)

    def copy(self) -> KIndex:
        """An index of the same descriptions that no sweep has read.

        It shares the per-target lists, which ``merge`` replaces and never
        mutates, and has its own event list, so a merge into one index leaves
        the other unchanged; and frontier 0, so it accepts a description at
        any stage.  The query tables are shared too, built first if they were
        not: the query after a merge splices new ones and never mutates them.
        """
        twin = KIndex()
        twin._by_target = dict(self._by_target)
        twin.events = self.events[:]
        twin.scale = self.scale
        twin._rows = self._tables()
        return twin

    def merge(self, descriptions: Iterable[tuple[int, int, int]]) -> None:
        """Insert (target w, length, stage) descriptions so that the index
        equals a fresh build of its own descriptions and these.

        It keeps the index canonical: a description that does not improve
        its target is left out, one that does removes the target's events
        from its stage on that it leaves improving nothing, records the
        length it replaces and becomes the old length of the target's next
        event, and ``scale`` becomes the longest length kept.  Each
        description costs a few bisects, which probe with (stage, w) as old
        may be None, and list splices.  The stages must lie beyond
        ``frontier`` and need not come in order.  The target's lists are
        replaced, never mutated, since a copy may share them.  The improved
        targets are marked, for the next query to splice their rows into the
        tables, or to build them anew when the scale changed.
        """
        events, lost = self.events, -1  # lost: the longest length removed
        for w, length, stage in descriptions:
            stage = max(stage, w + 1)
            if stage <= self.frontier:
                raise ValueError("a description must take effect beyond the frontier")
            stages, lengths = self._by_target.get(w, ((), ()))
            i = bisect.bisect_right(stages, stage)
            if i and lengths[i - 1] <= length:
                continue
            lo = hi = bisect.bisect_left(stages, stage, 0, i)
            while hi < len(stages) and lengths[hi] >= length:
                del events[bisect.bisect_left(events, (stages[hi], w))]
                lost = max(lost, lengths[hi])
                hi += 1
            self._by_target[w] = (
                [*stages[:lo], stage, *stages[hi:]],
                [*lengths[:lo], length, *lengths[hi:]],
            )
            old = lengths[lo - 1] if lo else None
            events.insert(bisect.bisect_left(events, (stage, w)), (stage, w, old, length))
            if hi < len(stages):  # w's next surviving event now replaces this length
                at = bisect.bisect_left(events, (stages[hi], w))
                events[at] = (stages[hi], w, length, lengths[hi])
            self.scale = max(self.scale, length)
            self._touched.add(w)
        if lost == self.scale:  # the longest event may be gone
            self.scale = max((new for _stage, _w, _old, new in events), default=0)

