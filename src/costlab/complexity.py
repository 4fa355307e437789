"""Stagewise prefix-free complexity K_s: the one index behind every K_s query.

A ``KIndex`` holds, per target w, the stages at which K_s(w) changes with
its value from each, so ``k(w, s)`` is one bisect, and the improvement
events in stage order.  ``sum_at(x, s)`` (the sum of 2^-K_s(w) over
x < w <= s) and ``min_at(x, s)`` (the least such K_s(w)) read tables of
the improvement rows, built in one pass over the events on first use.  As
K_s(w) exists only for w < s, a row made by stage x + 1 has its target at
or below x and never counts for x.  A *prompt* row, made at stage w + 1,
counts for x whenever it is made in (x + 1, s]; a *delayed* row, made
later, counts only if its target also lies beyond x.  So ``sum_at`` is one
difference of an exact-int prefix column of prompt weights plus the
weight changes of the window's delayed rows that count, and ``min_at`` the
least length of the same rows, with the prompt lengths read in whole
blocks of 64 from their minima.

A ``Cursor`` only walks the events forward and returns the
``(w, old, new)`` changes it applies, so a caller that holds running sums
of its own keeps them from those changes.  The separation game plays on a
``copy`` of a provider's index and appends descriptions to it with
``add``, which logs each one as an event; a registered provider ``merge``s
its requests into a copy of its base's index, which keeps only the events
a fresh build would.  A copy shares the per-target lists and the tables,
which are replaced and never mutated.

Conventions:

- A description of w counts from stage ``max(stage, w + 1)`` on, so K_s(w)
  is infinite (None) for w >= s.
- The index has no horizon.  Its callers choose what a stage beyond the
  horizon means: ``KProvider.k(w, s)`` is None for s > horizon, while
  ``cost_k`` and ``cost_max`` clamp s to the horizon.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple


def weight_change(scale: int, old: int | None, new: int) -> int:
    """The change of 2^(scale - K) when K drops from ``old`` (None: infinite) to ``new``."""
    return (1 << (scale - new)) - (0 if old is None else 1 << (scale - old))


_BLOCK = 64  # prompt lengths per entry of the block minima


class _Rows(NamedTuple):
    """The improvement rows of a ``KIndex`` split by kind, each in stage order."""

    prompt_stages: list[int]
    prompt_prefix: list[int]  # [i]: the scaled weights of the first i prompt rows
    prompt_lengths: list[int]
    prompt_minima: list[int]  # [j]: the least of prompt_lengths[64 j : 64 (j + 1)]
    delayed_stages: list[int]
    delayed_targets: list[int]
    delayed_lengths: list[int]
    delayed_weights: list[int]  # scaled weight changes


class KIndex:
    """Per-target improvements of K_s(w) and the events they form.

    ``descriptions`` yields (target w, length, stage) triples.  Each target
    keeps its stages in order with K_s(w) from each on.  ``events`` is every
    (stage, w, length) improvement in stage order, plus each appended
    description; a cursor and the query tables skip the ones that do not
    improve.
    """

    def __init__(self, descriptions: Iterable[tuple[int, int, int]] = ()):
        self.frontier = 0  # the furthest stage any cursor has reached or walks to
        by_target: dict[int, tuple[list[int], list[int]]] = {}  # w -> (stages, lengths)
        events: list[tuple[int, int, int]] = []
        for event in sorted((max(st, w + 1), w, ln) for w, ln, st in descriptions):
            stage, w, length = event
            entry = by_target.get(w)
            if entry is None:
                by_target[w] = ([stage], [length])
            elif length < entry[1][-1]:
                entry[0].append(stage)
                entry[1].append(length)
            else:
                continue
            events.append(event)
        self._by_target = by_target
        self.events = events
        # the longest length held, so 2^-K is 2^(scale - K) / 2^scale
        self.scale = max((length for _stage, _w, length in events), default=0)
        self._rows: _Rows | None = None

    def k(self, w: int, s: int) -> int | None:
        """K_s(w): the least length of w counting by stage s, None if there is none."""
        stages, lengths = self._by_target.get(w, ((), ()))
        i = bisect.bisect_right(stages, s)
        return lengths[i - 1] if i else None

    def _tables(self) -> _Rows:
        """The improvement rows split into prompt and delayed, built on first use
        in one pass over the events, which lie in stage order."""
        if self._rows is None:
            rows = _Rows([], [0], [], [], [], [], [], [])
            scale, current, total = self.scale, {}, 0
            for stage, w, new in self.events:
                old = current.get(w)
                if old is not None and new >= old:
                    continue
                current[w] = new
                if stage == w + 1:  # no earlier row for w: old is None
                    total += 1 << (scale - new)
                    rows.prompt_stages.append(stage)
                    rows.prompt_prefix.append(total)
                    rows.prompt_lengths.append(new)
                else:
                    rows.delayed_stages.append(stage)
                    rows.delayed_targets.append(w)
                    rows.delayed_lengths.append(new)
                    rows.delayed_weights.append(weight_change(scale, old, new))
            lengths = rows.prompt_lengths
            rows.prompt_minima.extend(
                min(lengths[i : i + _BLOCK]) for i in range(0, len(lengths), _BLOCK)
            )
            self._rows = rows
        return self._rows

    @staticmethod
    def _late(rows: _Rows, x: int, s: int, column: list[int]) -> Iterator[int]:
        """``column``'s entries for the delayed rows made at stages in (x + 1, s]
        whose targets lie beyond x."""
        lo = bisect.bisect_right(rows.delayed_stages, x + 1)
        hi = bisect.bisect_right(rows.delayed_stages, s, lo)
        targets = rows.delayed_targets
        return (column[i] for i in range(lo, hi) if targets[i] > x)

    def sum_at(self, x: int, s: int) -> Fraction:
        """The complexity sum: 2^-K_s(w) summed over x < w <= s."""
        if s <= x + 1:
            return Fraction(0)
        rows = self._tables()
        # each target's weight changes by stage s telescope to its current weight
        prompt = rows.prompt_stages
        total = (
            rows.prompt_prefix[bisect.bisect_right(prompt, s)]
            - rows.prompt_prefix[bisect.bisect_right(prompt, x + 1)]
            + sum(self._late(rows, x, s, rows.delayed_weights))
        )
        return Fraction(total, 1 << self.scale)

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
        """An index of the same descriptions that no cursor has walked.

        It shares the per-target lists, which ``add`` and ``merge`` replace
        and never mutate, and has its own event list, so either on one index
        leaves the other unchanged; and frontier 0, so it accepts a
        description at any stage.  Built query tables are shared too:
        ``add`` and ``merge`` drop them and never mutate them.
        """
        twin = KIndex()
        twin._by_target = dict(self._by_target)
        twin.events = self.events[:]
        twin.scale = self.scale
        twin._rows = self._rows
        return twin

    def merge(self, descriptions: Iterable[tuple[int, int, int]]) -> None:
        """Insert (target w, length, stage) descriptions so that the index
        equals a fresh build of its own descriptions and these.

        Unlike ``add``, which logs every description, this keeps only
        improvements: a description that does not improve its target is
        left out, one that does removes the target's events from its stage
        on that it leaves improving nothing, and ``scale`` becomes the
        longest length kept.  Each description costs a few bisects and
        list splices.  The index must be one that ``add`` has not extended,
        and the stages must lie beyond every cursor's stage.  The target's
        lists are replaced, never mutated, since a copy may share them.
        """
        events, lost = self.events, -1  # lost: the longest length removed
        for w, length, stage in descriptions:
            stage = max(stage, w + 1)
            if stage <= self.frontier:
                raise ValueError("a description must take effect beyond every cursor")
            stages, lengths = self._by_target.get(w, ((), ()))
            i = bisect.bisect_right(stages, stage)
            if i and lengths[i - 1] <= length:
                continue
            lo = hi = bisect.bisect_left(stages, stage, 0, i)
            while hi < len(stages) and lengths[hi] >= length:
                del events[bisect.bisect_left(events, (stages[hi], w, lengths[hi]))]
                lost = max(lost, lengths[hi])
                hi += 1
            self._by_target[w] = (
                [*stages[:lo], stage, *stages[hi:]],
                [*lengths[:lo], length, *lengths[hi:]],
            )
            bisect.insort(events, (stage, w, length))
            self.scale = max(self.scale, length)
            self._rows = None
        if lost == self.scale:  # the longest event may be gone
            self.scale = max((length for _stage, _w, length in events), default=0)

    def add(self, w: int, length: int, stage: int) -> None:
        """Describe w with ``length`` from stage max(stage, w + 1) on.

        The stage must lie beyond every cursor's stage, so no cursor has
        passed it; stages need not come in order.  The target's lists are
        replaced, never mutated, since a copy may share them.
        """
        stage = max(stage, w + 1)
        if stage <= self.frontier:
            raise ValueError("a description must take effect beyond every cursor")
        bisect.insort(self.events, (stage, w, length))
        self.scale = max(self.scale, length)
        self._rows = None
        stages, lengths = self._by_target.get(w, ([], []))
        i = bisect.bisect_right(stages, stage)
        self._by_target[w] = (
            [*stages[:i], stage, *stages[i:]],
            [*lengths[:i], min(length, lengths[i - 1]) if i else length,
             *(min(n, length) for n in lengths[i:])],
        )


class Cursor:
    """Forward walk over a ``KIndex``'s events, holding K_s at its stage."""

    def __init__(self, index: KIndex):
        self.stage = 0
        self._index = index
        self._pos = 0
        self._current: dict[int, int] = {}

    @property
    def pending(self) -> bool:
        """Whether events lie beyond the cursor's stage."""
        return self._pos < len(self._index.events)

    def advance(self, s: int) -> list[tuple[int, int | None, int]]:
        """Move to stage s; return the (w, old, new) length changes applied, in order."""
        if s < self.stage:
            raise ValueError("a cursor only moves forward")
        self._index.frontier = max(self._index.frontier, s)
        events, current, pos = self._index.events, self._current, self._pos
        changes = []
        while pos < len(events) and events[pos][0] <= s:
            _stage, w, length = events[pos]
            pos += 1
            old = current.get(w)
            if old is None or length < old:
                current[w] = length
                changes.append((w, old, length))
        self.stage, self._pos = s, pos
        return changes
