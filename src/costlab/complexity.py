"""Stagewise prefix-free complexity K_s: the one index behind every K_s query.

A ``KIndex`` holds, per target w, the stages at which K_s(w) changes with
its value from each, so ``k(w, s)`` is one bisect, and the improvement
events in stage order.  It answers ``sum_at(x, s)`` (the sum of 2^-K_s(w)
over x < w <= s) and ``min_at(x, s)`` (the least such K_s(w)) pointwise: a
bisect on a stage column, then a masked sum or minimum.  A ``Cursor`` only
walks the events forward and returns the ``(w, old, new)`` changes it
applies, so a caller that holds running sums of its own keeps them from
those changes.  The separation game plays on a ``copy`` of a provider's
index and appends descriptions to it with ``add``; a copy shares the
per-target lists, which are replaced and never mutated.

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
from typing import Iterable

import numpy as np


def weight_change(scale: int, old: int | None, new: int) -> int:
    """The change of 2^(scale - K) when K drops from ``old`` (None: infinite) to ``new``."""
    return (1 << (scale - new)) - (0 if old is None else 1 << (scale - old))


class KIndex:
    """Per-target improvements of K_s(w) and the events they form.

    ``descriptions`` yields (target w, length, stage) triples.  Each target
    keeps its stages in order with K_s(w) from each on.  ``events`` is every
    (stage, w, length) improvement in stage order, plus each appended
    description; a cursor skips the ones that do not improve.
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
        self._columns: tuple[list[int], np.ndarray, np.ndarray, np.ndarray] | None = None

    def k(self, w: int, s: int) -> int | None:
        """K_s(w): the least length of w counting by stage s, None if there is none."""
        stages, lengths = self._by_target.get(w, ((), ()))
        i = bisect.bisect_right(stages, s)
        return lengths[i - 1] if i else None

    def _beyond(self, x: int, s: int) -> tuple[np.ndarray, np.ndarray]:
        """The new lengths and scaled weight changes of the improvements by stage s
        to targets beyond x, read from stage-sorted columns built on first use."""
        if self._columns is None:
            rows = sorted(
                (stage, w, new, weight_change(self.scale, old, new))
                for w, (stages, lengths) in self._by_target.items()
                for stage, old, new in zip(stages, [None, *lengths], lengths)
            )
            stages, targets, lengths, weights = zip(*rows) if rows else ((),) * 4
            exact = self.scale + len(rows).bit_length() > 62  # else any sum of changes fits int64
            self._columns = (
                list(stages),
                np.array(targets, dtype=np.int64),
                np.array(lengths, dtype=np.int64),
                np.array(weights, dtype=object if exact else np.int64),
            )
        stages, targets, lengths, weights = self._columns
        i = bisect.bisect_right(stages, s)
        mask = targets[:i] > x
        return lengths[:i][mask], weights[:i][mask]

    def sum_at(self, x: int, s: int) -> Fraction:
        """The complexity sum: 2^-K_s(w) summed over x < w <= s."""
        # each target's weight changes by stage s telescope to its current weight
        return Fraction(int(self._beyond(x, s)[1].sum()), 1 << self.scale)

    def min_at(self, x: int, s: int) -> int | None:
        """The least K_s(w) over x < w <= s, None if no such w is described by stage s."""
        lengths = self._beyond(x, s)[0]  # lengths only fall: the least new one is the least current
        return int(lengths.min()) if lengths.size else None

    def copy(self) -> KIndex:
        """An index of the same descriptions that no cursor has walked.

        It shares the per-target lists, which ``add`` replaces and never
        mutates, and has its own event list, so ``add`` on either index
        leaves the other unchanged; and frontier 0, so it accepts a
        description at any stage.  Built columns are shared too: ``add``
        drops them and never mutates them.
        """
        twin = KIndex()
        twin._by_target = dict(self._by_target)
        twin.events = self.events[:]
        twin.scale = self.scale
        twin._columns = self._columns
        return twin

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
        self._columns = None
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
