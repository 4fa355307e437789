"""Stagewise prefix-free complexity K_s: the one index behind every K_s query.

A ``KIndex`` holds, per target w, the stages at which K_s(w) changes with
its value from each, so ``k(w, s)`` is one bisect, and the list of
improvement events in stage order.  A ``Cursor`` walks those events forward; ``advance(s)``
returns the ``(w, old, new)`` changes it applied, and the cursor answers
``sum_beyond(x)`` (the sum of 2^-K_s(w) over w > x) and ``min_beyond(x)``
(the least K_s(w) over w > x) at its stage from a Fenwick tree.  The
separation game appends descriptions with ``add`` as it plays.

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
from typing import Iterable, Iterator


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
        self.scale = 0  # the longest length held, so 2^-K is 2^(scale - K) / 2^scale
        self.frontier = 0  # the furthest stage any cursor has reached or walks to
        self._by_target: dict[int, tuple[list[int], list[int]]] = {}  # w -> (stages, lengths)
        self.events: list[tuple[int, int, int]] = []
        for stage, w, length in sorted((max(st, w + 1), w, ln) for w, ln, st in descriptions):
            stages, lengths = self._by_target.setdefault(w, ([], []))
            if not lengths or length < lengths[-1]:
                stages.append(stage)
                lengths.append(length)
                self.events.append((stage, w, length))
                self.scale = max(self.scale, length)
        self._targets = sorted(self._by_target)

    def k(self, w: int, s: int) -> int | None:
        """K_s(w): the least length of w counting by stage s, None if there is none."""
        stages, lengths = self._by_target.get(w, ((), ()))
        i = bisect.bisect_right(stages, s)
        return lengths[i - 1] if i else None

    def lengths(self, x: int, s: int) -> Iterator[int]:
        """K_s(w) for each w with x < w <= s that has a description by stage s."""
        targets = self._targets
        for w in targets[bisect.bisect_right(targets, x) : bisect.bisect_left(targets, s)]:
            stages, lengths = self._by_target[w]
            i = bisect.bisect_right(stages, s)
            if i:
                yield lengths[i - 1]

    def sum_at(self, x: int, s: int) -> Fraction:
        """The complexity sum: 2^-K_s(w) summed over x < w <= s."""
        scale = self.scale
        return Fraction(sum(1 << (scale - n) for n in self.lengths(x, s)), 1 << scale)

    def add(self, w: int, length: int, stage: int) -> None:
        """Describe w with ``length`` from stage max(stage, w + 1) on.

        The stage must lie beyond every cursor's stage, so no cursor has
        passed it; stages need not come in order.
        """
        stage = max(stage, w + 1)
        if stage <= self.frontier:
            raise ValueError("a description must take effect beyond every cursor")
        bisect.insort(self.events, (stage, w, length))
        self.scale = max(self.scale, length)
        if w not in self._by_target:
            bisect.insort(self._targets, w)
        stages, lengths = self._by_target.setdefault(w, ([], []))
        i = bisect.bisect_right(stages, stage)
        stages.insert(i, stage)
        lengths.insert(i, min(length, lengths[i - 1]) if i else length)
        lengths[i + 1 :] = [min(n, length) for n in lengths[i + 1 :]]


class Cursor:
    """Forward walk over a ``KIndex``'s events, holding K_s at its stage.

    Sums and minima beyond x come from a Fenwick tree (Fenwick 1994) laid
    out for suffixes: node i covers the positions [i, i + lowbit(i)), so an
    update walks down, a query walks up, and growing the tree appends empty
    nodes.  Target w sits at position w + 1.  One array sums the scaled
    weights 2^(scale - K_s(w)); the other keeps their maxima, which give the
    least length, and stays exact under point updates because a target's
    length only ever decreases.  Both are built on the first query and move
    to a larger scale when a longer length arrives.
    """

    def __init__(self, index: KIndex):
        self.stage = 0
        self._index = index
        self._pos = 0
        self._current: dict[int, int] = {}
        self._scale = 0
        self._sums = self._tops = None  # the trees, built on the first query

    @property
    def pending(self) -> bool:
        """Whether events lie beyond the cursor's stage."""
        return self._pos < len(self._index.events)

    def advance(self, s: int) -> list[tuple[int, int | None, int]]:
        """Move to stage s; return the (w, old, new) length changes applied."""
        if s < self.stage:
            raise ValueError("a cursor only moves forward")
        return [change for _stage, step in self.steps(s) for change in step]

    def steps(self, s_to: int) -> Iterator[tuple[int, list[tuple[int, int | None, int]]]]:
        """Move one stage at a time up to s_to, yielding each stage and its changes."""
        self._index.frontier = max(self._index.frontier, s_to)
        events, current, pos = self._index.events, self._current, self._pos
        for s in range(self.stage + 1, s_to + 1):
            changes = []
            while pos < len(events) and events[pos][0] <= s:
                _stage, w, length = events[pos]
                pos += 1
                old = current.get(w)
                if old is None or length < old:
                    current[w] = length
                    changes.append((w, old, length))
                    if self._sums is not None:
                        self._lower(w, old, length)
            self.stage, self._pos = s, pos
            yield s, changes

    def _lower(self, w: int, old: int | None, new: int) -> None:
        if new > self._scale:
            shift, self._scale = new - self._scale, new
            self._sums = [v << shift for v in self._sums]
            self._tops = [v << shift for v in self._tops]
        i = j = w + 1
        if i >= len(self._sums):
            grow = [0] * (max(i + 1, 2 * len(self._sums)) - len(self._sums))
            self._sums += grow
            self._tops += grow
        delta, weight = weight_change(self._scale, old, new), 1 << (self._scale - new)
        sums, tops = self._sums, self._tops
        while i > 0:
            sums[i] += delta
            i -= i & -i
        while j > 0 and tops[j] < weight:  # each node on the walk covers the last
            tops[j] = weight
            j -= j & -j

    def _trees(self) -> tuple[list[int], list[int]]:
        if self._sums is None:
            self._sums, self._tops, self._scale = [0], [0], self._index.scale
            for w, length in self._current.items():
                self._lower(w, None, length)
        return self._sums, self._tops

    def sum_beyond(self, x: int) -> Fraction:
        """2^-K_s(w) summed over every w > x, at the cursor's stage."""
        sums = self._trees()[0]
        i, total = max(x, -1) + 2, 0
        while i < len(sums):
            total += sums[i]
            i += i & -i
        return Fraction(total, 1 << self._scale)

    def min_beyond(self, x: int) -> int | None:
        """The least K_s(w) over w > x at the cursor's stage, None if none."""
        tops = self._trees()[1]
        i, top = max(x, -1) + 2, 0
        while i < len(tops):
            if tops[i] > top:
                top = tops[i]
            i += i & -i
        return self._scale + 1 - top.bit_length() if top else None
