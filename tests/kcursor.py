"""The reference walk over a ``KIndex``'s events, one stage at a time, for the tests.

``KIndex.changes(s)`` hands a sweep every change up to stage s in one
list; this cursor returns the same changes stage by stage, and the tests
compare the two.
"""

from costlab.complexity import KIndex


class Cursor:
    """Forward walk over a canonical ``KIndex``'s events, holding K_s at its stage."""

    def __init__(self, index: KIndex):
        self.stage = 0
        self._index = index
        self._pos = 0
        self._current: dict[int, int] = {}

    def advance(self, s: int) -> list[tuple[int, int | None, int]]:
        """Move to stage s; return the (w, old, new) length changes applied, in order."""
        if s < self.stage:
            raise ValueError("a cursor only moves forward")
        index = self._index
        if s > index.frontier:
            index.frontier = s
        events, current, pos, end = index.events, self._current, self._pos, len(index.events)
        changes = []
        while pos < end and events[pos][0] <= s:
            _stage, w, length = events[pos]
            pos += 1
            changes.append((w, current.get(w), length))
            current[w] = length
        self.stage, self._pos = s, pos
        return changes
