"""Range contacts: which node pairs are within a disc radio range, tick by tick.

The world keeps node positions as a plain list of (x, y) float tuples, in
the order the nodes joined, and never removes a node; so a node's index in
that list names it for good, and the detector works on index pairs (i, j),
i < j. Each tick it reports, as changes against the last tick, the pairs
that left the range and the pairs that came into it. A pair is in range
when dx*dx + dy*dy <= range*range on Python floats.

The detector keeps a skin list (a Verlet neighbour list): the pairs that
were within range plus a skin of half the range when the list was last
rebuilt, sorted by their squared distance then. A rebuild bins the nodes
into square cells one range plus skin wide, so a pair that close lies in
one cell or in two that touch, and tests each cell against itself and its
four half-neighbour cells (Allen and Tildesley's cell list). The detector
measures no node: each tick the world hands it `moved`, a bound on how far
any node can have moved since the last tick, and D, the sum of those
bounds since the rebuild, bounds how far any node has moved from where it
was then. Each end of a pair has moved at most D, so the pair's distance is
within 2D of its distance at the rebuild. Hence:

- a pair off the list was more than range + skin apart, and while
  2D < skin it is still out of range;
- a listed pair more than 2D from the range at the rebuild, on either side,
  is still on the side it was then.

So only the listed pairs whose rebuild distance lies within 2D of the
range are tested, found with two bisections; a pair once in that window
stays in it, since D only grows. A node joining, or 2D reaching the skin,
rebuilds the list; the detector keeps the node count of the last rebuild
only to tell a join.

The window and the rebuild trigger each keep a slack of 1 um, so rounding
cannot let a pair change sides unseen. In one tick a walking node's path,
leg changes included, is at most speed_max * dt long: a leg ends exactly on
its target, and only the tick's last, partial step is rounded. Rounding
relative to a value, a few ulps of a step's length, of a summed bound or of
a distance, stays a few ulps of at most the skin, however many ticks pass
before a rebuild, and the slack covers it. The last rounding of a step's
coordinates, up to half an ulp of each, does not shrink with the step, so
it would add up tick by tick; the world adds it to `moved` instead (see
`World._tick`). Nor can rounding in a cell index drop a pair, save one
within a hair of range + skin, further out than any window reaches.

Only a world with a contact range builds a detector, and then ignores its
static pairs. The detector refers to no node, so releasing a world leaves
it be: its lists go with the world.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Iterable, Optional, Sequence

from .bundles import NodeAddress

# metres kept off every bound, so that rounding in the distances cannot let
# a pair change sides unseen
_SKIN_SLACK = 1e-6

# each cell (cx, cy) has the key cx * _ROW + cy, so the four cells after it
# in scan order are at these key offsets; with the cell itself they meet
# every touching pair of cells exactly once. Two cells whose keys collide
# share a list, which only adds pairs to test.
_ROW = 1 << 32
_HALF_NEIGHBOURS = (_ROW - 1, _ROW, _ROW + 1, 1)


def _near_pairs(positions: Sequence[tuple[float, float]],
                width: float) -> tuple[list[float], list[tuple[int, int]]]:
    """Every pair (i, j), i < j, at most width apart, and its squared distance.

    Both lists are in order of squared distance.
    """
    floor = math.floor
    cells: dict[int, list[tuple[float, float, int]]] = {}
    if width > 0.0:
        for i, (x, y) in enumerate(positions):
            key = floor(x / width) * _ROW + floor(y / width)
            cell = cells.get(key)
            if cell is None:
                cells[key] = [(x, y, i)]
            else:
                cell.append((x, y, i))
    elif positions:
        # a zero range has no cells to bin by: one cell, so every pair is tested
        cells[0] = [(x, y, i) for i, (x, y) in enumerate(positions)]
    bound = width * width
    gaps: list[float] = []
    pairs: list[tuple[int, int]] = []
    for key, cell in cells.items():
        # the cell's own points, then its half neighbours': the k-th point
        # of the cell is tested against everything after it
        group = cell[:]
        for offset in _HALF_NEIGHBOURS:
            other = cells.get(key + offset)
            if other:
                group += other
        for k, (x, y, i) in enumerate(cell, start=1):
            for x2, y2, j in group[k:]:
                dx = x - x2
                dy = y - y2
                gap = dx * dx + dy * dy
                if gap <= bound:
                    gaps.append(gap)
                    pairs.append((i, j) if i < j else (j, i))
    order = sorted(range(len(gaps)), key=gaps.__getitem__)
    return list(map(gaps.__getitem__, order)), list(map(pairs.__getitem__, order))


def _address_pairs(addrs: Sequence[NodeAddress],
                   pairs: Iterable[tuple[int, int]]) -> list[tuple[NodeAddress, NodeAddress]]:
    # index pairs as address pairs, each in order, sorted
    out = []
    for i, j in pairs:
        a, b = addrs[i], addrs[j]
        out.append((a, b) if a < b else (b, a))
    out.sort()
    return out


class RangeContacts:
    """The pairs within `contact_range` of each other, as changes per tick."""

    def __init__(self, contact_range: float) -> None:
        self.contact_range = contact_range
        # the skin list: index pairs in order of their squared distance at
        # the last rebuild (_gaps), and whether each is in range now
        self._pairs: list[tuple[int, int]] = []
        self._gaps: list[float] = []
        self._in_range: list[bool] = []
        # the node count at the last rebuild, None until the first tick, and
        # the furthest any node can have moved since
        self._count: Optional[int] = None
        self._drift = 0.0

    def changes(self, positions: Sequence[tuple[float, float]],
                addrs: Sequence[NodeAddress], moved: float) -> tuple[list, list]:
        """Pairs to close and pairs to open since the last tick, each in pair order.

        positions[i] is the (x, y) of node addrs[i], and no node has moved
        further than `moved` since the last call. Only the listed pairs
        that may have changed sides are tested, unless a node joined or
        the nodes may have moved half a skin since the list was built: then
        the list is rebuilt, and every pair within range plus skin is tested.
        """
        skin = self.contact_range / 2
        if self._count == len(positions):
            drift = self._drift + moved
            if 2.0 * drift < skin - _SKIN_SLACK:
                self._drift = drift
                return self._recheck(positions, addrs, 2.0 * drift + _SKIN_SLACK)
        return self._rebuild(positions, addrs, self.contact_range + skin)

    def _recheck(self, positions: Sequence[tuple[float, float]],
                 addrs: Sequence[NodeAddress], window: float) -> tuple[list, list]:
        # test the listed pairs within `window` of the range at the rebuild
        r = self.contact_range
        gaps, pairs, in_range = self._gaps, self._pairs, self._in_range
        low = r - window
        start = bisect_left(gaps, low * low) if low > 0.0 else 0
        stop = bisect_right(gaps, (r + window) ** 2)
        reach = r * r
        closed, opened = [], []
        for k in range(start, stop):
            i, j = pairs[k]
            xi, yi = positions[i]
            xj, yj = positions[j]
            dx = xi - xj
            dy = yi - yj
            now_in = dx * dx + dy * dy <= reach
            if now_in is not in_range[k]:
                in_range[k] = now_in
                (opened if now_in else closed).append((i, j))
        return _address_pairs(addrs, closed), _address_pairs(addrs, opened)

    def _rebuild(self, positions: Sequence[tuple[float, float]],
                 addrs: Sequence[NodeAddress], width: float) -> tuple[list, list]:
        # list every pair within width, and diff the in-range ones with the last tick's
        was_in = set(compress(self._pairs, self._in_range))
        self._gaps, self._pairs = gaps, pairs = _near_pairs(positions, width)
        inside = bisect_right(gaps, self.contact_range * self.contact_range)
        self._in_range = [True] * inside + [False] * (len(pairs) - inside)
        self._count = len(positions)
        self._drift = 0.0
        now_in = set(pairs[:inside])
        return (_address_pairs(addrs, was_in - now_in),
                _address_pairs(addrs, now_in - was_in))
