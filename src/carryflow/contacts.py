"""Range contacts: which node pairs are within a disc radio range, tick by tick.

The world keeps node positions as a plain list of (x, y) float tuples, in
the order the nodes joined. Each tick the detector reads them into one array
and reports, as changes against the last tick, the pairs that left the range
and the pairs that came into it. The in-range test runs in numpy over a skin
list (a Verlet neighbour list): the pairs that were within the range plus a
skin of half the range when the list was last rebuilt. While no node has
moved half a skin since then, no pair off the list can have come into range,
so only the listed pairs are tested; a node joining, or a node moving that
far, rebuilds the list from every pair.

Only a world with a contact range builds a detector, and then ignores its
static pairs; so only waypoint scenarios load numpy. The detector refers to
no node, so releasing a world leaves it be: its arrays go with the world.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Collection, Optional, Sequence

import numpy as np

from .bundles import NodeAddress

# metres kept off the skin, so that rounding in the distances cannot let a
# pair off the skin list come into range unseen
_SKIN_SLACK = 1e-6


def _squared(d: np.ndarray) -> np.ndarray:
    """dx*dx + dy*dy of each (dx, dy) row; squares d in place."""
    d *= d
    return d[:, 0] + d[:, 1]


def _max_drift(xy: np.ndarray, anchor: np.ndarray) -> float:
    # the furthest any node has moved since the skin list was built
    return math.sqrt(_squared(xy - anchor).max(initial=0.0))


def _gaps(xy: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # squared distance of each (row, col) pair
    d = np.take(xy, rows, axis=0)
    d -= np.take(xy, cols, axis=0)
    return _squared(d)


def _flips(addrs: Sequence[NodeAddress], rows: np.ndarray, cols: np.ndarray,
           in_range: np.ndarray) -> tuple[list, list]:
    # the flipped pairs as (closed, opened) address pairs, each sorted
    closed, opened = [], []
    for i, j, now_in in zip(rows.tolist(), cols.tolist(), in_range.tolist()):
        a, b = addrs[i], addrs[j]
        (opened if now_in else closed).append((a, b) if a < b else (b, a))
    closed.sort()
    opened.sort()
    return closed, opened


class RangeContacts:
    """The pairs within `contact_range` of each other, as changes per tick."""

    def __init__(self, contact_range: float) -> None:
        self.contact_range = contact_range
        # rows (i, j), i < j, of every node pair, and whether each pair was in
        # range at the last tick
        self._pair_rows: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._in_range = np.zeros(0, dtype=bool)
        # the skin list: indices, rows and cols of the pairs within range
        # plus skin at the last rebuild, and the positions then; None until
        # the first tick
        self._near: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._anchor: Optional[np.ndarray] = None

    def changes(self, positions: Sequence[tuple[float, float]],
                addrs: Sequence[NodeAddress],
                links: Collection[tuple[NodeAddress, NodeAddress]]) -> tuple[list, list]:
        """Pairs to close and pairs to open since the last tick, each in pair order.

        positions[i] is the (x, y) of node addrs[i]; links are the pairs
        open now. Only the pairs on the skin list are tested, unless a node
        joined or moved half a skin since the list was built: then every
        pair is tested and the list is rebuilt. A pair off the list was
        more than range + skin apart then, and each end has moved less than
        half a skin since, so it is still out of range.
        """
        n = len(positions)
        xy = np.fromiter(chain.from_iterable(positions), float, 2 * n).reshape(-1, 2)
        reach = self.contact_range ** 2
        skin = self.contact_range / 2
        if self._anchor is None or len(self._anchor) != n:
            # the first tick, or a node joined since the last rebuild
            self._index_pairs(addrs, links)
        elif 2.0 * _max_drift(xy, self._anchor) < skin - _SKIN_SLACK:
            near, rows, cols = self._near
            in_range = _gaps(xy, rows, cols) <= reach
            changed = np.flatnonzero(in_range != self._in_range[near])
            if not changed.size:
                return [], []
            in_range = in_range[changed]
            self._in_range[near[changed]] = in_range
            return _flips(addrs, rows[changed], cols[changed], in_range)
        rows, cols = self._pair_rows
        gaps = _gaps(xy, rows, cols)
        near = np.flatnonzero(gaps <= (self.contact_range + skin) ** 2)
        self._near = (near, rows[near], cols[near])
        self._anchor = xy
        in_range = gaps <= reach
        changed = np.flatnonzero(in_range != self._in_range)
        self._in_range = in_range
        return _flips(addrs, rows[changed], cols[changed], in_range[changed])

    def _index_pairs(self, addrs: Sequence[NodeAddress],
                     links: Collection[tuple[NodeAddress, NodeAddress]]) -> None:
        # enumerate the pairs again and mark the open links
        n = len(addrs)
        rows, cols = np.triu_indices(n, k=1)
        self._pair_rows = (rows, cols)
        self._in_range = np.zeros(len(rows), dtype=bool)
        if links:
            index = {addr: i for i, addr in enumerate(addrs)}
            ends = np.array([sorted((index[a], index[b])) for a, b in links])
            i, j = ends[:, 0], ends[:, 1]
            self._in_range[i * n - i * (i + 1) // 2 + j - i - 1] = True
