"""Single-clock discrete event simulator with epidemic bundle replication.

Nodes hold bundle stores and positions; contacts come from a disc radio
range over mobile positions or, without one, from static pairs (none by
default). Static pairs all open at t = 0 and never close. A range world
re-evaluates contact state on a fixed tick, as changes against the last
one: links that closed and links that opened. Only a range world has
mobility. Positions are a plain list of (x, y) float tuples, one per node in
joining order, which mobility moves in place. A range world hands them each
tick to its detector (`contacts.RangeContacts`), which tests only the pairs
on its skin list that may have changed sides; only a world with a contact
range imports that module. Each node keeps its open links in pair order,
updated in place as links open and close. While two nodes are in contact
every bundle one of them holds and the other lacks is transferred
(anti-entropy), and all traffic on one link shares the medium first-come
first-served. A link is scanned once, in the tick it opens; from then on
each newly stored bundle is forwarded at once over its node's open links,
which keeps the link in sync until it closes. A transfer interrupted by
contact loss restarts from scratch at the next encounter.

The world keeps one record per node: its slot in the position list, its
store, the store's id mapping, its accept and delivery hooks (always both,
so they are called untested), and its open links, each naming the record
of the node at its far end, so the hot path reaches a receiver's state
without a lookup. Two paths enqueue: the link scan puts many bundles on its
one link, and a delivery (`_deliver`) forwards its one bundle over the
receiver's links. Both skip a bundle the receiver holds and a tagged one
(it carries a workflow id) the receiver's accept hook refuses; the hook is
asked about nothing else, so an offer never costs it a call. Storing a delivered or originated bundle asks
the storing node's hook by the same rule. A scan first drops the bundles
the receiver holds in one pass, since those are most of what a sender
carries. No link queues one bundle twice for one receiver: the scan runs
once, when the link opens, after that only bundles newly stored at one end
are forwarded, and a store takes an id at most once. A queued entry is a
plain (bundle, receiver) tuple; the entry a link is sending is its
`current`, the one record of the entry in flight, which closing the link
clears.

Transfers start inline. A completion (`_complete`) delivers its entry,
then starts its link's next live queued entry itself: it skips entries
that expired or whose receiver got the bundle meanwhile, looks the
duration up and schedules; a scan starts the head of what it queued the
same way. A forward that finds its link idle with an empty queue puts its
entry in flight at once, without the queue round trip and that recheck: it
was found live, lacking at the receiver and accepted just now, so the
recheck would pass. A link can be idle with a non-empty queue only while
its own completion runs, between clearing `current` and starting the next
entry. There the receiver never forwards the bundle it just got back over
that link, since the sender either holds it or refuses it; a bundle the
receiver's handler creates meanwhile joins the back of the queue, and the
queue's head starts right there, inside that forward loop, before the links
after it in pair order get theirs. Starting it once the completion ends
instead would move no count, but it would reorder same-instant `schedule`
calls, and equal-sized transfers that start together end together, so
events at one instant would run in another order. Every transfer is
scheduled through `schedule`, so events are counted in one place.

A link has at most one transfer pending, so each link builds its
completion callback once, when it opens, and every transfer on it
schedules that same callable: a completion that finds `current` empty
belongs to a link that closed, whose queue is empty too. A transfer's
duration depends only on the bundle's size, so the world keeps one table of
durations by size, a dict that computes a size's entry the first time it
is asked for it; both places that start a transfer read it in one
expression. A completed copy the receiver already holds is not delivered
again.

The event queue is keyed by time. Equal-sized transfers that start together
end together, so events cluster, a handful to a time; the heap holds each
pending time once, as a bare float, and `_due` maps each of those times to
the list of its callbacks in the order they were scheduled. Events run in
time order and, at one time, in that order, with no tuple or sequence
number per event. `run_until` takes a time's whole list out before running
it; an event scheduled for that same instant meanwhile starts a fresh list
and pushes the time again, so it runs right after every event already
listed, where a (time, sequence) heap would put it. That holds because no
event is scheduled before `now`: `schedule` refuses such a time, and NaN.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .bundles import Bundle, BundleStore, NodeAddress

if TYPE_CHECKING:
    from .contacts import RangeContacts

Position = tuple[float, float]

# seconds of a step too short to move a node
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class LinkModel:
    """One-hop radio link: fixed latency plus serialization at a shared rate."""

    bandwidth_bps: float = 54_000_000.0
    latency_s: float = 0.020


def transfer_duration(link: LinkModel, size_bytes: int) -> float:
    """Seconds needed to move size_bytes over one hop."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be non-negative")
    return link.latency_s + 8.0 * size_bytes / link.bandwidth_bps


def euclidean(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _point(position: Position) -> Position:
    # a position as built-in floats, whatever numbers it was given in; a
    # range world bins nodes into cells by position, so both must be finite
    x, y = float(position[0]), float(position[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"position must be finite, got {position!r}")
    return (x, y)


class RandomWaypoint:
    """Random waypoint mobility inside a rectangle.

    Each node walks toward a uniformly drawn destination at a uniformly drawn
    speed, pauses for a uniform time on arrival, then repeats. One RNG per
    node keeps trajectories independent of event interleaving.
    """

    def __init__(self, width: float, height: float, speed_min: float, speed_max: float,
                 pause_max: float, rngs: list) -> None:
        self.width = width
        self.height = height
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause_max = pause_max
        self._rngs = rngs
        # each node's leg as (target x, target y, speed), or None while it
        # pauses or has yet to draw one; a node walking a leg has no pause left
        self._legs: list[Optional[tuple[float, float, float]]] = [None] * len(rngs)
        self._pause_left = [0.0] * len(rngs)

    def initial_positions(self) -> list[Position]:
        return [(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))
                for rng in self._rngs]

    def step(self, positions: list[Position], dt: float) -> None:
        """Move every node dt seconds along its legs, in place.

        positions[i] is node i's (x, y) as plain floats, replaced by its new
        one; a node draws from its RNG only when it needs a new leg or a
        pause. Two common cases are done here: a node that walks all of dt
        without reaching its target, and one whose pause lasts all of dt.
        Every other node goes through `_walk`, with the same arithmetic.
        """
        if dt <= _TIME_EPS:
            return
        legs, pauses, hypot = self._legs, self._pause_left, math.hypot
        for i, leg in enumerate(legs):
            if leg is not None:
                x, y = positions[i]
                tx, ty, speed = leg
                dx = tx - x
                dy = ty - y
                dist = hypot(dx, dy)
                reach = speed * dt
                if reach < dist:
                    positions[i] = (x + dx / dist * reach, y + dy / dist * reach)
                    continue
            elif pauses[i] >= dt:
                pauses[i] -= dt
                continue
            positions[i] = self._walk(i, positions[i], dt)

    def _walk(self, i: int, position: Position, left: float) -> Position:
        # node i's moves over `left` seconds: pauses, legs and arrivals in turn
        rng, legs, pauses = self._rngs[i], self._legs, self._pause_left
        x, y = position
        while left > _TIME_EPS:
            if pauses[i] > 0.0:
                used = min(left, pauses[i])
                pauses[i] -= used
                left -= used
                continue
            leg = legs[i]
            if leg is None:
                leg = legs[i] = (rng.uniform(0.0, self.width), rng.uniform(0.0, self.height),
                                 rng.uniform(self.speed_min, self.speed_max))
            tx, ty, speed = leg
            dist = math.hypot(tx - x, ty - y)
            reach = speed * left
            if reach >= dist:
                x, y = tx, ty
                left -= dist / speed if speed > 0 else left
                legs[i] = None
                pauses[i] = rng.uniform(0.0, self.pause_max)
            else:
                x += (tx - x) / dist * reach
                y += (ty - y) / dist * reach
                left = 0.0
        return (x, y)


class _Durations(dict):
    """transfer_duration(link, size) of each bundle size, computed when first asked."""

    def __init__(self, link: LinkModel) -> None:
        super().__init__()
        self.link = link

    def __missing__(self, size: int) -> float:
        duration = self[size] = transfer_duration(self.link, size)
        return duration


class _Node:
    """What the world keeps of one node."""

    __slots__ = ("addr", "index", "store", "held", "accept", "handler", "links")

    def __init__(self, addr: NodeAddress, index: int, accept: Callable[[Bundle], bool],
                 handler: Callable[[Bundle], None]) -> None:
        self.addr = addr
        # the node's slot in the world's position list, in joining order
        self.index = index
        self.store = BundleStore()
        self.held = self.store.by_id
        self.accept = accept
        self.handler = handler
        # open links as (pair, state, far end's _Node), in pair order
        self.links: list[tuple] = []


# (bundle, receiver's _Node)
_Entry = tuple[Bundle, _Node]


class _LinkState:
    """One open link: its queue, the entry in flight and its completion callback.

    `current` is the one record of the entry being sent; None while the link
    is idle and for good once it has closed. `complete` is built once, when
    the link opens, and scheduled for every transfer on the link. It refers
    back to this state, so closing the link or releasing the world sets it
    to None to break that cycle.
    """

    __slots__ = ("queue", "current", "complete")

    def __init__(self, complete: Callable[[_LinkState], None]) -> None:
        self.queue: deque[_Entry] = deque()      # in arrival order
        self.current: Optional[_Entry] = None    # the entry being sent
        self.complete: Optional[Callable[[], None]] = partial(complete, self)


class World:
    """Event queue, node state, and the epidemic synchronization machinery."""

    def __init__(self, link: LinkModel, tick_interval: float = 0.5, *,
                 contact_range: Optional[float] = None,
                 adjacency: Iterable[tuple[NodeAddress, NodeAddress]] = (),
                 mobility: Optional[RandomWaypoint] = None,
                 rating_distance: Callable[[Position, Position], float] = euclidean) -> None:
        self.link = link
        self.tick_interval = tick_interval
        self.adjacency = {tuple(sorted(p)) for p in adjacency}
        self.mobility = mobility
        self.rating_distance = rating_distance
        self.now = 0.0
        # each pending event time once, and its callbacks in scheduling order
        self._heap: list[float] = []
        self._due: dict[float, list[Callable[[], None]]] = {}
        self.stores: dict[NodeAddress, BundleStore] = {}
        self._nodes: dict[NodeAddress, _Node] = {}
        # _positions[i] is the (x, y) of node _addrs[i], in joining order
        self._addrs: list[NodeAddress] = []
        self._positions: list[Position] = []
        self._links: dict[tuple[NodeAddress, NodeAddress], _LinkState] = {}
        self._durations = _Durations(link)
        if mobility is not None and contact_range is None:
            raise ValueError("mobility needs a contact range")
        # the in-range test of a range world; only such a world imports its
        # module, so a static run and `import carryflow` skip that import
        self._contacts: Optional[RangeContacts] = None
        if contact_range is not None:
            from .contacts import RangeContacts
            self._contacts = RangeContacts(contact_range)
        self.transfers_completed = 0
        self.transfers_aborted = 0
        self.schedule(0.0, self._tick)

    # -- node registration ------------------------------------------------

    def add_node(self, addr: NodeAddress, position: Position = (0.0, 0.0),
                 handler: Callable[[Bundle], None] = lambda bundle: None,
                 accept: Callable[[Bundle], bool] = lambda bundle: True) -> BundleStore:
        """Join a node and return its store.

        `handler` is called with each bundle the node stores, its own
        included. `accept` is asked, before the node stores a bundle or a
        link queues one for it, only about a bundle that carries a
        `workflow_id`; a bundle without one (an offer) is always accepted.
        """
        if addr in self._nodes:
            raise ValueError(f"duplicate node address {addr}")
        point = _point(position)
        node = self._nodes[addr] = _Node(addr, len(self._positions), accept, handler)
        self.stores[addr] = node.store
        self._addrs.append(addr)
        self._positions.append(point)
        return node.store

    def release(self) -> None:
        """Drop a finished run's events, stores, links and node hooks.

        Nodes and their handlers refer to each other in cycles, and so do the
        two ends of an open link, and each open link and its completion
        callback; emptying the world frees its bundles and pending events by
        reference count at once instead of whenever the garbage collector
        next runs.
        """
        self._heap.clear()
        self._due.clear()
        self.stores.clear()
        for node in self._nodes.values():
            node.links.clear()
        self._nodes.clear()
        for state in self._links.values():
            state.complete = None
        self._links.clear()

    def position_of(self, addr: NodeAddress) -> Position:
        return self._positions[self._nodes[addr].index]

    def set_position(self, addr: NodeAddress, position: Position) -> None:
        self._positions[self._nodes[addr].index] = _point(position)

    # -- event queue -------------------------------------------------------

    def schedule(self, when: float, fn: Callable[[], None]) -> None:
        """Queue fn at simulated time `when`, which may not be before `now`.

        Events run in time order and, at one time, in the order they were
        scheduled: fn joins the list of `when` if it has one, or starts it and
        puts `when` on the heap. A time before `now`, or NaN, raises
        ValueError; the clock never runs backwards.
        """
        if not when >= self.now:
            raise ValueError(f"cannot schedule an event at {when!r}, before now = {self.now!r}")
        fns = self._due.get(when)
        if fns is None:
            self._due[when] = [fn]
            heapq.heappush(self._heap, when)
        else:
            fns.append(fn)

    def run_until(self, t_end: float) -> None:
        """Run every event due at or before t_end, then set `now` to at least t_end.

        Each step takes the earliest time's whole list out of the queue and
        runs it in order; an event it schedules at that same time starts a
        fresh list, which runs next. If an event raises, the rest of its list
        goes back to the front of that time's list before the error
        propagates, so a later call runs each of them once.
        """
        heap, due, pop = self._heap, self._due, heapq.heappop
        while heap and heap[0] <= t_end:
            when = pop(heap)
            self.now = when
            fns = iter(due.pop(when))
            try:
                for fn in fns:
                    fn()
            except BaseException:
                rest = list(fns)
                if rest:
                    later = due.get(when)
                    if later is None:
                        due[when] = rest
                        heapq.heappush(heap, when)
                    else:
                        later[:0] = rest
                raise
        self.now = max(self.now, t_end)

    def advance(self, dt: float) -> None:
        self.run_until(self.now + dt)

    # -- contacts ----------------------------------------------------------

    def _tick(self) -> None:
        if self._contacts is None:
            # static pairs open at t = 0 and never close, so nothing ticks again
            for pair in sorted(self.adjacency):
                self._open_link(pair)
            return
        if self.mobility is not None:
            self.mobility.step(self._positions, self.tick_interval if self.now > 0 else 0.0)
        closed, opened = self._contacts.changes(self._positions, self._addrs)
        for pair in closed:
            self._close_link(pair)
        for pair in opened:
            self._open_link(pair)
        self.schedule(self.now + self.tick_interval, self._tick)

    def _open_link(self, pair: tuple[NodeAddress, NodeAddress]) -> None:
        state = _LinkState(self._complete)
        self._links[pair] = state
        a, b = self._nodes[pair[0]], self._nodes[pair[1]]
        insort(a.links, (pair, state, b))
        insort(b.links, (pair, state, a))
        self._scan_link(pair, state, a, b)

    def _close_link(self, pair: tuple[NodeAddress, NodeAddress]) -> None:
        state = self._links.pop(pair)
        for end in pair:
            links = self._nodes[end].links
            del links[bisect_left(links, (pair,))]
        if state.current is not None:
            # the pending completion no longer finds its entry: aborted
            state.current = None
            self.transfers_aborted += 1
        state.queue.clear()
        state.complete = None

    # -- synchronization ---------------------------------------------------

    def _scan_link(self, pair: tuple[NodeAddress, NodeAddress], state: _LinkState,
                   a: _Node, b: _Node) -> None:
        # runs once per link, when it opens; _deliver keeps it in sync afterwards.
        # The link is new, so its queue is empty and it is idle until the head
        # of what the scan queues starts
        now, queue = self.now, state.queue
        for sender, receiver in ((a, b), (b, a)):
            held, accept = receiver.held, receiver.accept
            fresh = [bundle for bundle in sender.store.scan_log(now)
                     if bundle.bundle_id not in held]
            for bundle in fresh:
                if bundle.workflow_id is None or accept(bundle):
                    queue.append((bundle, receiver))
        if queue:
            self._complete(state)

    def _complete(self, state: _LinkState) -> None:
        # finish the entry in flight, if there is one, then start the link's
        # next live queued entry unless delivering already started one. With
        # `current` empty this only starts that entry: the link closed while
        # its entry was in flight (its queue is empty then), or the scan or
        # `_deliver` found it idle with a queue
        entry = state.current
        if entry is not None:
            state.current = None
            self.transfers_completed += 1
            bundle, node = entry
            # a copy that came in over another link meanwhile needs no delivery
            if bundle.bundle_id not in node.held:
                self._deliver(node, bundle)
                if state.current is not None:
                    return
        queue, now = state.queue, self.now
        while queue:
            entry = queue.popleft()
            bundle, node = entry
            if now > bundle.expires_at or bundle.bundle_id in node.held:
                continue
            state.current = entry
            self.schedule(now + self._durations[bundle.size_bytes], state.complete)
            return

    def _deliver(self, node: _Node, bundle: Bundle) -> None:
        now = self.now
        tagged = bundle.workflow_id is not None
        if (now > bundle.expires_at or tagged and not node.accept(bundle)
                or not node.store.insert(bundle, now)):
            return
        node.handler(bundle)
        # forward the fresh bundle over every open link without waiting for a tick
        bundle_id = bundle.bundle_id
        for _, state, far in node.links:
            if bundle_id in far.held or tagged and not far.accept(bundle):
                continue
            if state.current is not None:
                state.queue.append((bundle, far))
            elif state.queue:
                # idle with a queue: only inside this link's own completion,
                # whose next entry starts here, before the links after it
                state.queue.append((bundle, far))
                self._complete(state)
            else:
                state.current = (bundle, far)
                self.schedule(now + self._durations[bundle.size_bytes], state.complete)

    def originate(self, bundle: Bundle) -> None:
        """Insert a locally created bundle at its source node and start spreading it."""
        self._deliver(self._nodes[bundle.source], bundle)
