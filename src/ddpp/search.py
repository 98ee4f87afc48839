"""Label-setting search for a minimal-cost link-disjoint route pair.

The search graph is implicit: vertices are canonical unordered node pairs,
and expanding a label appends one network link to one of its two routes,
keeping each route a path that ends at the destination once it reaches it.
Each vertex keeps only its undominated labels under the relation selected
by ``SearchOptions.mode``, and a priority queue with lazy deletion settles
labels in goal-directed (A*) order.

Keeping routes paths loses no answer: a trail that revisits a node or
walks on past the destination contains a path from the source to the
destination over a subset of its links.  That path stays disjoint from the
other route, costs no more, has every free interval of the trail inside
one of its own, and so also stays within any route-cost limit.  The oracle
still enumerates trails, so its differential tests check this claim.

The search runs over a per-demand *usable-link view*: the links that join
two nodes with a free run of at least ``demand.units`` units, the only
links a path can cross.  A node is on a route when the route uses one of
the node's view links; the source is on every route that is not empty, and
the empty route cannot step back to it without a self-loop.  One Dijkstra
from the destination over the view gives ``h(node)``, the cheapest cost
from the node to the destination.  A label at vertex
``(a, b)`` is keyed by ``label_cost + h(a) + h(b)``.  Costs are additive
and non-negative and every link crossed is in the view, so ``h`` is
consistent: extending a label never lowers its key, keys pop in
nondecreasing order, and because ``h`` of the destination is 0 the first
label settled at the destination vertex (both routes ended there) is
optimal.  All labels at one vertex share its ``h``, so dominance is
unchanged.  ``h`` is defined on the nodes that reach the destination in the
view, and that node set is closed under view adjacency, so every vertex
reached from a root whose node has ``h`` has ``h`` on both nodes; a root
without ``h`` blocks the demand before any pop.

The view comes from one usability pass over the links, in id order, which
also collects each node's distinct usable neighbours (every node of the
network starts with none).  The view leaves out dead ends.  ``_peel``
removes from those neighbour sets every node other than the source and
the destination that has fewer than two distinct neighbours, a node with
no usable link included, and goes on until no such node is left (k-core
peeling, Seidman 1983, anchored at both ends); a link is listed only when
both of its ends survive.  The peel is exact.  A route is a path
from the source that stops at the destination, so it passes each interior
node from one neighbour to another.  Of the nodes of a path between two
kept nodes, take the first to be peeled: every other node of the path was
still there then, and it has two distinct neighbours on the path, so it
could not have been peeled.  A peeled node is therefore on no finished
route, and every label at a vertex holding one is dead.  The same argument
keeps each cheapest path from a kept node to the destination inside the
view, so ``h`` of a kept node is unchanged; efficient sets are per vertex,
and push numbers keep their relative order among the live labels.
Efficient sets, the settle order of live labels and every answer are
unchanged; only the counters fall, on networks with dead-end branches.

Each queue entry is one flat tuple ``(key, vertex, lo_a, lo_b, push,
label)``, so ties are broken by a fixed total order: key, vertex, the two
interval starts, then the push number, which is unique, so labels are never
compared and a solve is deterministic for fixed inputs.  The view lists
each link at each of its ends as ``(link, 1 << link.id, far end,
shadow)``, so ``expand`` finds the bit and the far end without computing
them: it tests the bit against the label's masks and hands the far end to
``label_extend``, which computes the bit again for the grown route's
mask.

``shadow`` is the mask of the link's parallel-link shadowing: the bits of
the other view links with the same two ends that rank below it by ``(cost,
id)`` and whose free runs contain each of its runs at least
``demand.units`` wide.  It is 0 unless a node has two view links to one
far end, and shadows are computed only at the nodes with more view links
than kept neighbours, so a network without parallel links pays one length
comparison per node for them.  ``expand`` skips a link while any link of
its shadow is unused by the label.  The skip is exact.  An unused
shadowing link reaches the same vertex at a cost no higher, and each
interval the skipped link would give lies inside one it gives.  Its far
end is the same, so the path rule and a route-cost limit pass for it
whenever they pass for the skipped link.  Under either relation, with or
without a limit, the efficient set would reject the skipped candidate or
evict it within the same expansion.  If the shadowing link is itself
skipped, the unused link shadowing it also shadows the skipped one (the
relation is transitive), so the lowest-ranked unused link of a bundle is
always tried.  With equal costs the lower ``id`` shadows, and it is listed
first, so the label that insertion order would keep is the one built.  The
efficient sets, the settle order of live labels and every answer are
therefore unchanged; only ``labels_generated``, ``labels_dominated`` and,
where a costlier link with a lower id was accepted and then evicted,
``queue_pops`` fall.  The differential tests check this against solves
with every shadow zeroed.

A search allocates several container objects per accepted candidate (the
label, its trait and vertex tuples and a heap entry), so the cyclic garbage
collector would run many times per solve, each time rescanning the labels
still alive and, in its full collections, everything the caller holds.
None of these objects forms a reference cycle, so reference counting alone
frees them; ``PairSearch.run`` therefore pauses the collector while it
settles labels.
"""

from __future__ import annotations

import gc
import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .net_model import Demand, Network, validate_demand
from .spectrum_core import Label, UnitInterval, _require_int, label_cost, label_extend

MODES = ("base", "prime")


@dataclass(frozen=True)
class SearchOptions:
    """Search settings, checked on construction and frozen so they stay checked."""

    mode: str = "prime"
    max_route_cost: int | None = None
    enumerate_all: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if type(self.enumerate_all) is not bool:
            raise ValueError(f"enumerate_all must be True or False, got {self.enumerate_all!r}")
        if self.max_route_cost is not None:
            if self.mode != "base":
                raise ValueError(
                    "max_route_cost requires mode 'base'; the cost-sum relation "
                    "is not exact under a per-route limit"
                )
            _require_int("max_route_cost", self.max_route_cost, 0)


@dataclass(slots=True)
class SearchStats:
    """The counters of one solve, its document's ``stats``.

    ``labels_generated`` counts the root and every candidate ``expand``
    returned, so a demand blocked before any pop reports 1.
    ``labels_dominated`` counts the candidates an efficient set rejected
    plus the members accepted candidates evicted.  ``labels_settled``
    counts the live labels popped and ``queue_pops`` every pop, dead labels
    included.  ``max_labels_per_vertex`` is the most live labels one
    vertex's efficient set held at once.  ``wall_time`` is the settle
    loop's time in seconds; the setup (view, peel, ``h``) and
    ``reconstruct`` are outside it.
    """

    labels_generated: int = 0
    labels_dominated: int = 0
    labels_settled: int = 0
    queue_pops: int = 0
    max_labels_per_vertex: int = 0
    wall_time: float = 0.0

    def to_doc(self) -> dict:
        return asdict(self)


@dataclass(slots=True)
class RouteLeg:
    nodes: list[str]
    links: list[int]
    slots: UnitInterval

    def to_doc(self) -> dict:
        return {"nodes": self.nodes, "links": self.links, "slots": self.slots.to_doc()}


@dataclass(slots=True)
class Solution:
    status: str
    total_cost: int | None
    working: RouteLeg | None
    protecting: RouteLeg | None
    stats: SearchStats

    @property
    def routed(self) -> bool:
        return self.status == "routed"

    def to_doc(self) -> dict:
        doc: dict = {"status": self.status}
        if self.routed:
            doc["cost"] = self.total_cost
            doc["working"] = self.working.to_doc()
            doc["protecting"] = self.protecting.to_doc()
        doc["stats"] = self.stats.to_doc()
        return doc


class EfficientSet:
    """Undominated labels at one vertex.

    The set stays an antichain under the active relation: a candidate
    dominated by a member (equivalence included, so the incumbent wins) is
    rejected, and an accepted candidate kills every member it dominates.
    Killed labels stay in the queue with ``alive`` cleared and are skipped
    on pop.

    The relation is selected by search mode:

    * ``base``: trait-wise comparison (cost and interval of each trait).
      Exact even under a per-route cost limit, but a vertex can accumulate
      exponentially many mutually incomparable labels.  At a distinct-node
      vertex the traits are compared slot-aligned (``leq_n``).  At a vertex
      whose two nodes coincide the trait slots carry no geographic meaning,
      so labels are compared both slot-aligned and slot-swapped (``leq_x``);
      the effective relation ``leq_eq`` is their disjunction.
    * ``prime``: whole-label cost plus interval containment (``leq_prime``),
      again aligned at distinct-node vertices and aligned-or-swapped at
      same-node ones.  Keeps the per-vertex label count polynomially
      bounded; exact only when route costs are unlimited.

    The named relations are stated one comparison at a time in the tests'
    reference model, ``tests/reference.py``.

    Labels are bucketed by their interval pair, and the buckets are indexed
    in two levels: a row per slot-a interval ``(lo_a, hi_a)``, and in it a
    bucket per slot-b interval ``(lo_b, hi_b)``.  Dominance between buckets
    reduces to componentwise interval containment; within a bucket it
    reduces to cost comparison (equal intervals make any two labels
    cost-comparable).  A prime-mode bucket is the cheapest ``(label_cost,
    label)``; a base-mode bucket is the 2-D cost staircase ``(cost_a,
    cost_b, labels)``, three parallel lists with ``cost_a`` strictly
    increasing and ``cost_b`` strictly decreasing, which covers costs
    ``(xa, xb)`` when the member at ``bisect_right(cost_a, xa) - 1`` exists
    and has ``cost_b <= xb``.

    ``insert`` makes one pass over the rows, comparing the candidate with
    its slots swapped too at same-node vertices: it rejects on the first
    bucket that dominates the candidate, and otherwise evicts from every
    bucket the candidate contains, deleting a bucket, and then its row, as
    soon as it empties.  One pass is exact because the set is an
    antichain: if a member dominates the candidate, the candidate
    dominates no other member, since by transitivity that member would be
    dominated too, so nothing collected before the rejection needed
    evicting.  A property test pins this structure to the reference
    relations.
    """

    def __init__(self, same: bool, mode: str) -> None:
        self._same = same
        self._prime = mode == "prime"
        # (lo_a, hi_a) -> (lo_b, hi_b) -> (cost_a, cost_b, labels) or (label_cost, Label)
        self._rows: dict[tuple[int, int], dict[tuple[int, int], object]] = {}
        self._alive = 0
        self.peak = 0

    def __len__(self) -> int:
        return self._alive

    def alive_labels(self) -> list[Label]:
        if self._prime:
            return [entry[1] for row in self._rows.values() for entry in row.values()]
        return [label for row in self._rows.values()
                for bucket in row.values() for label in bucket[2]]

    def insert(self, label: Label) -> tuple[bool, int]:
        """Insert if undominated; returns (accepted, members_removed)."""
        ca, la, ha = label.trait_a
        cb, lb, hb = label.trait_b
        prime = self._prime
        if prime:
            ca = cb = ca + cb
        # the candidate as (slot-a interval, slot-b interval, costs) per comparison
        aligned = (la, ha, lb, hb, ca, cb)
        views = (aligned, (lb, hb, la, ha, cb, ca)) if self._same else (aligned,)
        rows = self._rows

        victims = []
        for rkey, row in rows.items():
            lo, hi = rkey
            for va, wa, vb, wb, xa, xb in views:
                if lo <= va and wa <= hi:
                    for (blo, bhi), entry in row.items():
                        if blo <= vb and wb <= bhi:
                            if prime:
                                if entry[0] <= xa:
                                    return False, 0
                            else:
                                pos = bisect_right(entry[0], xa)
                                if pos and entry[1][pos - 1] <= xb:
                                    return False, 0
                if va <= lo and hi <= wa:
                    for ckey, entry in row.items():
                        if vb <= ckey[0] and ckey[1] <= wb and (
                            not prime or entry[0] >= xa
                        ):
                            victims.append((rkey, row, ckey, entry, xa, xb))

        removed = 0
        for rkey, row, ckey, entry, xa, xb in victims:
            if prime:
                victim = entry[1]
                if not victim.alive:
                    continue  # already evicted through the other slot order
                victim.alive = False
                removed += 1
            else:
                cost_a, cost_b, labels = entry
                if not labels:
                    continue  # already emptied through the other slot order
                start = end = bisect_left(cost_a, xa)
                while end < len(cost_b) and cost_b[end] >= xb:
                    end += 1
                if start == end:
                    continue  # nothing dominated; the bucket is not empty
                for victim in labels[start:end]:
                    victim.alive = False
                removed += end - start
                del cost_a[start:end], cost_b[start:end], labels[start:end]
                if labels:
                    continue
            del row[ckey]
            if not row:
                del rows[rkey]
        self._alive -= removed

        row = rows.get((la, ha))
        if row is None:
            row = rows[(la, ha)] = {}
        if prime:
            row[(lb, hb)] = (ca, label)
        else:
            bucket = row.get((lb, hb))
            if bucket is None:
                row[(lb, hb)] = ([ca], [cb], [label])
            else:
                cost_a, cost_b, labels = bucket
                pos = bisect_left(cost_a, ca)
                cost_a.insert(pos, ca)
                cost_b.insert(pos, cb)
                labels.insert(pos, label)
        self._alive += 1
        if self._alive > self.peak:
            self.peak = self._alive
        return True, removed


def reconstruct(label: Label, net: Network, units: int) -> tuple[RouteLeg, RouteLeg]:
    """Read the two routes of a destination label off its link masks.

    Each mask's set bits name its links, ``net.links[id]``, listed in id
    order.  The route is walked back from the
    node where it ends, taking at each node the lowest-id unwalked link of
    the route there (the only one, as a route is a path) until none is
    left; a node without one is a malformed route.  Slot assignment is
    first fit: the lowest sub-interval of the demanded width inside each
    final interval.
    """
    legs = []
    for links, trait, here in ((label.links_a, label.trait_a, label.vertex[0]),
                               (label.links_b, label.trait_b, label.vertex[1])):
        if not links:
            raise ValueError("cannot reconstruct an empty route, as at the root label")
        route = []
        while links:
            low = links & -links
            route.append(net.links[low.bit_length() - 1])
            links ^= low
        nodes, walked = [here], []
        while route:
            for index, link in enumerate(route):
                if here in link.ends:
                    break
            else:
                raise RuntimeError(f"malformed route: no link of the route touches {here!r}")
            del route[index]
            here = link.other_end(here)
            nodes.append(here)
            walked.append(link.id)
        legs.append(RouteLeg(nodes[::-1], walked[::-1],
                             UnitInterval(trait[1], trait[1] + units)))
    return legs[0], legs[1]


def _shadowed(steps: list, units: int) -> list:
    """A node's view entries with each link's shadow mask filled in: the
    bits of the entries to the same far end that rank below the link by
    ``(cost, id)`` and whose free runs contain each of the link's runs at
    least ``units`` wide."""
    out = []
    for link, bit, far, _ in steps:
        runs = [iv for iv in link.available if iv.hi - iv.lo >= units]
        shadow = 0
        for other, other_bit, other_far, _ in steps:
            if other_far == far and (other.cost, other.id) < (link.cost, link.id) and all(
                    any(ov.lo <= iv.lo and iv.hi <= ov.hi for ov in other.available)
                    for iv in runs):
                shadow |= other_bit
        out.append((link, bit, far, shadow))
    return out


def _peel(near: dict[str, set[str]], src: str, dst: str) -> None:
    """Peel dead ends off ``near``, each node's distinct neighbours, in
    place: every node other than ``src`` and ``dst`` with fewer than two
    neighbours is removed, from the table and from its neighbours' sets,
    and so on until none is left.  A peeled node lies on no simple
    src–dst path over the links ``near`` was built from."""
    anchors = (src, dst)
    dead = [node for node, far in near.items() if len(far) < 2 and node not in anchors]
    while dead:
        node = dead.pop()
        for other in near.pop(node):
            far = near[other]
            far.remove(node)
            if len(far) == 1 and other not in anchors:
                dead.append(other)


class PairSearch:
    """One solve: mutable per-query state over an immutable network."""

    def __init__(self, net: Network, demand: Demand, opts: SearchOptions = SearchOptions()):
        self.opts = opts
        validate_demand(net, demand)
        self.net = net
        self.demand = demand
        units = demand.units
        usable = []
        near: dict[str, set[str]] = {node: set() for node in net.nodes}
        for link in net.links:
            a, b = link.ends
            if a == b:
                continue
            for iv in link.available:
                if iv.hi - iv.lo >= units:
                    break
            else:
                continue
            usable.append(link)
            near[a].add(b)
            near[b].add(a)
        _peel(near, demand.src, demand.dst)
        view = self._view = {node: [] for node in net.nodes}
        touching = self._touching = dict.fromkeys(net.nodes, 0)
        for link in usable:
            a, b = link.ends
            if a in near and b in near:
                bit = 1 << link.id
                view[a].append((link, bit, b, 0))
                view[b].append((link, bit, a, 0))
                touching[a] |= bit
                touching[b] |= bit
        # shadows exist only among parallel links: fill them in at the nodes
        # with more view links than kept neighbours
        for node, far in near.items():
            if len(far) < len(view[node]):
                view[node] = _shadowed(view[node], units)
        self._h = self._distances_to(demand.dst)
        self._dest = (demand.dst, demand.dst)
        self._sets: dict[tuple[str, str], EfficientSet] = {}
        self._ran = False

    def _distances_to(self, target: str) -> dict[str, int]:
        """Cheapest cost from each node to target over the view; a node
        that cannot reach target over it, a peeled node included, is
        absent."""
        dist = {target: 0}
        heap = [(0, target)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for link, _, other, _ in self._view[node]:
                nd = d + link.cost
                if other not in dist or nd < dist[other]:
                    dist[other] = nd
                    heapq.heappush(heap, (nd, other))
        return dist

    @property
    def destination_count(self) -> int:
        """Labels currently stored at the destination vertex."""
        found = self._sets.get(self._dest)
        return len(found) if found is not None else 0

    def expand(self, label: Label) -> list[Label]:
        """Candidate labels from appending one incident link, keeping each
        route a path.

        Each route is its link mask: a link is used when either mask holds
        its bit, and a node is on a route when the route's mask meets the
        node's view links.  Both vertex nodes contribute their links; at a
        same-node vertex only slot a is extended, because slots are
        interchangeable there and the slot-b expansion reappears one step
        later with the roles swapped.  A route that has reached the
        destination is not extended, and a link is skipped when the label
        already uses it, when its far end is already on the extending
        route, the source included, or while a link of its ``shadow`` is
        unused by the label.  Only view links are tried, and
        ``label_extend`` gets the view's far end.  Under a route-cost
        limit, a link is not appended when the extended route, plus the
        cheapest way on from the far end, would cost more than the limit.
        """
        out: list[Label] = []
        a, b = label.vertex
        links_a, links_b = label.links_a, label.links_b
        used = links_a | links_b
        limit = self.opts.max_route_cost
        units = self.demand.units
        dst = self.demand.dst
        h = self._h
        view = self._view
        touching = self._touching
        sides = ((("a", a, label.trait_a[0], links_a),) if a == b
                 else (("a", a, label.trait_a[0], links_a),
                       ("b", b, label.trait_b[0], links_b)))
        free = ~used
        for side, node, spent, route in sides:
            if node == dst:
                continue
            for link, bit, far, shadow in view[node]:
                if used & bit or shadow & free or route & touching[far]:
                    continue
                if limit is not None and spent + link.cost + h[far] > limit:
                    continue
                out += label_extend(label, link, far, side, units)
        return out

    def run(self) -> Solution:
        """Settle labels with the cyclic garbage collector paused.

        The collector is re-enabled when the search returns or raises, and
        left off if the caller had turned it off.  It is process-wide:
        cyclic garbage made by other threads meanwhile waits until the
        solve ends.
        """
        if self._ran:
            raise RuntimeError("PairSearch.run may only be called once")
        self._ran = True
        paused = gc.isenabled()
        gc.disable()
        try:
            return self._settle()
        finally:
            if paused:
                gc.enable()

    def _settle(self) -> Solution:
        """Settle labels over the usable-link view in A* key order.

        A label's key is its cost plus its vertex's ``h(a) + h(b)``, and
        keys must pop in nondecreasing order; a decrease is an internal
        error.  Efficient sets are created here, the root's included, on a
        vertex's first candidate.  A source that
        cannot reach the destination in the view blocks the demand with no
        pop.  The first destination label settled is returned; with
        ``enumerate_all`` the queue is drained first, so the destination's
        efficient set ends complete.
        """
        started = time.perf_counter()
        h = self._h
        sets = self._sets
        mode = self.opts.mode
        dest = self._dest
        enumerate_all = self.opts.enumerate_all
        expand = self.expand
        heappush = heapq.heappush
        heappop = heapq.heappop
        src = self.demand.src
        full = (0, 0, self.net.unit_count)
        root = Label(full, full, (src, src))
        heap: list[tuple] = []
        push = 0
        if src in h:
            root_set = sets[root.vertex] = EfficientSet(True, mode)
            root_set.insert(root)
            heap.append((2 * h[src], root.vertex, 0, 0, push, root))
            push += 1
        generated = 1
        dominated = settled = pops = 0
        best: Label | None = None
        last_key = 0  # costs and h are non-negative

        while heap:
            key, vertex, _, _, _, label = heappop(heap)
            pops += 1
            if not label.alive:
                continue
            if key < last_key:
                raise RuntimeError("internal invariant breach: pop keys decreased")
            last_key = key
            settled += 1
            if vertex == dest:
                # terminal: extending past the destination cannot help,
                # costs only grow and intervals only shrink
                if best is None:
                    best = label
                    if not enumerate_all:
                        break
                continue
            cands = expand(label)
            generated += len(cands)
            for cand in cands:
                vertex = cand.vertex
                found = sets.get(vertex)
                if found is None:
                    found = sets[vertex] = EfficientSet(vertex[0] == vertex[1], mode)
                accepted, removed = found.insert(cand)
                if accepted:
                    (ca, la, _), (cb, lb, _) = cand.trait_a, cand.trait_b
                    heappush(heap, (ca + cb + h[vertex[0]] + h[vertex[1]], vertex,
                                    la, lb, push, cand))
                    push += 1
                else:
                    removed += 1  # the candidate itself
                dominated += removed

        stats = SearchStats(generated, dominated, settled, pops,
                            max((s.peak for s in sets.values()), default=0),
                            time.perf_counter() - started)
        if best is None:
            return Solution("blocked", None, None, None, stats)
        working, protecting = reconstruct(best, self.net, self.demand.units)
        return Solution("routed", label_cost(best), working, protecting, stats)


def solve(net: Network, demand: Demand, opts: SearchOptions = SearchOptions()) -> Solution:
    """Find a minimal-cost link-disjoint route pair, or report blocked."""
    return PairSearch(net, demand, opts).run()
