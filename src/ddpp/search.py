"""Label-setting search for a minimal-cost link-disjoint route pair.

The search graph is implicit: vertices are canonical unordered node pairs,
and expanding a label appends one network link to one of its two routes,
keeping each route a path that ends at the destination once it reaches it.
Each vertex keeps only its undominated labels under the relation selected
by ``SearchOptions.mode``, and a priority queue with lazy deletion settles
labels in goal-directed (A*) order.

The search runs over a per-demand *usable-link view*: the links with a
free run of at least ``demand.units`` units, the only links a route can
cross.  One Dijkstra from the destination over the view gives ``h(node)``,
the cheapest cost from the node to the destination.  A label at vertex
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

Each queue entry is one flat tuple ``(key, vertex, lo_a, lo_b, push,
label)``, so ties are broken by a fixed total order: key, vertex, the two
interval starts, then the push number, which is unique, so labels are never
compared and a solve is deterministic for fixed inputs.  The view lists
each link as ``(link, 1 << link.id, far end)``, the one home of both:
``expand`` tests the bit and hands the far end to ``label_extend``.

A search allocates several container objects per accepted candidate (the
label, its trait and vertex tuples, a route cell and a heap entry), so the
cyclic garbage collector would run many times per solve, each time
rescanning the labels still alive and, in its full collections, everything
the caller holds.  None of these objects forms a reference cycle, so
reference counting alone frees them; ``PairSearch.run`` therefore pauses
the collector while it settles labels.
"""

from __future__ import annotations

import gc
import heapq
import time
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .net_model import Demand, Network, validate_demand
from .spectrum_core import Label, UnitInterval, _is_int, label_cost, label_extend

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
            if not _is_int(self.max_route_cost):
                raise ValueError(f"max_route_cost must be an integer, got {self.max_route_cost!r}")
            if self.max_route_cost < 0:
                raise ValueError(f"max_route_cost must be >= 0, got {self.max_route_cost}")


@dataclass(slots=True)
class SearchStats:
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

    ``insert`` makes one pass over the rows.  A row is visited only when
    its key can contain the candidate's slot-a interval or be contained in
    it; inside such a row only the slot-b keys are compared.  At same-node
    vertices the candidate is also compared with its slots swapped, which
    is the cross comparison.  The pass rejects on the first dominating
    bucket, testing a staircase with one bisection, and otherwise
    collects each bucket the candidate contains as a victim
    ``(row key, row, bucket key, entry, costs)``: the row dict and the
    bucket's entry it was found in, with the candidate's costs in that
    comparison's slot order.  Eviction works on those objects directly, so
    it neither looks a bucket up again nor rebuilds a key.  A bucket, and
    then its row, is deleted as soon as it empties; a bucket that both
    slot orders collected is skipped the second time once it is gone (its
    prime label dead, its staircase empty).  One pass is exact because the
    set is an antichain: if a member dominates the candidate, the candidate
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
    """Read the two routes of a destination label off its route lists.

    Each list is walked back from the node where its route ends to the
    source.  Slot assignment is first fit: the lowest sub-interval of the
    demanded width inside each final interval.
    """
    legs = []
    for route, trait, here in ((label.route_a, label.trait_a, label.vertex[0]),
                               (label.route_b, label.trait_b, label.vertex[1])):
        if route is None:
            raise ValueError("cannot reconstruct an empty route, as at the root label")
        nodes, links = [here], []
        while route is not None:
            link_id, route = route
            try:
                here = net.links[link_id].other_end(here)
            except ValueError:
                raise RuntimeError(
                    f"malformed route: link {link_id} does not touch {here!r}") from None
            nodes.append(here)
            links.append(link_id)
        legs.append(RouteLeg(nodes[::-1], links[::-1],
                             UnitInterval(trait[1], trait[1] + units)))
    return legs[0], legs[1]


class PairSearch:
    """One solve: mutable per-query state over an immutable network."""

    def __init__(self, net: Network, demand: Demand, opts: SearchOptions = SearchOptions()):
        self.opts = opts
        validate_demand(net, demand)
        self.net = net
        self.demand = demand
        self.stats = SearchStats()
        units = demand.units
        # the usable-link view: only links with a wide enough free run;
        # each link is tested once, then listed at both of its ends as
        # (link, its used-links bit, the far end from that node)
        usable = [any(iv.hi - iv.lo >= units for iv in link.available)
                  for link in net.links]
        self._view = {node: tuple((link, 1 << link.id, link.other_end(node))
                                  for link in links if usable[link.id])
                      for node, links in net.incidence.items()}
        # a route's nodes are the ends of its links and the source, so a node
        # is on it when the route uses one of the node's view links; the
        # source's self-loops stand in for the source itself, as the
        # source's own links do for a route that is not empty
        self._touching = {node: sum(bit for _, bit, _ in steps)
                          for node, steps in self._view.items()}
        self._source_loops = sum(bit for _, bit, far in self._view[demand.src]
                                 if far == demand.src)
        self._h = self._distances_to(demand.dst)
        self._dest = (demand.dst, demand.dst)
        self._sets: dict[tuple[str, str], EfficientSet] = {}
        self._ran = False

    def _distances_to(self, target: str) -> dict[str, int]:
        """Cheapest cost from each node to target over the view; a node
        that cannot reach target is absent."""
        dist = {target: 0}
        heap = [(0, target)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            for link, _, other in self._view[node]:
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

        Both vertex nodes contribute their links; at a same-node vertex
        only slot a is extended, because slots are interchangeable there
        and the slot-b expansion reappears one step later with the roles
        swapped.  A route that has reached the destination is not
        extended, and a link is skipped when the label already uses it or
        when its far end is already on the extending route, the source
        included.  Only links of the usable-link view are tried, so the far
        end of each has ``h`` whenever the label's nodes do, and
        ``label_extend`` gets the view's far end.  Under a route-cost
        limit, a link is not appended when the extended route, plus the
        cheapest way on from the far end, would cost more than the limit.

        Keeping routes paths loses no answer: a trail that revisits a node
        or walks on past the destination contains a path from the source to
        the destination over a subset of its links.  That path stays
        disjoint from the other route, costs no more, has every free
        interval of the trail inside one of its own, and so also stays
        within any route-cost limit.  The oracle still enumerates trails, so its
        differential tests check this claim.
        """
        out: list[Label] = []
        a, b = label.vertex
        used = label.used_links
        links_a = label.links_a
        limit = self.opts.max_route_cost
        units = self.demand.units
        dst = self.demand.dst
        h = self._h
        view = self._view
        touching = self._touching
        loops = self._source_loops
        sides = ((("a", a, label.trait_a[0], links_a),) if a == b
                 else (("a", a, label.trait_a[0], links_a),
                       ("b", b, label.trait_b[0], used ^ links_a)))
        for side, node, spent, route in sides:
            if node == dst:
                continue
            route |= loops
            for link, bit, far in view[node]:
                if used & bit or route & touching[far]:
                    continue
                if limit is not None and spent + link.cost + h[far] > limit:
                    continue
                out += label_extend(label, link, far, side, units)
        return out

    def run(self) -> Solution:
        """Settle labels with the cyclic garbage collector paused.

        The labels, tuples and heap entries a search builds form no
        reference cycle, so reference counting frees each one and a
        collection could only rescan them; pausing the collector changes
        no result.  It is re-enabled when the search returns or raises,
        and left off if the caller had turned it off.  The collector is
        process-wide: cyclic garbage made by other threads meanwhile waits
        until the solve ends.
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
        error.  Queue entries are flat tuples ``(key, vertex, lo_a, lo_b,
        push, label)``: key, then vertex, then the two interval starts,
        then the push number break ties, and push numbers are unique, so
        labels are never compared.  Efficient sets are created here, the
        root's included, on a vertex's first candidate.  A source that
        cannot reach the destination in the view blocks the demand with no
        pop.  The first destination label settled is returned; with
        ``enumerate_all`` the queue is drained first, so the destination's
        efficient set ends complete.
        """
        started = time.perf_counter()
        stats = self.stats
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

        stats.labels_generated = generated
        stats.labels_dominated = dominated
        stats.labels_settled = settled
        stats.queue_pops = pops
        stats.max_labels_per_vertex = max((s.peak for s in sets.values()), default=0)
        stats.wall_time = time.perf_counter() - started
        if best is None:
            return Solution("blocked", None, None, None, stats)
        working, protecting = reconstruct(best, self.net, self.demand.units)
        return Solution("routed", label_cost(best), working, protecting, stats)


def solve(net: Network, demand: Demand, opts: SearchOptions = SearchOptions()) -> Solution:
    """Find a minimal-cost link-disjoint route pair, or report blocked."""
    return PairSearch(net, demand, opts).run()
