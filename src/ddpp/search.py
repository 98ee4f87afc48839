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
them: it tests the bit against the label's masks, grows the route's mask
with it and orders the new vertex with the far end.

``expand`` is the search's kernel: every candidate label is built there.
For each link that passes its tests it clips the extending trait against
the link's free intervals, as ``spectrum_core.trait_extend`` does, and
builds each candidate ``Label`` itself.  ``trait_extend`` and
``label_extend`` are its tested one-step reference: the dominance
properties are proven on them, ``_pair_bound`` folds its legs with
``trait_extend``, and a differential test pins ``expand`` to a reference
expansion that calls ``label_extend`` for each link.

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

Before it settles any label, ``PairSearch.run`` looks for the cheapest
link-disjoint pair of view routes, blind to spectrum (Suurballe 1974;
Suurballe & Tarjan 1984), and keeps its cost as a bound ``U`` when both
routes fit (A* with an incumbent, Hart, Nilsson & Raphael 1968).  One
Dijkstra with potentials, ``_dijkstra``, makes both of Suurballe's passes.
From the destination with zero potentials it gives ``h`` and its tree,
whose path from the source is route one.  From the source over the
residual view, in ``_suurballe``, with costs reduced by ``h``, it gives
route two: a link off route one may be crossed either way, from ``u`` to
``v`` at ``cost + h(v) - h(u)``, never negative as ``h`` is consistent,
and a link of route one only backwards, from its destination side to its
source side, at 0: an A* toward the destination, which stops on settling
it.  The pass is one augmenting step of a unit-capacity flow, so it fails
to settle it exactly when the view holds no two link-disjoint routes
(Menger 1927); ``_suurballe`` then returns None, and there is no bound.  A
link the two routes cross in opposite directions cancels.  At every other
node as many of the links left lead in as out, so two link-disjoint legs
are walked from the source to the destination over them, and their costs
sum to at most ``2 h(src) + dist(dst)``, the cheapest pair's cost.
``_pair_bound`` folds each leg as it is walked, as a label's route is: the
full band goes through ``trait_extend`` link by link, so the traits left
at the destination are the leg's runs of ``demand.units`` units free on
all of its links, and each carries the leg's cost.  A leg needs at least
one trait and, under a route-cost limit, that cost within the limit;
otherwise there is no bound, so a blocked demand never has one.  A leg
holds a path over a subset of its links, which fits wherever the leg does,
so a bound is at least the optimum; and the optimum is a link-disjoint
pair of view routes, so it is at least the bound: a bound, whenever it
exists, is the optimum.  The fold's work depends on the links' free
intervals and not on the unit count.  An ``enumerate_all`` solve takes no
bound either: the destination's front needs its costlier members.
``expand`` skips a link when the candidate's key, the label's cost plus
the link's plus ``h`` of its far end and of the other route's end, would
exceed ``U``, before the trait is clipped, so a skipped candidate
costs no spectrum algebra, no label, no insertion and no push.  The skip
is exact.  Keys never fall along an extension, and the search stops at the
first destination label, whose key is the optimum, at most ``U``; so no
label keyed above ``U`` would be settled.  A label that dominates another
at the same vertex costs no more, so its key is no higher, in both
relations and both slot orders: a candidate keyed above ``U`` could reject
or evict only labels keyed above ``U``.  Every label keyed at most ``U``
therefore has the same parent and the same accept, reject and evict fate
as without the bound, and push numbers keep their relative order.  The
test is strict, because ties with the optimum decide the returned pair.
Every answer, ``labels_settled`` and ``queue_pops`` are therefore
unchanged; only ``labels_generated``, ``labels_dominated`` and
``max_labels_per_vertex`` fall.  The differential tests check this against
solves with no bound.

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
from .spectrum_core import Label, UnitInterval, _require_int, label_cost, trait_extend
from .spectrum_core import label_extend  # unused here: bench/run.py's tracer wraps it by name

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
    returned, so a demand blocked before any pop reports 1; on a routed
    demand solved with a pair bound it counts only the candidates within
    the bound.
    ``labels_dominated`` counts the candidates an efficient set rejected
    plus the members accepted candidates evicted.  ``labels_settled``
    counts the live labels popped and ``queue_pops`` every pop, dead labels
    included.  ``max_labels_per_vertex`` is the most live labels one
    vertex's efficient set held at once.  ``wall_time`` is the settle
    loop's time in seconds; the setup (view, peel, ``h``), the pair bound
    (``_suurballe`` and ``_pair_bound``) and ``reconstruct`` are outside
    it.
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


def _dijkstra(view: dict, start: str, h: dict[str, int], stop: str | None = None,
              taken: int = 0, toward: dict | None = None) -> tuple[dict[str, int], dict]:
    """Dijkstra from ``start`` over the view, a link from ``u`` to ``v`` at
    ``cost + h[v] - h[u]`` and a link in ``taken`` only back along
    ``toward``, at 0: each reached node's distance and tree link, the link
    that last improved it; a peeled node is never reached.  Each node is
    expanded once, so it ends even where ``h`` is not consistent, and it
    stops on settling ``stop``."""
    dist = {start: 0}
    tree = {}
    done = set()
    heap = [(0, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == stop:
            break
        rest = d - h[node]
        for link, bit, far, _ in view[node]:
            if taken & bit:
                if toward.get(far) is not link:
                    continue
                nd = d
            else:
                nd = rest + link.cost + h[far]
            if far not in dist or nd < dist[far]:
                dist[far] = nd
                tree[far] = link
                heapq.heappush(heap, (nd, far))
    return dist, tree


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
        self._h, self._toward = _dijkstra(view, demand.dst, dict.fromkeys(view, 0))
        self._dest = (demand.dst, demand.dst)
        self._sets: dict[tuple[str, str], EfficientSet] = {}
        self._bound: int | None = None
        self._ran = False

    def _suurballe(self) -> tuple[int, dict] | None:
        """Suurballe's pair over the view, blind to spectrum, as the module
        docstring describes it: its cost and ``out``, the links each node is
        left by toward the destination as ``(link, far end)`` lists; or None
        when the view holds no two link-disjoint src–dst routes."""
        src, dst = self.demand.src, self.demand.dst
        h, toward = self._h, self._toward
        if src not in h:
            return None
        # route one down the h tree
        out: dict[str, list] = {}
        taken = 0
        node = src
        while node != dst:
            link = toward[node]
            prev, node = node, link.other_end(node)
            out[prev] = [(link, node)]
            taken |= 1 << link.id
        dist, tree = _dijkstra(self._view, src, h, dst, taken, toward)
        if dst not in dist:
            return None
        # route two, walked back from dst; a route-one link it crosses cancels
        while node != src:
            link = tree[node]
            prev = link.other_end(node)
            if taken >> link.id & 1:
                out[node].remove((link, prev))
            else:
                out.setdefault(prev, []).append((link, node))
            node = prev
        return 2 * h[src] + dist[dst], out

    def _pair_bound(self, cost: int, out: dict) -> int | None:
        """``cost``, that of Suurballe's pair ``out``, when both legs fit, or
        None.  Each leg is walked off ``out`` and folded through
        ``trait_extend`` at once; its cost rides in the traits, so one pass
        tests its window and the route-cost limit.  A bound is the optimum."""
        src, dst, units = self.demand.src, self.demand.dst, self.demand.units
        limit = self.opts.max_route_cost
        for leg in range(2):
            traits, node = [(0, 0, self.net.unit_count)], src
            while node != dst:
                link, node = out[node].pop()
                traits = [piece for trait in traits for piece in trait_extend(trait, link, units)]
            if not traits or limit is not None and traits[0][0] > limit:
                return None
        return cost

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
        unused by the label.  Only view links are tried, and the far end
        is the view's.  Under a route-cost limit, a link is not appended
        when the extended route, plus the cheapest way on from the far end,
        would cost more than the limit.
        Once ``run`` has set a pair bound, a link is not appended when the
        candidate's key would exceed it.  Both tests are one comparison of
        ``link.cost + h[far]`` against a cap per side, made only when a
        limit or a bound exists.

        Every candidate of the search is built here (the module docstring
        names its one-step reference): the extending trait, the kept trait
        and the kept route are chosen once per side; each link that passes
        gives one candidate per piece of the trait's interval free on the
        link and at least ``demand.units`` wide, with the grown route's mask
        and the vertex ordered, as ``label_extend`` gives them and in the
        same order.
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
        bound = self._bound
        trait_a, trait_b = label.trait_a, label.trait_b
        sides = (((a, trait_a, links_a, b, trait_b, links_b),) if a == b
                 else ((a, trait_a, links_a, b, trait_b, links_b),
                       (b, trait_b, links_b, a, trait_a, links_a)))
        free = ~used
        for node, trait, route, kept, kept_trait, kept_links in sides:
            if node == dst:
                continue
            spent, lo, hi = trait
            # the most link.cost + h[far] may be: None when nothing caps it
            cap = None if limit is None else limit - spent
            if bound is not None:
                room = bound - trait_a[0] - trait_b[0] - h[kept]
                if cap is None or room < cap:
                    cap = room
            for link, bit, far, shadow in view[node]:
                if used & bit or shadow & free or route & touching[far]:
                    continue
                if cap is not None and link.cost + h[far] > cap:
                    continue
                cost = spent + link.cost
                grown = route | bit
                ordered = far <= kept
                vertex = (far, kept) if ordered else (kept, far)
                # trait_extend's clip: the walk stops at the first free
                # interval starting at or past hi
                for iv in link.available:
                    piece_lo = iv.lo
                    if piece_lo >= hi:
                        break
                    piece_hi = iv.hi
                    if piece_lo < lo:
                        piece_lo = lo
                    if piece_hi > hi:
                        piece_hi = hi
                    if piece_hi - piece_lo >= units:
                        piece = (cost, piece_lo, piece_hi)
                        out.append(Label(piece, kept_trait, vertex, grown, kept_links)
                                   if ordered else
                                   Label(kept_trait, piece, vertex, kept_links, grown))
        return out

    def run(self) -> Solution:
        """Settle labels with the cyclic garbage collector paused.

        Unless ``enumerate_all`` is set, the pair bound, ``_suurballe``'s
        pair passed through ``_pair_bound``, is found first, inside the
        pause, so ``expand`` on a search that has not run uses none.

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
            if not self.opts.enumerate_all:
                pair = self._suurballe()
                if pair is not None:
                    self._bound = self._pair_bound(*pair)
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
