"""Probabilistic verification machinery for rooted decorated graphs.

Finite weighted families of rooted graphs stand in for unimodular measures:
the mass-transport identity, the bigraph duality transform, delayed random
walks with ergodic averaging, and indistinguishability statistics for tile
pieces are all checked at the finite level with exact rational arithmetic
where the statement is exact, and with 3-sigma bands where it is statistical.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from .exports import dumps_indented


# -- graphs ----------------------------------------------------------------------


class Graph:
    """A decorated simple graph as two plain dicts.

    ``nodes[v]`` is the attribute dict of vertex ``v``, and ``adj[v]`` maps
    each neighbour of ``v`` to the attribute dict of their edge, one dict
    shared by both ends; a self-loop at ``v`` puts ``v`` in ``adj[v]``.
    Every suite here reads a graph only through ``adj``, ``nodes``, ``len``,
    ``in`` and iteration over the vertices, so a networkx graph can stand
    wherever a `Graph` is read.
    """

    def __init__(self, nodes: Dict, edges: Iterable[Tuple] = ()):
        """``nodes`` maps each vertex, in order, to its attributes, and
        ``edges`` lists ``(u, v, attributes)``; both are copied."""
        self.nodes: Dict = {v: dict(attr) for v, attr in nodes.items()}
        self.adj: Dict = {v: {} for v in self.nodes}
        for u, v, attr in edges:
            self.adj[u][v] = self.adj[v][u] = dict(attr)

    def __iter__(self) -> Iterator:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, v) -> bool:
        return v in self.nodes


def _edges(g) -> Iterator[Tuple]:
    """Each edge of ``g`` once, as networkx's ``g.edges`` yields it: in
    vertex order, ``(u, v)`` with ``u`` the endpoint met first."""
    adj = g.adj
    seen = set()
    for u in g:
        for v in adj[u]:
            if v not in seen:
                yield u, v
        seen.add(u)


def _degree(g, v) -> int:
    """The degree of ``v``, a self-loop counting twice (as in networkx)."""
    nbrs = g.adj[v]
    return len(nbrs) + (v in nbrs)


def _distances(g, root, cutoff: Optional[int] = None) -> Dict:
    """Breadth-first graph distance from ``root`` to each vertex at most
    ``cutoff`` away (every reachable one without a cutoff)."""
    adj = g.adj
    dist = {root: 0}
    frontier = [root]
    d = 0
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        reached = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
    return dist


def _connected(g) -> bool:
    """Is ``g`` connected? The empty graph is."""
    return not len(g) or len(_distances(g, next(iter(g)))) == len(g)


# -- rooted samples ------------------------------------------------------------


class RootedSample:
    """A finite decorated graph with a distinguished root and a sampling weight."""

    def __init__(self, graph: Graph, root, weight: Fraction):
        if root not in graph:
            raise ValueError("root must be a vertex of the graph")
        self.graph = graph
        self.root = root
        self.weight = Fraction(weight)
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")

    def __repr__(self):
        return (f"RootedSample(n={len(self.graph)}, "
                f"root={self.root!r}, weight={self.weight})")


def uniform_family(graph: Graph) -> List[RootedSample]:
    """One sample per vertex, each with weight 1/|V| (uniform rooting)."""
    n = len(graph)
    return [RootedSample(graph, v, Fraction(1, n)) for v in sorted(graph, key=repr)]


# -- rooted balls ---------------------------------------------------------------


_NO_EDGE = object()  # the "color" of a pair that is not an edge


def _color(nbrs, v):
    """The color of the edge to ``v`` in adjacency ``nbrs``, `_NO_EDGE` if none."""
    attr = nbrs.get(v)
    return _NO_EDGE if attr is None else attr.get("color")


def _balls_isomorphic(g, x, h, y, r: int) -> bool:
    """Are the rooted ``r``-balls of ``x`` in ``g`` and ``y`` in ``h``
    isomorphic?

    A ball is the subgraph induced on the vertices at most ``r`` away from
    its root.  The root maps to the root, and a backtracking search takes
    the other vertices of ``x``'s ball in breadth-first order, mapping each
    to a free vertex of ``y``'s ball with the same distance to the root,
    mark and self-loop color, and the same edge color (no edge counting as
    a color) to every vertex mapped so far.
    """
    dx, dy = _distances(g, x, r), _distances(h, y, r)
    if len(dx) != len(dy):
        return False
    xs, ys = list(dx), list(dy)  # breadth-first, the root first
    gadj, hadj = g.adj, h.adj
    sx = [(d, g.nodes[a].get("mark"), _color(gadj[a], a)) for a, d in dx.items()]
    sy = [(d, h.nodes[b].get("mark"), _color(hadj[b], b)) for b, d in dy.items()]
    if sx[0] != sy[0]:
        return False
    image = [0]  # image[i]: index in ys of the image of xs[i]
    free = [False] + [True] * (len(ys) - 1)
    j = 0  # the first candidate image of xs[len(image)] left to try
    while len(image) < len(xs):  # a loop, not recursion: balls of any size
        i = len(image)
        na = gadj[xs[i]]
        for j in range(j, len(ys)):
            if not (free[j] and sx[i] == sy[j]):
                continue
            nb = hadj[ys[j]]
            if all(_color(na, xs[k]) == _color(nb, ys[m])
                   for k, m in enumerate(image)):
                free[j] = False
                image.append(j)
                j = 0
                break
        else:  # no image left for xs[i]: move xs[i - 1] to its next one
            if i == 1:
                return False
            j = image.pop()
            free[j] = True
            j += 1
    return True


# -- transport function battery ------------------------------------------------

F_BATTERY_VERSION = "1.0"

# A transport function takes a graph ``g``, reads once what it needs of it,
# and returns the function ``(x, y) -> mass sent from x to y`` on ``g``.
TransportFn = Callable[[Graph], Callable[[object, object], Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _f_unit_neighbors(g):
    adj = g.adj
    return lambda x, y: _ONE if y in adj[x] else _ZERO


def _f_inverse_degree(g):
    adj = g.adj
    return lambda x, y: Fraction(1, _degree(g, x)) if y in adj[x] else _ZERO


def _f_unit_self(g):
    return lambda x, y: _ONE if x == y else _ZERO


def _f_neighbor_degree(g):
    adj = g.adj
    return lambda x, y: Fraction(_degree(g, y)) if y in adj[x] else _ZERO


def _f_mark_match(g):
    adj, nodes = g.adj, g.nodes

    def f(x, y):
        if y in adj[x] and nodes[x].get("mark") == nodes[y].get("mark"):
            return _ONE
        return _ZERO
    return f


def _f_color_weight(g):
    adj = g.adj
    colors = sorted({repr(adj[u][v].get("color")) for u, v in _edges(g)})
    rank = {c: Fraction(i + 1) for i, c in enumerate(colors)}

    def f(x, y):
        attr = adj[x].get(y)
        return _ZERO if attr is None else rank[repr(attr.get("color"))]
    return f


def _f_ball_iso(g):
    adj = g.adj
    same: Dict = {}  # unordered edge -> are its endpoints' 1-balls isomorphic

    def f(x, y):
        if y not in adj[x]:
            return _ZERO
        edge = frozenset((x, y))
        hit = same.get(edge)
        if hit is None:
            hit = same[edge] = _balls_isomorphic(g, x, g, y, 1)
        return _ONE if hit else _ZERO
    return f


def _f_distance_two(g):
    adj = g.adj

    def f(x, y):
        if x == y or y in adj[x]:
            return _ZERO
        for z in adj[x]:
            if y in adj[z]:
                return _ONE
        return _ZERO
    return f


# name -> (transport function, description), in manifest order
F_BATTERY: Dict[str, Tuple[TransportFn, str]] = {
    "unit_to_neighbors": (_f_unit_neighbors, "send 1 along every edge"),
    "inverse_degree_on_edges": (
        _f_inverse_degree, "send 1/deg(x) along every edge out of x"),
    "unit_to_self": (_f_unit_self, "send 1 from every vertex to itself"),
    "neighbor_degree": (_f_neighbor_degree, "send deg(y) along every edge"),
    "mark_match_on_edges": (
        _f_mark_match, "send 1 along edges whose endpoint marks agree"),
    "edge_color_rank": (
        _f_color_weight, "send the rank of the edge color along every edge"),
    "one_ball_isomorphic_neighbors": (
        _f_ball_iso, "send 1 to neighbors with rooted-isomorphic 1-balls"),
    "distance_exactly_two": (
        _f_distance_two, "send 1 to vertices at graph distance exactly 2"),
}


def battery_manifest() -> str:
    return dumps_indented({
        "version": F_BATTERY_VERSION,
        "functions": [{"name": name, "description": text}
                      for name, (_f, text) in F_BATTERY.items()],
    })


# -- mass transport ------------------------------------------------------------


def mtp_check(samples: Sequence[RootedSample],
              f: TransportFn) -> Tuple[Fraction, Fraction, bool]:
    """Exact expected mass out of the root vs into the root.

    ``f(g)(x, y)`` must be a pure function of ``(g, x, y)``: ``f(g)`` is
    called once per distinct graph of the samples, and each value once per
    distinct ``(graph, x, y)``.  Both sides sum, over every sample and every
    vertex ``y`` of its graph, the values at ``(root, y)`` and at
    ``(y, root)``.
    """
    lhs: Dict[int, int] = {}  # per side: denominator -> sum of numerators
    rhs: Dict[int, int] = {}
    on_graph: Dict = {}  # graph, by identity -> (f(graph), {(x, y): value})
    for s in samples:
        g, root = s.graph, s.root
        if g not in on_graph:
            on_graph[g] = (f(g), {})
        fg, values = on_graph[g]

        def value(x, y):
            v = values.get((x, y))
            if v is None:
                v = values[x, y] = fg(x, y)
            return v

        wn, wd = s.weight.numerator, s.weight.denominator
        # zero values are evaluated like the others but add nothing
        for side, terms in ((lhs, [value(root, y) for y in g]),
                            (rhs, [value(y, root) for y in g])):
            for v in filter(None, terms):
                d = wd * v.denominator
                side[d] = side.get(d, 0) + wn * v.numerator
    lhs_sum, rhs_sum = _exact_sum(lhs), _exact_sum(rhs)
    return lhs_sum, rhs_sum, lhs_sum == rhs_sum


def _exact_sum(terms: Dict[int, int]) -> Fraction:
    """The sum of ``n/d`` over ``terms`` (``d -> n``) as one `Fraction`:
    int numerators brought over the common denominator, then added."""
    den = math.lcm(*terms)
    return Fraction(sum(n * (den // d) for d, n in terms.items()), den)


def mtp_battery(samples: Sequence[RootedSample]) -> Dict[str, dict]:
    """`mtp_check` of every function of `F_BATTERY`, each a pure function of
    ``(g, x, y)``: each value is evaluated once per distinct
    ``(graph, x, y)``, and 1-ball isomorphism is decided once per edge."""
    out = {}
    for name, (f, _text) in F_BATTERY.items():
        lhs, rhs, ok = mtp_check(samples, f)
        out[name] = {"lhs": str(lhs), "rhs": str(rhs), "equal": ok}
    return out


# -- bigraphs and duality --------------------------------------------------------


def _require_connected(primary: Graph, secondary: Graph) -> None:
    """Raise ValueError unless both graphs of a bigraph are connected."""
    if not _connected(primary):
        raise ValueError("primary graph must be connected")
    if not _connected(secondary):
        raise ValueError("secondary graph must be connected")


class Bigraph:
    """A primary graph with a decoration graph on a subset of its vertices."""

    def __init__(self, primary: Graph, secondary: Graph, root):
        _require_connected(primary, secondary)
        if root not in primary:
            raise ValueError("root must be a primary vertex")
        self.primary = primary
        self.secondary = secondary
        self.root = root

    @staticmethod
    def _of(primary: Graph, secondary: Graph, root) -> "Bigraph":
        """A bigraph over graphs already known to be connected, ``root`` a
        primary vertex: a family shares its two graphs, so they are checked
        once for it, not once per member."""
        b = object.__new__(Bigraph)
        b.primary, b.secondary, b.root = primary, secondary, root
        return b

    def dual(self) -> "Bigraph":
        if self.root not in self.secondary:
            raise ValueError("cannot dualize: root outside the secondary graph")
        return Bigraph._of(self.secondary, self.primary, self.root)

    def root_in_secondary(self) -> bool:
        return self.root in self.secondary


class WeightedBigraph:
    def __init__(self, bigraph: Bigraph, weight: Fraction):
        self.bigraph = bigraph
        self.weight = Fraction(weight)


def reroot_to_H(family: Sequence[WeightedBigraph]) -> List[WeightedBigraph]:
    """Condition on the root lying in the secondary vertex set; renormalize."""
    kept = [w for w in family if w.bigraph.root_in_secondary()]
    mass = sum((w.weight for w in kept), Fraction(0))
    if mass == 0:
        raise ValueError("no mass on roots inside the secondary graph")
    return [WeightedBigraph(w.bigraph, w.weight / mass) for w in kept]


def dual_family(family: Sequence[WeightedBigraph]) -> List[WeightedBigraph]:
    return [WeightedBigraph(w.bigraph.dual(), w.weight) for w in family]


def bigraph_samples(family: Sequence[WeightedBigraph]) -> List[RootedSample]:
    """Rooted samples over the primary graphs of a weighted bigraph family.

    The root must lie in each primary graph; transport functions evaluated on
    the primary graph vanish outside it, which is the finite version of
    extending f by zero off the decoration.
    """
    out = []
    for w in family:
        if w.bigraph.root not in w.bigraph.primary:
            raise ValueError("root outside primary graph; reroot first")
        out.append(RootedSample(w.bigraph.primary, w.bigraph.root, w.weight))
    return out


# -- delayed random walk ---------------------------------------------------------


def delayed_srw(graph: Graph, omega: Graph, start, steps: int,
                seed) -> List:
    """Propose a uniform graph neighbor; move only along edges of ``omega``."""
    if start not in graph:
        raise ValueError("start must be a graph vertex")
    rng = random.Random(f"delayed-srw:{seed!r}")
    neighbors = {v: sorted(graph.adj[v], key=repr) for v in graph}
    omega_adj = omega.adj
    traj = [start]
    x = start
    for _ in range(steps):
        nbrs = neighbors[x]
        if nbrs:
            y = nbrs[rng.randrange(len(nbrs))]
            if y in omega_adj.get(x, ()):
                x = y
        traj.append(x)
    return traj


def stationarity_check(graph: Graph, omega: Graph) -> bool:
    """Exact fixed-point check: is the uniform distribution stationary for the
    delayed walk on each component of ``omega``?

    Flow balance at y reads sum over omega-neighbors x of 1/deg_G(x) equals
    deg_omega(y)/deg_G(y); exact rational arithmetic throughout.
    """
    for y in graph:
        dg = _degree(graph, y)
        if dg == 0:
            continue
        inflow = Fraction(0)
        d_om = 0
        omega_nbrs = omega.adj.get(y, ())
        for x in graph.adj[y]:
            if x in omega_nbrs:
                d_om += 1
                inflow += Fraction(1, _degree(graph, x))
        if inflow != Fraction(d_om, dg):
            return False
    return True


# -- cylinder events and Birkhoff averaging --------------------------------------


class CylinderEvent:
    """A local event: the subgraph ball around the walker matches a rooted
    pattern, and the walker's label falls in a union of intervals."""

    def __init__(self, radius: int, pattern: Optional[Graph], pattern_root,
                 label_intervals: Sequence[Tuple[Fraction, Fraction]]):
        self.radius = radius
        self.pattern = pattern
        self.pattern_root = pattern_root
        self.label_intervals = [(Fraction(a), Fraction(b))
                                for a, b in label_intervals]
        for a, b in self.label_intervals:
            if not (0 <= a <= b <= 1):
                raise ValueError("label intervals must sit inside [0, 1]")

    def label_measure(self) -> Fraction:
        return sum((b - a for a, b in self.label_intervals), Fraction(0))

    def label_holds(self, value: Fraction) -> bool:
        return any(a <= value < b for a, b in self.label_intervals)

    def pattern_holds(self, omega: Graph, x) -> bool:
        if self.pattern is None:
            return True
        if x not in omega:
            return len(self.pattern) == 0
        return _balls_isomorphic(omega, x, self.pattern, self.pattern_root,
                                 self.radius)


def _batch_means_sigma(indicators: Sequence[int]) -> float:
    """Standard error of the mean via batch means (sqrt(n) batches)."""
    n = len(indicators)
    b = max(1, int(math.sqrt(n)))
    k = n // b
    if k < 2:
        return float("inf")
    means = [sum(indicators[i * b:(i + 1) * b]) / b for i in range(k)]
    grand = sum(means) / k
    var = sum((m - grand) ** 2 for m in means) / (k - 1)
    return math.sqrt(var / k)


def birkhoff_average(trajectory: Sequence, event: CylinderEvent,
                     omega: Graph, labels: Dict,
                     safe: Optional[set] = None) -> dict:
    """Running ergodic averages of a cylinder event along a trajectory.

    ``safe`` is the set of states whose radius-R neighborhood is fully inside
    the window; the trajectory is truncated (with a flag) at the first unsafe
    state. Also reports the factored estimate: empirical pattern frequency
    times the exact label-box measure.

    ``sigma_hat`` combines two independent noise sources in quadrature: the
    batch-means trajectory error, and the label-realization error.  The
    second term matters because the labels are drawn once per vertex: the
    occupation-weighted label frequency over the finitely many visited
    vertices deviates from the interval measure by an amount controlled by
    the sum of squared occupation weights (the same local-time quantity that
    drives the n^{-1/2} second-moment bound), and that deviation does not
    shrink as the trajectory revisits the same vertices.
    """
    traj = list(trajectory)
    truncated = False
    if safe is not None:
        for i, x in enumerate(traj):
            if x not in safe:
                traj = traj[:i]
                truncated = True
                break
    indicators = []
    pattern_hits = []
    pattern_cache: Dict = {}
    for x in traj:
        p = pattern_cache.get(x)
        if p is None:
            p = event.pattern_holds(omega, x)
            pattern_cache[x] = p
        pattern_hits.append(int(p))
        indicators.append(int(p and event.label_holds(labels[x])))
    running = []
    acc = 0
    for i, v in enumerate(indicators):
        acc += v
        running.append(acc / (i + 1))
    n = len(indicators)
    p_pattern = (sum(pattern_hits) / n) if n else 0.0
    factored = p_pattern * float(event.label_measure())
    if n:
        counts: Dict = {}
        for x, hit in zip(traj, pattern_hits):
            if hit:
                counts[x] = counts.get(x, 0) + 1
        mu = float(event.label_measure())
        w2 = sum((c / n) ** 2 for c in counts.values())
        label_var = mu * (1.0 - mu) * w2
        sigma = math.sqrt(_batch_means_sigma(indicators) ** 2 + label_var)
    else:
        sigma = float("inf")
    return {
        "n": n,
        "running": running,
        "average": running[-1] if running else 0.0,
        "factored_product": factored,
        "sigma_hat": sigma,
        "truncated": truncated,
        "indicators": indicators,
    }


def variance_decay(indicator_ensemble: Sequence[Sequence[int]],
                   n_checkpoints: int = 12) -> dict:
    """Log-log slope of Var(running average at n) across an ensemble."""
    m = len(indicator_ensemble)
    if m < 50:
        raise ValueError("need at least 50 trajectories")
    length = min(len(t) for t in indicator_ensemble)
    if length < 4:
        raise ValueError("trajectories too short")
    ns = sorted({max(2, int(round(length ** (k / (n_checkpoints - 1)))))
                 for k in range(1, n_checkpoints)})
    points = []
    for n in ns:
        avgs = [sum(t[:n]) / n for t in indicator_ensemble]
        mean = sum(avgs) / m
        var = sum((a - mean) ** 2 for a in avgs) / (m - 1)
        if var > 0:
            points.append((math.log(n), math.log(var)))
    if len(points) < 2:
        # constant event: variance identically zero, nothing to fit
        return {"slope": None, "checkpoints": ns, "degenerate": True,
                "passes": True}
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in points)
             / sum((x - xbar) ** 2 for x in xs))
    return {"slope": slope, "checkpoints": ns, "degenerate": False,
            "passes": slope <= -0.4}


# -- bundled fixtures --------------------------------------------------------------


def _decorated(nodes: Sequence, edges: Sequence[Tuple]) -> Graph:
    """The graph on ``nodes`` (in order) with ``(u, v)`` ``edges``, marked
    0, 1, 0, ... over its vertices and colored "a", "b", "a", ... over its
    edges, each in ``repr`` order."""
    marks = {v: i % 2 for i, v in enumerate(sorted(nodes, key=repr))}
    colors = {e: "ab"[j % 2] for j, e in enumerate(sorted(edges, key=repr))}
    return Graph({v: {"mark": marks[v]} for v in nodes},
                 [(u, v, {"color": colors[u, v]}) for u, v in edges])


def bundled_fixtures() -> Dict[str, Graph]:
    """Small decorated regular graphs used by the exact checking suites:
    the networkx graphs of the same names, vertices and edges in the order
    networkx gives them."""
    cube = list(itertools.product((0, 1), repeat=3))
    return {
        "cycle6": _decorated(range(6), [(0, 1), (0, 5), (1, 2), (2, 3),
                                        (3, 4), (4, 5)]),
        "complete4": _decorated(range(4), list(itertools.combinations(range(4), 2))),
        "cube": _decorated(cube, [(u, u[:i] + (1,) + u[i + 1:])
                                  for u in cube for i in range(3) if not u[i]]),
        "bipartite33": _decorated(range(6), [(u, v) for u in range(3)
                                             for v in range(3, 6)]),
        "petersen": _decorated(range(10), [
            (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
            (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9)]),
    }


def omega_fixture(graph: Graph) -> Graph:
    """A deterministic spanning subgraph: every other edge in sorted order."""
    edges = sorted(_edges(graph), key=repr)[::2]
    return Graph({v: graph.nodes[v] for v in graph},
                 [(u, v, graph.adj[u][v]) for u, v in edges])


def bigraph_fixture(graph: Graph) -> List[WeightedBigraph]:
    """Uniformly rooted bigraph family over ``graph`` with the decoration
    graph induced on the closed neighborhood of the smallest vertex."""
    center = sorted(graph, key=repr)[0]
    keep = {center} | set(graph.adj[center])
    secondary = Graph({v: graph.nodes[v] for v in graph if v in keep},
                      [(u, v, graph.adj[u][v]) for u, v in _edges(graph)
                       if u in keep and v in keep])
    _require_connected(graph, secondary)
    n = len(graph)
    return [WeightedBigraph(Bigraph._of(graph, secondary, v), Fraction(1, n))
            for v in sorted(graph, key=repr)]


# -- piece statistics -------------------------------------------------------------


PIECE_FEATURES = ("boxes_per_member", "elongation")


def piece_features(piece, n_members: int) -> Dict[str, float]:
    """Scale-free shape features of one contracted piece.

    Window tiles shrink exponentially with depth by construction, so any
    absolute-size feature separates pieces trivially; only the shape of a
    piece is comparable across fibers. ``elongation`` is the bounding-box
    aspect ratio: invariant under uniform rescaling but responsive to any
    directional distortion of a piece.  Volume-to-bounding-box fill is
    deliberately not tracked: a piece is the union of its members' carved
    tiles, which fills its bounding box up to a shortfall that is tiny
    (under 3e-4 at radius 10) but deterministic per window position, so
    z-scoring it against its near-zero spread flags carving residue (two
    pieces at z = -10.8 at radius 10, seed 0) rather than a shape
    difference.
    """
    sides = sorted(hi - lo for lo, hi in piece.int_bbox())  # on one lattice
    return {
        "boxes_per_member": len(piece.ints) / n_members,
        "elongation": float(Fraction(sides[-1], sides[0])),
    }


def piece_statistics(pieces: Dict[object, Dict[str, float]]) -> dict:
    """Leave-one-out separation scan over a table of per-piece features.

    ``pieces`` maps a piece id to its feature dict. A feature separates a
    piece when the piece sits more than 3 sigma from the mean of the others;
    with fewer than 3 pieces nothing can be flagged.
    """
    ids = sorted(pieces, key=repr)
    flagged = []
    table = {repr(i): pieces[i] for i in ids}
    for feat in PIECE_FEATURES:
        values = [pieces[i][feat] for i in ids]
        for k, i in enumerate(ids):
            rest = values[:k] + values[k + 1:]
            if len(rest) < 2:
                continue
            mean = sum(rest) / len(rest)
            var = sum((v - mean) ** 2 for v in rest) / (len(rest) - 1)
            sd = math.sqrt(var)
            if sd == 0:
                if values[k] != mean:
                    flagged.append({"piece": repr(i), "feature": feat,
                                    "z": float("inf")})
                continue
            z = (values[k] - mean) / sd
            if abs(z) > 3:
                flagged.append({"piece": repr(i), "feature": feat, "z": z})
    return {
        "n_pieces": len(ids),
        "features": list(PIECE_FEATURES),
        "table": table,
        "flagged": flagged,
        "separated": bool(flagged),
    }


def pooled_separation(tables: Sequence[dict]) -> dict:
    """Pool per-run feature tables across seeds and flag pieces more than
    3 sigma from the pooled mean of each feature."""
    values: Dict[str, List[float]] = {f: [] for f in PIECE_FEATURES}
    entries = []
    for t in tables:
        for pid, feats in t["table"].items():
            entries.append((pid, feats))
            for f in PIECE_FEATURES:
                values[f].append(feats[f])
    flagged = []
    for f in PIECE_FEATURES:
        vals = values[f]
        if len(vals) < 3:
            continue
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        sd = math.sqrt(var)
        for pid, feats in entries:
            if sd == 0:
                continue
            z = (feats[f] - mean) / sd
            if abs(z) > 3:
                flagged.append({"piece": pid, "feature": f, "z": z})
    return {"n_entries": len(entries), "flagged": flagged,
            "separated": bool(flagged)}
