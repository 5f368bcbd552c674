"""The mass-transport battery as one call per value, the reference the
tests hold `tilelab.unimodular.mtp_battery` to.

Each transport function is a plain ``f(g, x, y)`` that rebuilds whatever it
reads of ``g`` (color ranks, rooted 1-balls) on every call, and `mtp_check`
calls it once per term of each side of the identity.
"""

from fractions import Fraction

import networkx as nx

from tilelab.unimodular import _ball


def _rooted_ball_isomorphic(g1, o1, g2, o2, r):
    b1, b2 = _ball(g1, o1, r), _ball(g2, o2, r)
    nm = nx.algorithms.isomorphism.categorical_node_match(
        ["_dist", "mark"], [None, None])
    em = nx.algorithms.isomorphism.categorical_edge_match("color", None)
    return nx.is_isomorphic(b1, b2, node_match=nm, edge_match=em)


def _f_unit_neighbors(g, x, y):
    return Fraction(int(g.has_edge(x, y)))


def _f_inverse_degree(g, x, y):
    if g.has_edge(x, y):
        return Fraction(1, g.degree(x))
    return Fraction(0)


def _f_unit_self(g, x, y):
    return Fraction(int(x == y))


def _f_neighbor_degree(g, x, y):
    if g.has_edge(x, y):
        return Fraction(g.degree(y))
    return Fraction(0)


def _f_mark_match(g, x, y):
    if g.has_edge(x, y) and g.nodes[x].get("mark") == g.nodes[y].get("mark"):
        return Fraction(1)
    return Fraction(0)


def _f_color_weight(g, x, y):
    if g.has_edge(x, y):
        color = g.edges[x, y].get("color")
        colors = sorted({repr(g.edges[e].get("color")) for e in g.edges}) or [repr(None)]
        return Fraction(1 + colors.index(repr(color)))
    return Fraction(0)


def _f_ball_iso(g, x, y):
    if g.has_edge(x, y) and _rooted_ball_isomorphic(g, x, g, y, 1):
        return Fraction(1)
    return Fraction(0)


def _f_distance_two(g, x, y):
    if x == y or g.has_edge(x, y):
        return Fraction(0)
    for z in g.neighbors(x):
        if g.has_edge(z, y):
            return Fraction(1)
    return Fraction(0)


F_BATTERY = {
    "unit_to_neighbors": _f_unit_neighbors,
    "inverse_degree_on_edges": _f_inverse_degree,
    "unit_to_self": _f_unit_self,
    "neighbor_degree": _f_neighbor_degree,
    "mark_match_on_edges": _f_mark_match,
    "edge_color_rank": _f_color_weight,
    "one_ball_isomorphic_neighbors": _f_ball_iso,
    "distance_exactly_two": _f_distance_two,
}


def mtp_check(samples, f):
    lhs = Fraction(0)
    rhs = Fraction(0)
    for s in samples:
        for y in s.graph:
            lhs += s.weight * f(s.graph, s.root, y)
            rhs += s.weight * f(s.graph, y, s.root)
    return lhs, rhs, lhs == rhs


def mtp_battery(samples):
    out = {}
    for name, f in F_BATTERY.items():
        lhs, rhs, ok = mtp_check(samples, f)
        out[name] = {"lhs": str(lhs), "rhs": str(rhs), "equal": ok}
    return out
