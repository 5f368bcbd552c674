"""Canonical forms for rooted trees and forests, a cycle check, and the
union-find that the cycle check and box components share."""

from __future__ import annotations

import hashlib


def ahu_code(children: dict, root) -> str:
    """Canonical string of a rooted tree (AHU encoding), iterative."""
    code: dict = {}
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            code[v] = "(" + "".join(sorted(code[c] for c in children.get(v, ()))) + ")"
        else:
            stack.append((v, True))
            for c in children.get(v, ()):
                stack.append((c, False))
    return code[root]


def forest_hash(children: dict, roots) -> str:
    """Order-independent canonical hash of a rooted forest."""
    codes = sorted(ahu_code(children, r) for r in roots)
    return hashlib.sha256("|".join(codes).encode()).hexdigest()[:16]


def rooted_forest_from_edges(vertices, edges, roots) -> dict:
    """Orient an acyclic edge set away from the given roots; returns children map.

    Raises ValueError if the edge set has a cycle or connects two roots' trees.
    """
    adj: dict = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    children: dict = {v: [] for v in vertices}
    seen = set()
    for r in roots:
        if r in seen:
            raise ValueError("roots share a component")
        stack = [(r, None)]
        while stack:
            v, par = stack.pop()
            if v in seen:
                raise ValueError("cycle detected in claimed forest")
            seen.add(v)
            for w in adj[v]:
                if w != par:
                    children[v].append(w)
                    stack.append((w, v))
    if len(seen) != len(adj):
        raise ValueError("edges reach vertices outside the rooted components")
    return children


def find(parent, x):
    """The root of ``x`` in the union-find forest ``parent``, a list or a
    dict that maps each element to its parent, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def join(parent, x, y) -> bool:
    """Merge the union-find classes of ``x`` and ``y``; whether they were
    apart."""
    rx, ry = find(parent, x), find(parent, y)
    if rx != ry:
        parent[rx] = ry
    return rx != ry


def has_cycle(edges) -> bool:
    """Whether an undirected edge list over hashable vertices has a cycle."""
    parent: dict = {}
    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        if not join(parent, a, b):
            return True
    return False

