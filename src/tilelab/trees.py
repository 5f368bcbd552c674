"""Finite windows of rooted trees, with subtree bookkeeping."""

from __future__ import annotations

import random
import re


class RootedTreeWindow:
    """Immutable rooted tree window over hashable vertex ids."""

    def __init__(self, root, parent: dict):
        self.root = root
        self.parent = dict(parent)
        self.parent[root] = None
        self.children: dict = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                if p not in self.parent:
                    raise ValueError(f"parent {p!r} of {v!r} not a vertex")
                self.children[p].append(v)
        for c in self.children.values():
            c.sort(key=repr)

        # one iterative preorder walk: a vertex's subtree is the run of
        # vertices appended between its entry and its exit, so it is the
        # slice order[pos[v] : pos[v] + subtree_size[v]]
        self.order: list = []
        self.pos: dict = {}
        self.depth: dict = {}
        self.subtree_size: dict = {}
        stack = [(self.root, 0, False)]
        while stack:
            v, d, done = stack.pop()
            if done:
                self.subtree_size[v] = len(self.order) - self.pos[v]
                continue
            self.pos[v] = len(self.order)
            self.depth[v] = d
            self.order.append(v)
            stack.append((v, d, True))
            for c in reversed(self.children[v]):
                stack.append((c, d + 1, False))

        if len(self.order) != len(self.parent):
            raise ValueError("tree is not connected from the root")

    # -- queries -----------------------------------------------------------------

    def __len__(self):
        return len(self.parent)

    def vertices(self):
        return list(self.order)

    def is_ancestor(self, u, v) -> bool:
        """True when u is an ancestor of v (inclusive)."""
        return 0 <= self.pos[v] - self.pos[u] < self.subtree_size[u]

    def degree(self, v) -> int:
        return len(self.children[v]) + (0 if v == self.root else 1)

    def max_degree(self) -> int:
        return max(self.degree(v) for v in self.order)

    def leaves(self):
        return [v for v in self.order if not self.children[v]]

    def edges(self):
        return [(self.parent[v], v) for v in self.order if v != self.root]


# kind -> (least, most) number of int arguments
_ARITY = {"path": (1, 1), "binary-canopy": (1, 1), "canopy": (1, 2),
          "random": (2, 2), "spine": (2, 2)}


def parse_descriptor(descriptor: str) -> tuple[str, list[int]]:
    """``(kind, args)`` of a synthetic tree descriptor; raises ValueError
    saying what is wrong when `synthetic_tree` could not build it."""
    m = (re.fullmatch(r"\s*([a-z-]+)\s*\(([^)]*)\)\s*", descriptor)
         if isinstance(descriptor, str) else None)
    if not m:
        raise ValueError(f"bad tree descriptor: {descriptor!r}")
    name = m.group(1)
    if name not in _ARITY:
        raise ValueError(f"unknown tree kind: {name!r}")
    try:
        args = [int(x) for x in m.group(2).split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"tree arguments must be integers: {descriptor!r}") from None
    least, most = _ARITY[name]
    if not least <= len(args) <= most:
        raise ValueError(f"{descriptor!r}: wrong number of arguments for {name}")
    if name == "path" and args[0] < 1:
        raise ValueError(f"{descriptor!r}: path(n) needs n >= 1")
    if name in ("binary-canopy", "canopy") and (args[0] < 0 or min(args[1:], default=1) < 1):
        raise ValueError(f"{descriptor!r}: {name} needs depth >= 0 and arity >= 1")
    # a random tree's root has maxdeg child slots, every other vertex maxdeg - 1
    if name == "random" and (args[0] < 1 or (args[1] < 2 and args[0] > args[1] + 1)):
        raise ValueError(f"{descriptor!r}: random(n,maxdeg) needs n >= 1, "
                         "and n <= maxdeg + 1 when maxdeg < 2")
    if name == "spine" and (args[0] < 1 or args[1] < 0):
        raise ValueError(f"{descriptor!r}: spine(length,arms) needs length >= 1 "
                         "and arms >= 0")
    return name, args


def synthetic_tree(descriptor: str, seed: int = 0) -> RootedTreeWindow:
    """Build a named synthetic window.

    Descriptors: ``path(n)``, ``binary-canopy(depth)``, ``canopy(depth,arity)``,
    ``random(n,maxdeg)`` (seeded), ``spine(length,arms)``; `parse_descriptor`
    says which are malformed.
    """
    name, args = parse_descriptor(descriptor)

    if name == "path":
        return RootedTreeWindow(0, {i: i - 1 for i in range(1, args[0])})

    if name in ("binary-canopy", "canopy"):
        depth = args[0]
        arity = args[1] if len(args) > 1 else 2
        parent = {}
        frontier = [(0,)]
        parent[(0,)] = None
        for _ in range(depth):
            nxt = []
            for v in frontier:
                for j in range(arity):
                    c = v + (j,)
                    parent[c] = v
                    nxt.append(c)
            frontier = nxt
        return RootedTreeWindow((0,), parent)

    if name == "random":
        n, maxdeg = args
        rng = random.Random(seed)
        parent = {}
        degree = [0] * n
        # the vertices with a free child slot, in vertex order
        open_ = [0] if maxdeg > 0 else []
        for v in range(1, n):
            p = rng.choice(open_)
            parent[v] = p
            degree[p] += 1
            if degree[p] == (maxdeg if p == 0 else maxdeg - 1):
                open_.remove(p)
            if maxdeg > 1:
                open_.append(v)
        return RootedTreeWindow(0, parent)

    length, arms = args
    parent = {}
    for i in range(1, length):
        parent[("s", i)] = ("s", i - 1)
    for i in range(length):
        for j in range(arms):
            parent[("a", i, j)] = ("s", i)
    return RootedTreeWindow(("s", 0), parent)
