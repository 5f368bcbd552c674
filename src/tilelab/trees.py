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

    def subtree(self, x):
        """Vertices of the subtree rooted at x, in preorder."""
        i = self.pos[x]
        return self.order[i:i + self.subtree_size[x]]

    def path_to_root(self, v):
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def tree_path(self, u, v):
        """Unique u-v path in the tree."""
        up, vp = self.path_to_root(u), self.path_to_root(v)
        sv = set(vp)
        meet = next(x for x in up if x in sv)
        a = up[: up.index(meet) + 1]
        b = vp[: vp.index(meet)]
        return a + b[::-1]


def synthetic_tree(descriptor: str, seed: int = 0) -> RootedTreeWindow:
    """Build a named synthetic window.

    Descriptors: ``path(n)``, ``binary-canopy(depth)``, ``canopy(depth,arity)``,
    ``random(n,maxdeg)`` (seeded), ``spine(length,arms)``.
    """
    m = re.fullmatch(r"\s*([a-z-]+)\s*\(([^)]*)\)\s*", descriptor)
    if not m:
        raise ValueError(f"bad tree descriptor: {descriptor!r}")
    name = m.group(1)
    args = [int(x) for x in m.group(2).split(",") if x.strip()]

    if name == "path":
        (n,) = args
        if n < 1:
            raise ValueError("path needs n >= 1")
        return RootedTreeWindow(0, {i: i - 1 for i in range(1, n)})

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
        degree = {0: 0}
        for v in range(1, n):
            # root may use all maxdeg slots for children; others keep one for parent
            choices = [u for u in degree
                       if degree[u] < (maxdeg if u == 0 else maxdeg - 1)]
            p = rng.choice(choices)
            parent[v] = p
            degree[p] += 1
            degree[v] = 0
        return RootedTreeWindow(0, parent)

    if name == "spine":
        length, arms = args
        parent = {}
        for i in range(1, length):
            parent[("s", i)] = ("s", i - 1)
        for i in range(length):
            for j in range(arms):
                parent[("a", i, j)] = ("s", i)
        return RootedTreeWindow(("s", 0), parent)

    raise ValueError(f"unknown tree kind: {name!r}")
