"""Reference partition stages: peel by rebuilding the tree window each round.

This is the stage loop `tilelab.partition` used before it peeled one window
in place: every round recomputes the core set S_{n_i} from subtree sizes,
takes its leaf set, grows one class per leaf, and rebuilds the window
without the leaves' subtrees.  Tests compare `limit_partitions` to it.
`grow_class` is `tilelab.partition.grow_class` as it was before it read the
earlier classes off a per-stage index: it scans every class of every
earlier level on each call.
`subtree`, `path_to_root` and `tree_path` walk the tree window as it once
did, for tests to check the window's preorder tables against.
"""

from tilelab.partition import InfeasibleGrowth
from tilelab.trees import RootedTreeWindow


def cuts(a, b):
    """a cuts b when a meets b but does not contain it."""
    return not a.isdisjoint(b) and not b.issubset(a)


def subtree(tree, x):
    """Vertices of the subtree rooted at x, in preorder: the run of them
    that starts at x."""
    i = tree.pos[x]
    return tree.order[i:i + tree.subtree_size[x]]


def path_to_root(tree, v):
    """v and its ancestors, from v up to the root."""
    out = [v]
    while tree.parent[out[-1]] is not None:
        out.append(tree.parent[out[-1]])
    return out


def tree_path(tree, u, v):
    """Unique u-v path in the tree."""
    up, vp = path_to_root(tree, u), path_to_root(tree, v)
    sv = set(vp)
    meet = next(x for x in up if x in sv)
    a = up[: up.index(meet) + 1]
    b = vp[: vp.index(meet)]
    return a + b[::-1]


def core_set(tree, k):
    """S_k: vertices whose window subtree has at least 2^k elements."""
    return {v for v in tree.order if tree.subtree_size[v] >= (1 << k)}


def leaf_set(tree, schedule, i):
    """Degree-1 vertices of the induced subgraph on S_{n_i}, root excluded;
    size bounds asserted."""
    n = schedule.n_values[i - 1]
    s = core_set(tree, n)
    out = []
    d = schedule.degree_bound
    for v in s:
        if v == tree.root:
            continue
        deg_in_s = (1 if tree.parent[v] in s else 0) + sum(
            1 for c in tree.children[v] if c in s
        )
        if deg_in_s == 1:
            size = tree.subtree_size[v]
            assert (1 << n) <= size <= 1 + (d - 1) * (1 << n), (
                f"leaf-set size bound violated at {v!r}: {size}"
            )
            out.append(v)
    out.sort(key=repr)
    return out


def peel(tree, leaves):
    """Remove the subtrees hanging at the given vertices; keep the root side."""
    if tree.root in leaves:
        raise ValueError("cannot peel the root")
    drop = set()
    for x in leaves:
        drop.update(subtree(tree, x))
    keep = [v for v in tree.order if v not in drop]
    return RootedTreeWindow(tree.root, {v: tree.parent[v] for v in keep})


def grow_class(tree, region, x, target, levels, labels):
    """A connected class of exactly ``target`` vertices of ``region`` grown
    from ``x``, given the earlier ``levels`` (class id -> members)."""
    # earlier non-singleton classes, outermost-first lookup per vertex
    classes = []
    for level in levels:
        for ms in level.values():
            if not ms.isdisjoint(region):
                classes.append(ms)
    classes.sort(key=len, reverse=True)
    outermost = {}
    completable = []
    for ms in classes:
        if ms.issubset(region):
            completable.append(ms)
            for v in ms:
                if v not in outermost:
                    outermost[v] = ms
        else:
            # straddles the region: entering it would be unrecoverable
            for v in ms:
                if v in region and v not in outermost:
                    outermost[v] = None

    c = {x}
    adj = {}

    def neighbors(v):
        if v not in adj:
            adj[v] = [w for w in ([tree.parent[v]] + tree.children[v])
                      if w is not None and w in region]
        return adj[v]

    if outermost.get(x, "free") is None:
        raise InfeasibleGrowth(f"seed {x!r} lies in a window-straddling class")
    if x in outermost and outermost[x] is not None and len(outermost[x]) > target:
        raise InfeasibleGrowth(f"seed {x!r} committed to an oversized class")

    while len(c) < target:
        cut = [ms for ms in completable
               if not ms.isdisjoint(c) and not ms.issubset(c)]
        if cut:
            smallest = min(cut, key=len)
            cands = [v for v in smallest if v not in c
                     and any(w in c for w in neighbors(v))]
        else:
            frontier = set()
            for v in c:
                frontier.update(w for w in neighbors(v) if w not in c)
            cands = []
            for v in frontier:
                om = outermost.get(v, "free")
                if om is None:
                    continue
                cost = 1 if om == "free" else len(om - c)
                if len(c) + cost <= target:
                    cands.append(v)
            if not cands:
                raise InfeasibleGrowth(
                    f"no feasible frontier vertex at size {len(c)}/{target} from {x!r}"
                )
        pick = labels.choose_min([repr(v) for v in cands])
        c.add(next(v for v in cands if repr(v) == pick))
    return c


def build_stage(tree, schedule, levels, i, labels):
    n = schedule.n_values[i - 1]
    target = 1 << n
    new_classes = {}
    current = tree
    k = 0
    while True:
        k += 1
        leaves = leaf_set(current, schedule, i)
        if not leaves:
            break
        for x in leaves:
            try:
                cx = grow_class(current, set(subtree(current, x)), x, target,
                                levels, labels)
                new_classes[("c", i, k, repr(x))] = frozenset(cx)
            except InfeasibleGrowth:
                pass
        if all(x == current.root for x in leaves):
            break
        current = peel(current, [x for x in leaves if x != current.root])
        if len(current) <= 1:
            break

    for level in levels:
        for cid, ms in list(level.items()):
            if any(cuts(cx, ms) for cx in new_classes.values()):
                del level[cid]
    levels.append(new_classes)


def reference_levels(tree, schedule, stages, labels):
    """The grown classes of every level, as the rebuilding loop computes
    them."""
    levels = []
    for i in range(1, stages + 1):
        build_stage(tree, schedule, levels, i, labels)
    return levels
