"""Reference partition stages: peel by rebuilding the tree window each round.

This is the stage loop `tilelab.partition` used before it peeled one window
in place: every round recomputes the core set S_{n_i} from subtree sizes,
takes its leaf set, grows one class per leaf, and rebuilds the window
without the leaves' subtrees.  Tests compare `limit_partitions` to it.
`subtree`, `path_to_root` and `tree_path` walk the tree window as it once
did, for tests to check the window's preorder tables against.
"""

from tilelab.partition import (InfeasibleGrowth, PartitionLevel,
                               PartitionStack, grow_class)
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


def build_stage(tree, schedule, stack, i, labels):
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
                                stack, labels)
                new_classes[("c", i, k, repr(x))] = cx
            except InfeasibleGrowth:
                pass
        if all(x == current.root for x in leaves):
            break
        current = peel(current, [x for x in leaves if x != current.root])
        if len(current) <= 1:
            break

    for lvl in stack.levels:
        for cid, ms in list(lvl.nonsingleton_classes().items()):
            if any(cuts(frozenset(cx), ms) for cx in new_classes.values()):
                lvl.singletonize(cid)

    covered = set()
    for cx in new_classes.values():
        covered |= cx
    members = dict(new_classes)
    for v in tree.order:
        if v not in covered:
            members[("s", i, v)] = {v}
    stack.levels.append(PartitionLevel(i, members))


def reference_levels(tree, schedule, stages, labels):
    """`class_members` of every level, as the rebuilding loop computes them."""
    stack = PartitionStack(schedule)
    for i in range(1, stages + 1):
        build_stage(tree, schedule, stack, i, labels)
    return [lvl.class_members for lvl in stack.levels]
