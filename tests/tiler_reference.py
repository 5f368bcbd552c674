"""Reference top set and cube placement, as the tiler first computed them.

`reference_top_set` (depth sort, ancestor walks and an all-pairs stratum) is
`tilelab.tiler.top_set` as it was before it found each vertex's
nearest kept ancestor in one preorder pass: the candidates are visited
ancestors first, each walks up the tree to its nearest kept ancestor, and
a kept vertex's stratum is one more than the largest stratum among all
kept vertices below it.  Tests compare `top_set` to it.

`reference_place_cubes` is `tilelab.tiler.place_cubes` as it was on boxes
with `Dyadic` corners.  Tests compare the lattice-int version to it.
"""


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def reference_place_cubes(box, k):
    """k disjoint closed cubes strictly inside a box, dyadic coordinates."""
    sides = [hi - lo for lo, hi in box]
    ax = sides.index(max(sides))
    # the longest side holds k2 = 2**ceil(log2 k) slots of width 2 * slot
    slot = sides[ax].scale(-1 - _ceil_log2(max(k, 1)))
    g = min(min(sides).scale(-2), slot.halve()).pow2_floor()
    half = g.halve()
    out = []
    lo_ax = box[ax][0]
    for i in range(k):
        center = [
            (lo + hi).halve() if a != ax else lo_ax + slot * (2 * i + 1)
            for a, (lo, hi) in enumerate(box)
        ]
        out.append(tuple((c - half, c + half) for c in center))
    return out


def reference_top_set(tree, levels, schedule):
    """``(members, m_of, stratum)`` as the walking top set computes them."""
    m_of = {}
    class_at = {}
    for n_i, level in zip(schedule.n_values, levels):
        for ms in level.values():
            x = min(ms, key=lambda v: tree.depth[v])
            if all(tree.is_ancestor(x, v) for v in ms):
                if n_i > m_of.get(x, 0):
                    m_of[x] = n_i
                    class_at[x] = frozenset(ms)
    members = sorted(m_of, key=lambda v: tree.depth[v])
    kept = []
    kept_set = set()
    for x in members:  # ancestors first
        anc = tree.parent[x]
        while anc is not None and anc not in kept_set:
            anc = tree.parent[anc]
        if anc is not None:
            if not (m_of[x] < m_of[anc] and class_at[x] <= class_at[anc]):
                continue  # not nested in the ancestor's class
        kept.append(x)
        kept_set.add(x)
    stratum = {}
    for x in sorted(kept, key=lambda v: -tree.depth[v]):  # deepest first
        below = [stratum[y] for y in kept_set
                 if y != x and tree.is_ancestor(x, y) and y in stratum]
        stratum[x] = 1 + (max(below) if below else 0)
    return kept_set, {x: m_of[x] for x in kept_set}, stratum
