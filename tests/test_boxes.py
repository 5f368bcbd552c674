"""Exact box-set algebra, with a Fraction measure oracle, a Fraction-grid
reference kernel and a voxel erosion oracle from scipy.ndimage."""

import random
from bisect import bisect_left
from functools import reduce
from itertools import product
from fractions import Fraction
from operator import or_
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from tilelab import boxes as boxes_mod
from tilelab.boxes import (BoxSet, Clearance, RawBoxes, ResourceLimit, _contacts, _lattice,
                           _relation, box_of, contact_faces, polyline_neighborhood,
                           set_contacts, union_all)
from tilelab.dyadic import Dyadic, on_lattice
from voxels import voxelize


def interval(lo, hi, exp=3):
    return (Dyadic(lo, exp), Dyadic(hi, exp))


def cube_at(center, half):
    """The closed cube of half-side ``half`` around ``center``."""
    return tuple((Dyadic.coerce(c) - half, Dyadic.coerce(c) + half) for c in center)


def dyadic_box(draw_bounds, dim=2):
    return tuple(interval(a, b) for a, b in draw_bounds[:dim])


bounds = st.tuples(
    st.integers(min_value=0, max_value=14),
    st.integers(min_value=1, max_value=8),
).map(lambda t: (t[0], t[0] + t[1]))

boxes2d = st.lists(st.tuples(bounds, bounds), min_size=0, max_size=5).map(
    lambda bs: BoxSet([tuple(interval(*iv) for iv in b) for b in bs])
)


def grid_volume(bs, size=32):
    """Independent measure oracle: count 2^-3-pitch cells inside the set."""
    if bs.is_empty():
        return Fraction(0)
    pad = tuple(interval(-8, 40) for _ in range(len(bs.boxes[0])))
    arr, _ = voxelize(bs, 3, pad)
    return Fraction(int(arr.sum()), 8 ** len(bs.boxes[0]))


@given(boxes2d)
def test_canonical_boxes_have_disjoint_interiors(a):
    for i in range(len(a.boxes)):
        for j in range(i + 1, len(a.boxes)):
            x = BoxSet([a.boxes[i]])
            y = BoxSet([a.boxes[j]])
            assert not x.interior_intersects(y)


@given(boxes2d)
def test_volume_matches_grid_oracle(a):
    assert a.volume() == grid_volume(a)


@given(boxes2d, boxes2d)
def test_inclusion_exclusion(a, b):
    union = a.union(b)
    inter = a.intersection(b)
    assert union.volume() + inter.volume() == a.volume() + b.volume()
    diff = a.difference(b)
    assert diff.volume() + inter.volume() == a.volume()
    assert union.volume() == grid_volume(union)


@given(boxes2d, boxes2d)
def test_difference_disjoint_from_subtrahend(a, b):
    assert not a.difference(b).interior_intersects(b)


@given(boxes2d)
def test_union_idempotent(a):
    assert a.union(a).volume() == a.volume()
    assert a.union(BoxSet.empty(2)).volume() == a.volume()


def test_shared_face_area_unit_cubes():
    a = BoxSet([cube_at((0, 0, 0), Dyadic(1, 1))])
    b = BoxSet([cube_at((1, 0, 0), Dyadic(1, 1))])
    c = BoxSet([cube_at((1, 1, 0), Dyadic(1, 1))])
    assert a.shared_face_area(b) == 1  # full unit face
    assert a.shared_face_area(c) == 0  # edge contact only


def dyadic_length(lo, hi):
    return (hi - lo).as_fraction()


def int_length(lo, hi):
    return hi - lo


def face_contact_oracle(p, q, length=dyadic_length):
    """Brute-force pair classification: the positive codim-1 contact area,
    None for overlapping interiors, or "apart" when the closures are
    disjoint or meet only along an edge or a corner.  The coordinates are
    Dyadics, or with ``length=int_length`` ints on one lattice, whose area
    counts lattice cells."""
    touch_axis = -1
    area = 1
    for a, ((pl, ph), (ql, qh)) in enumerate(zip(p, q)):
        lo, hi = max(pl, ql), min(ph, qh)
        if lo > hi:
            return "apart"
        if lo == hi:
            if touch_axis >= 0:
                return "apart"
            touch_axis = a
        else:
            area *= length(lo, hi)
    return area if touch_axis >= 0 else None


@st.composite
def owned_boxes(draw, min_n=0, max_n=8, span=6):
    """Boxes on a coarse mixed-exponent grid (so faces, edges and corners
    touch often), an owner per box, and a translation vector that is either
    zero or a large, finely dyadic one."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(min_n, max_n))
    boxes = []
    for _ in range(n):
        box = []
        for _ in range(dim):
            exp = draw(st.integers(0, 2))
            lo = draw(st.integers(0, span << exp))
            box.append((Dyadic(lo, exp), Dyadic(lo + draw(st.integers(1, 4)), exp)))
        boxes.append(tuple(box))
    owner = [draw(st.integers(0, 2)) for _ in boxes]
    shift = draw(st.sampled_from([0, Dyadic((1 << 80) + 3, 41)]))
    return boxes, owner, [shift] * dim


CUBE = ((Dyadic(0), Dyadic(1)),) * 3


@given(owned_boxes())
@example(([CUBE, tuple((lo + 1, hi + 1) for lo, hi in CUBE[:2]) + CUBE[2:]],
          [0, 1], [0] * 3))  # edge-only contact
@example(([CUBE, tuple((lo + 1, hi + 1) for lo, hi in CUBE)],
          [0, 1], [0] * 3))  # corner-only contact
def test_contact_sweep_matches_all_pairs_oracle(case):
    boxes, owner, shift = case
    boxes = [tuple((lo + s, hi + s) for (lo, hi), s in zip(b, shift))
             for b in boxes]
    e, ib = _lattice(boxes)
    unit = 1 << (e * (len(ib[0]) - 1)) if ib else 1  # int areas count 2^-e cells
    got = [(i, j, None if area is None else Fraction(area, unit))
           for i, j, area in _contacts(ib, owner)]
    expected = set()
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            kind = face_contact_oracle(boxes[i], boxes[j])
            if owner[i] != owner[j] and kind != "apart":
                expected.add((i, j, kind))
    assert len(got) == len(set(got))
    assert set(got) == expected


def nested_corner_shells(depth, owner_of, shift=0):
    """The shells between nested corner cubes [0, 2^-k]^3, three boxes each,
    as an `owned_boxes` case: shell k touches shells k - 1 and k + 1 along
    faces and is apart from the rest, while on every single axis almost all
    pairs overlap."""
    boxes, owner = [], []
    for k in range(depth):
        shell = BoxSet([box_of(*[(0, Dyadic(1, k))] * 3)]).difference(
            BoxSet([box_of(*[(0, Dyadic(1, k + 1))] * 3)]))
        boxes += shell.boxes
        owner += [owner_of(k)] * len(shell.boxes)
    return boxes, owner, [shift] * 3


def nested_corner_cubes(depth, owner_of):
    """The cubes [0, 2^-k]^3 themselves: every pair overlaps."""
    return ([box_of(*[(0, Dyadic(1, k))] * 3) for k in range(depth)],
            [owner_of(k) for k in range(depth)], [0] * 3)


# shells or cubes enough to fill many blocks of 4 sweep positions, with
# most pairs overlapping on every single axis
_DEPTH = 23
# the most boxes an `owned_boxes` case of the oracle tests below draws
_MANY = 104


@pytest.mark.parametrize("block", [boxes_mod.BLOCK, 4])
@settings(max_examples=25, deadline=None)
@given(owned_boxes(min_n=1, max_n=_MANY, span=24))
@example(nested_corner_shells(_DEPTH, lambda k: k))
@example(nested_corner_shells(_DEPTH, lambda k: k % 2, Dyadic((1 << 80) + 3, 41)))
@example(nested_corner_shells(_DEPTH, lambda k: 0))  # one owner: no pair
@example(nested_corner_cubes(3 * _DEPTH, lambda k: k % 3))
def test_contact_index_matches_all_pairs_oracle(block, case):
    """The contact index, on one block or on many blocks of 4 sweep
    positions, against the same brute-force classification."""
    boxes, owner, shift = case
    boxes = [tuple((lo + s, hi + s) for (lo, hi), s in zip(b, shift))
             for b in boxes]
    e, ib = _lattice(boxes)
    unit = 1 << (e * (len(ib[0]) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxes_mod, "BLOCK", block)
        got = [(i, j, None if area is None else Fraction(area, unit))
               for i, j, area in _contacts(ib, owner)]
        rows = list(_relation(ib, owner))
    expected = set()
    faces, overlaps = set(), set()
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            kind = face_contact_oracle(boxes[i], boxes[j])
            if owner[i] != owner[j] and kind != "apart":
                expected.add((i, j, kind))
            if kind != "apart":
                (faces if kind else overlaps).add((i, j))
    assert len(got) == len(set(got))
    assert set(got) == expected
    # the relation holds every face contact and every overlap of any two
    # boxes, each once, and the owner masks of its blocks hold their boxes
    for pairs, at in ((faces, 3), (overlaps, 4)):
        rel = [tuple(sorted((row[1][i], row[0]))) for row in rows
               for i in range(len(row[1])) if row[at] >> i & 1]
        assert len(rel) == len(set(rel))
        assert set(rel) == pairs
    for _, block, own, _, _ in rows:
        assert own == {o: sum(1 << i for i, k in enumerate(block) if owner[k] == o)
                       for o in {owner[k] for k in block}}


def contact_sets(case, spread):
    """The sets of an `owned_boxes` case, its boxes shifted and those of
    each owner dealt out to ``spread`` sets, and every box of every set as
    ``(set index, Dyadic box, int box)``, the int boxes read off the sets'
    ``ints`` and moved to one lattice, sorted by their lo ends on axis 0."""
    boxes, owner, shift = case
    boxes = [tuple((lo + s, hi + s) for (lo, hi), s in zip(b, shift))
             for b in boxes]
    keys = [(o, k % spread) for k, o in enumerate(owner)]
    sets = [BoxSet([b for b, o in zip(boxes, keys) if o == key]) for key in sorted(set(keys))]
    e = max((s.exp for s in sets), default=0)
    flat = [(a, b, tuple((lo << e - s.exp, hi << e - s.exp) for lo, hi in ib))
            for a, s in enumerate(sets) for b, ib in zip(s.boxes, s.ints)]
    return sets, sorted(flat, key=lambda abi: abi[2][0][0])


def axis_0_pairs(flat):
    """The index pairs ``i < j`` of `contact_sets`' boxes that meet on axis
    0: every other pair is "apart" under both forms of the oracle."""
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if flat[j][2][0][0] > flat[i][2][0][1]:
                break  # this box and every later one are apart on axis 0
            yield i, j


_CONTACT_EXAMPLES = [
    nested_corner_shells(_DEPTH, lambda k: k),
    nested_corner_shells(_DEPTH, lambda k: k % 2, Dyadic((1 << 80) + 3, 41)),
    nested_corner_cubes(3 * _DEPTH, lambda k: k % 3),
]


@pytest.mark.parametrize("case", _CONTACT_EXAMPLES)
def test_int_face_contact_oracle_matches_dyadic_form(case):
    """On the examples of `test_set_contacts_matches_pairwise_oracle`, the
    oracle on the sets' ints gives every pair the Dyadic form's class, and
    its area in lattice cells is the Dyadic area."""
    sets, flat = contact_sets(case, 1)
    e = max(s.exp for s in sets)
    cell = Fraction(1, 1 << e * (len(flat[0][2]) - 1))  # a face's lattice cell
    for i, j in axis_0_pairs(flat):
        kind = face_contact_oracle(flat[i][2], flat[j][2], int_length)
        exact = face_contact_oracle(flat[i][1], flat[j][1])
        assert exact == (kind * cell if isinstance(kind, int) else kind), (i, j)


@pytest.mark.parametrize("block", [boxes_mod.BLOCK, 4])
@settings(max_examples=30, deadline=None)
@given(owned_boxes(max_n=_MANY, span=12), st.integers(1, 6))
@example(_CONTACT_EXAMPLES[0], 1)
@example(_CONTACT_EXAMPLES[1], 1)
@example(_CONTACT_EXAMPLES[2], 1)
def test_set_contacts_matches_pairwise_oracle(block, case, spread):
    """`set_contacts`, read off the relation's bitsets on one block or on
    blocks of 4 sweep positions, against the brute-force classification of
    the pairs of the sets' boxes, on their ints: the adjacent sets are those
    whose face contacts add up to a positive area, the overlapping ones
    those with a pair of overlapping boxes, and the counts those of a
    union-find over the face contacts within a set."""
    # ``spread`` deals the boxes of each owner out to that many sets
    sets, flat = contact_sets(case, spread)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(boxes_mod, "BLOCK", block)
        adjacent, overlaps, counts = set_contacts(sets, components=range(1, len(sets)))
    parent = list(range(len(flat)))  # a union-find over the face contacts in a set

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    areas, overlapping = {}, set()
    for i, j in axis_0_pairs(flat):
        (a, _, p), (b, _, q) = flat[i], flat[j]
        kind = face_contact_oracle(p, q, int_length)
        if kind == "apart":
            continue
        if a != b:
            key = (a, b) if a < b else (b, a)
            if kind is None:
                overlapping.add(key)
            else:
                areas[key] = areas.get(key, 0) + kind
        elif kind is not None:
            parent[root(j)] = root(i)
    assert adjacent == {key for key, area in areas.items() if area > 0}
    assert overlaps == overlapping
    assert counts == [len({root(i) for i, (b, *_) in enumerate(flat) if b == a}) if a else None
                      for a in range(len(sets))]


@st.composite
def box_and_holes(draw):
    """A lattice exponent, an int box and up to 40 int holes, in 2-D or 3-D:
    a new box has corners in [-12, 16], and a hole after the first may
    instead repeat an earlier one, nest in it, or share a face with it.
    Holes stick out of the box and overlap each other, and some are
    degenerate or empty, and so is the box at times."""
    dim = draw(st.sampled_from([2, 3]))

    def int_box():
        los = [draw(st.integers(-12, 8)) for _ in range(dim)]
        return tuple((lo, lo + draw(st.integers(-2, 8))) for lo in los)

    def inside(lo, hi):
        a = draw(st.integers(min(lo, hi), max(lo, hi)))
        return a, draw(st.integers(a, max(a, hi)))

    holes = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(["new", "repeat", "nest", "face"])) if holes else "new"
        h = draw(st.sampled_from(holes)) if holes else None
        if kind == "new":
            h = int_box()
        elif kind == "nest":
            h = tuple(inside(lo, hi) for lo, hi in h)
        elif kind == "face":  # the same box moved off one of its faces
            a, w = draw(st.integers(0, dim - 1)), draw(st.integers(1, 6))
            lo, hi = h[a]
            h = h[:a] + (draw(st.sampled_from([(hi, hi + w), (lo - w, lo)])),) + h[a + 1:]
        holes.append(h)
    return draw(st.integers(0, 3)), int_box(), holes


_BOX_MINUS_EXAMPLES = [
    (2, ((-8, 4), (-3, 5)), [((-9, -4), (0, 0)), ((0, 6), (-5, 1)), ((1, 2), (1, 0))]),
    (1, ((-4, 4),) * 3, [((-2, 2),) * 3, ((-3, 3),) * 3, ((-6, 6),) * 3]),
    (0, ((1, 1), (0, 3)), [((0, 2), (0, 1))]),
]


@given(box_and_holes())
@example(_BOX_MINUS_EXAMPLES[0])
@example(_BOX_MINUS_EXAMPLES[1])
@example(_BOX_MINUS_EXAMPLES[2])
def test_box_minus_matches_set_difference(case):
    e, box, holes = case
    got = boxes_mod.box_minus(e, box, holes)
    want = BoxSet.from_ints(e, [box]).difference(BoxSet.from_ints(e, holes))
    assert got == want
    assert got.dim == len(box)


@settings(max_examples=50, deadline=None)
@given(box_and_holes())
@example(_BOX_MINUS_EXAMPLES[0])
@example(_BOX_MINUS_EXAMPLES[1])
@example(_BOX_MINUS_EXAMPLES[2])
def test_box_minus_takes_no_slab_tree_path(case):
    """`box_minus`, and `difference` and `intersection` both ways between the
    box and the union of the holes, match the Fraction-grid reference and
    never reach the sweep."""
    e, box, holes = case
    a, b = (BoxSet([tuple((Dyadic(lo, e), Dyadic(hi, e)) for lo, hi in h) for h in part])
            for part in ([box], holes))

    def refuse(*_):
        raise AssertionError("a box difference went through the sweep")

    with patch.multiple(boxes_mod, _sweep=refuse, _merge=refuse, _int_boxes=refuse):
        got = [boxes_mod.box_minus(e, box, holes), a.difference(b), a.intersection(b),
               b.difference(a), b.intersection(a)]
    minus, both = (lambda x, y: x & ~y), np.logical_and
    want = [reference_boolean(op, x.boxes, y.boxes) for op, x, y in
            ((minus, a, b), (minus, a, b), (both, a, b), (minus, b, a), (both, b, a))]
    assert [exact(s.boxes) for s in got] == [exact(w) for w in want]


def test_box_minus_counts_its_slabs(monkeypatch):
    # a square hole in the middle of a square: three slabs on axis 0
    box, hole = ((0, 9), (0, 9)), ((3, 6), (3, 6))
    monkeypatch.setattr(boxes_mod, "MAX_SLABS", 3)
    assert len(boxes_mod.box_minus(0, box, [hole]).ints) == 4
    monkeypatch.setattr(boxes_mod, "MAX_SLABS", 2)
    with pytest.raises(ResourceLimit, match="difference: one merge over 2 slabs"):
        boxes_mod.box_minus(0, box, [hole])
    assert boxes_mod.box_minus(0, box, []).ints == (box,)  # no holes, no slabs


def test_box_minus_of_many_staggered_holes():
    # 1,200 holes, each overlapping its next dozen along axis 0 and wrapping
    # round the other two axes at coprime periods
    holes = [((k, k + 13), (k % 37, k % 37 + 9), (k % 23, k % 23 + 4)) for k in range(1200)]
    box = ((-2, 1220), (1, 44), (0, 25))
    got = boxes_mod.box_minus(0, box, holes)
    # the box is got and the holes clipped to it, and their volumes add up,
    # so got meets no hole
    clipped = [tuple((max(lo, bl), min(hi, bh)) for (lo, hi), (bl, bh) in zip(h, box))
               for h in holes]
    whole, cut = BoxSet.from_ints(0, [box]), BoxSet.from_ints(0, clipped)
    assert got.union(cut) == whole
    assert got.measure() + cut.measure() == whole.measure()
    assert 0 < got.measure() < whole.measure()


def _least_lattice_scan(e, ib):
    """`least_lattice` as one OR over every corner, with no early return."""
    m = reduce(or_, (c for b in ib for iv in b for c in iv), 0) if e else 0
    k = min(e, (m & -m).bit_length() - 1) if m else e
    return (e - k, [tuple((lo >> k, hi >> k) for lo, hi in b) for b in ib]) if k else (e, ib)


@st.composite
def lattice_boxes(draw):
    """An exponent and up to 6 int boxes whose corners share 0 to 7 trailing
    zero bits, some negative, some all zero."""
    dim = draw(st.sampled_from([2, 3]))
    corner = st.integers(0, 7).flatmap(lambda k: st.integers(-9, 9).map(lambda c: c << k))
    return draw(st.integers(0, 6)), [tuple((draw(corner), draw(corner)) for _ in range(dim))
                                     for _ in range(draw(st.integers(0, 6)))]


@given(lattice_boxes())
@example((3, []))
@example((3, [((0, 0), (0, 0)), ((0, 0), (0, 0))]))  # every corner zero
@example((2, [((0, 8), (4, 16)), ((-8, 4), (12, 5))]))  # one odd corner, in the last box
@example((0, [((2, 4), (4, 8))]))
@example((5, [((-64, 32), (96, -128)), ((0, 0), (256, 32))]))  # more zero bits than e
def test_least_lattice_matches_full_corner_scan(case):
    e, ib = case
    f, got = boxes_mod.least_lattice(e, ib)
    want_f, want = _least_lattice_scan(e, ib)
    assert (f, list(got)) == (want_f, list(want))


@given(boxes2d.filter(lambda s: not s.is_empty()))
def test_int_bbox_is_the_per_axis_extremes(a):
    ib = a.ints
    assert a.int_bbox() == tuple((min(b[ax][0] for b in ib), max(b[ax][1] for b in ib))
                                 for ax in range(a.dim))


@st.composite
def regions(draw, max_exp=2):
    """A random 3-D region of up to 5 boxes, each axis at its own exponent
    in [0, max_exp], inside [0, 9] on every axis."""
    region = []
    for _ in range(draw(st.integers(0, 5))):
        box = []
        for _ in range(3):
            exp = draw(st.integers(0, max_exp))
            lo = draw(st.integers(0, 5 << exp))
            hi = lo + draw(st.integers(1, 4 << exp))
            box.append((Dyadic(lo, exp), Dyadic(hi, exp)))
        region.append(tuple(box))
    return BoxSet(region)


@st.composite
def polylines(draw, max_exp=2, lo=-2, hi=9):
    """A rectilinear polyline at one exponent in [0, max_exp]: a single point
    in [lo, hi]^3, a straight segment, an L or a staircase."""
    exp = draw(st.integers(0, max_exp))
    pt = [Dyadic(draw(st.integers(lo << exp, hi << exp)), exp) for _ in range(3)]
    points = [tuple(pt)]
    for _ in range(draw(st.integers(0, 3))):
        axis = draw(st.integers(0, 2))
        pt[axis] = pt[axis] + Dyadic(draw(st.integers(-3 << exp, 3 << exp)), exp)
        points.append(tuple(pt))
    return points


@st.composite
def polyline_cases(draw):
    """A random 3-D region of mixed-exponent boxes, a rectilinear polyline
    (a single point, a straight segment, an L or a staircase) that may lie
    partly or wholly outside the region's bounding box, and an eps in
    (0, 1]."""
    region = draw(regions())
    points = draw(polylines())
    j = draw(st.integers(0, 4))
    eps = Dyadic(draw(st.integers(1, 1 << j)), j)
    return points, region, eps


REGION = BoxSet([box_of((0, 4), (0, 4), (0, 4))])


@given(polyline_cases())
@example(([(Dyadic(1), Dyadic(2), Dyadic(2)), (Dyadic(3), Dyadic(2), Dyadic(2)),
           (Dyadic(3), Dyadic(3), Dyadic(2))],
          REGION, Dyadic(1)))  # an L at distance exactly 1 from the walls
@example(([(Dyadic(2), Dyadic(2), Dyadic(3)), (Dyadic(2), Dyadic(2), Dyadic(6))],
          REGION, Dyadic(1, 3)))  # partly outside
@example(([(Dyadic(9),) * 3], REGION, Dyadic(1)))  # wholly outside
@example(([(Dyadic(2),) * 3], REGION, Dyadic(1)))  # at distance 2, capped at 1
@example(([(Dyadic(1),) * 3], BoxSet.empty(), Dyadic(1, 2)))  # empty region
def test_clearance_matches_neighborhood_oracle(case):
    points, region, eps = case

    def inside(e):
        return neighborhood(points, e).difference(region).is_empty()

    prepared = Clearance(region)
    room = clearance(prepared, points)
    assert 0 <= room <= 1
    assert inside(eps) == (eps <= room)
    if room > 0:
        assert inside(room)  # the distance is attained...
    if room < 1:
        assert not inside(room + Dyadic(1, 8))  # ...and exact
    assert clearance(prepared, points, finer=3) == room  # on any lattice


def on_one_lattice(points, c):
    """``(e, m, pts)``: the `Dyadic` ``c`` and the `Dyadic` points of a
    polyline as ints on the least lattice ``e`` that holds them all."""
    e, ints = on_lattice([Dyadic.coerce(x) for x in (c, *(x for p in points for x in p))])
    rest = iter(ints[1:])
    return e, ints[0], [tuple(next(rest) for _ in p) for p in points]


def neighborhood(points, c):
    """`polyline_neighborhood` of the `Dyadic` points with the `Dyadic` radius ``c``."""
    e, m, pts = on_one_lattice(points, c)
    return polyline_neighborhood(e, pts, m)


def clearance(prepared, points, finer=0):
    """The room of a `Clearance` query on the `Dyadic` points, asked on the
    lattice ``finer`` exponents below the least that holds them."""
    e, _, pts = on_one_lattice(points, 0)
    f, room = prepared(e + finer, [tuple(x << finer for x in p) for p in pts])
    assert f == max(e + finer, prepared.exp)
    return Dyadic(room, f)


def assert_clearance_exact(points, region, room, eps):
    """``room`` against the neighborhood oracle: the eps-neighborhood lies in
    the region exactly when eps <= room, and the distance is attained and
    exact (every gap is a multiple of 2^-8 here)."""

    def inside(e):
        return neighborhood(points, e).difference(region).is_empty()

    assert 0 <= room <= 1
    assert inside(eps) == (eps <= room)
    if room > 0:
        assert inside(room)
    if room < 1:
        assert not inside(room + Dyadic(1, 8))


FINE_REGION = BoxSet([box_of((Dyadic(1, 4), Dyadic(67, 4)), (0, 4), (0, 4)),
                      box_of((Dyadic(67, 4), 6), (1, 3), (Dyadic(3, 4), 3))])


@given(regions(max_exp=4),
       st.lists(polylines(max_exp=5, lo=-4, hi=14), min_size=1, max_size=8),
       st.integers(1, 32).map(lambda k: Dyadic(k, 5)))
@example(REGION, [[(Dyadic(1),) * 3], [(Dyadic(1, 5), Dyadic(2), Dyadic(2))],
                  [(Dyadic(2),) * 3]], Dyadic(1))  # finer, then coarser again
@example(FINE_REGION, [[(Dyadic(3), Dyadic(2), Dyadic(2)),
                        (Dyadic(5), Dyadic(2), Dyadic(2))],
                       [(Dyadic(1),) * 3]], Dyadic(1, 4))  # region finer
@example(REGION, [[(Dyadic(-3),) * 3], [(Dyadic(2), Dyadic(2), Dyadic(7))],
                  [(Dyadic(13), Dyadic(2), Dyadic(2))]],
         Dyadic(1, 2))  # more than 1 outside the bbox
@example(BoxSet.empty(), [[(Dyadic(1),) * 3], [(Dyadic(-5),) * 3]],
         Dyadic(1, 2))  # empty region
def test_prepared_clearance_answers_many_polylines(region, queries, eps):
    prepared = Clearance(region)
    for points in queries:
        assert_clearance_exact(points, region, clearance(prepared, points), eps)


def test_clearance_rejects_diagonal_segments():
    with pytest.raises(ValueError, match="axis-aligned"):
        Clearance(REGION)(0, [(0, 0, 0), (1, 1, 0)])
    with pytest.raises(ValueError, match="axis-aligned"):
        polyline_neighborhood(2, [(0, 0, 0), (4, 0, 0), (8, 4, 4)], 1)
    with pytest.raises(ValueError, match="empty polyline"):
        Clearance(REGION)(0, [])
    # a polyline of another dimension than the region, or of points of
    # unequal dimension, is not answered on the axes they share
    for points in ([(2, 2)], [(2, 2, 2, 9)], [(2, 2, 2), (2, 2)]):
        with pytest.raises(ValueError, match="dimension"):
            Clearance(REGION)(0, points)
    with pytest.raises(ValueError, match="dimension"):
        polyline_neighborhood(0, [(2, 2, 2), (2, 2)], 1)


def test_components_counts():
    a = cube_at((0, 0, 0), Dyadic(1, 1))
    b = cube_at((1, 0, 0), Dyadic(1, 1))
    far = cube_at((5, 5, 5), Dyadic(1, 1))
    assert len(BoxSet([a, b]).components()) == 1
    assert len(BoxSet([a, far]).components()) == 2
    corner = cube_at((1, 1, 1), Dyadic(1, 1))
    assert len(BoxSet([a, corner]).components()) == 2


def test_components_are_canonical():
    # the slab x in [1, 2] holds both components, so the canonical boxes of
    # the whole set split `low` in two
    low = box_of(interval(0, 16), interval(0, 8))
    high = box_of(interval(8, 16), interval(40, 48))
    whole = BoxSet([low, high])
    assert len(whole.boxes) == 3
    assert set(whole.components()) == {BoxSet([low]), BoxSet([high])}


def test_thin_of_cube():
    a = BoxSet([cube_at((0, 0, 0), Dyadic(2))])
    t = a.thin(1, 1)
    assert t.volume() == Fraction(27)  # side 4 erodes to side 3
    assert a.thin(0, 3).is_empty()


def _random_union(rng, pitch_exp=6, max_boxes=3):
    boxes = []
    for _ in range(rng.randrange(1, max_boxes + 1)):
        iv = []
        for _ in range(3):
            a = rng.randrange(0, (1 << pitch_exp) - 4)
            b = rng.randrange(a + 2, 1 << pitch_exp)
            iv.append((Dyadic(a, pitch_exp), Dyadic(b, pitch_exp)))
        boxes.append(tuple(iv))
    return BoxSet(boxes)


def test_thin_matches_voxel_erosion():
    rng = random.Random(20260826)
    p = 6
    pad = box_of(*[(Dyadic(-1, p), Dyadic((1 << p) + 1, p))] * 3)
    for _ in range(25):
        bs = _random_union(rng, p)
        thin = bs.thin(p, 1)
        vox, _ = voxelize(bs, p, pad)
        eroded = ndimage.binary_erosion(vox, np.ones((3, 3, 3)), border_value=0)
        got = (voxelize(thin, p, pad)[0] if not thin.is_empty()
               else np.zeros_like(vox))
        assert np.array_equal(eroded, got)


def test_translate_and_permute_preserve_volume():
    rng = random.Random(7)
    bs = _random_union(rng)
    moved = bs.translate(2, (4, -8, 3))  # (1, -2, 3/4)
    assert moved.volume() == bs.volume()
    flipped = bs.signed_permute((2, 0, 1), (1, -1, 1))
    assert flipped.volume() == bs.volume()
    # exact round trips, through a lattice finer than the set's 2^-6 one
    fine = (20, -3, 2)  # (5/2^7, -3/2^9, 1/2^8) on the lattice 2^-9
    back = bs.translate(9, fine).translate(9, [-x for x in fine])
    assert back.boxes == bs.boxes and back == bs
    back = flipped.signed_permute((1, 2, 0), (-1, 1, 1))
    assert back.boxes == bs.boxes and back == bs


def test_box_volume():
    b = box_of(interval(0, 8), interval(0, 4), interval(0, 2))
    assert BoxSet([b]).volume() == Fraction(8 * 4 * 2, 8 ** 3)


def split_at_midpoints(box):
    """The 2^dim boxes of ``box`` cut at its midpoint on every axis."""
    return list(product(*[((lo, (lo + hi).halve()), ((lo + hi).halve(), hi))
                          for lo, hi in box]))


@given(regions(), st.integers(1, 3))
def test_lattice_exponent_is_the_least_that_holds_every_corner(a, finer):
    split = BoxSet([part for b in a.boxes for part in split_at_midpoints(b)])
    assert split == a and hash(split) == hash(a)
    again = BoxSet(a.boxes)
    assert again == a and exact(again.boxes) == exact(a.boxes)
    # a box beyond the region, on a lattice finer than the region's
    k = a.exp + finer
    far = BoxSet([((Dyadic((20 << k) + 1, k), Dyadic(21)),) * 3])
    both = a.union(far)
    assert both.exp == k
    rest = both.difference(far)
    assert rest == a and rest.exp == a.exp


def test_operations_on_sets_never_relattice_their_boxes(monkeypatch):
    # `_lattice` only brings the constructor's Dyadic boxes in
    a = BoxSet([box_of((0, 4), (0, 2), (0, 1)), box_of((4, 5), (0, 1), (0, 1))])
    b = BoxSet([box_of((Dyadic(7, 1), Dyadic(23, 2)), (1, 3), (0, 1))])
    calls = []
    real = boxes_mod._lattice
    monkeypatch.setattr(boxes_mod, "_lattice", lambda bs: calls.append(1) or real(bs))
    a.union(b)
    a.intersection(b)
    a.difference(b)
    a.interior_intersects(b)
    set_contacts([a, b])
    contact_faces(a, b)
    a.volume()
    a.int_bbox()
    b.translate(5, (1, 0, 0))
    b.signed_permute((2, 0, 1), (1, -1, 1))
    b.inflate_all(3, 1)
    b.thin(4, 1)
    a.components()
    prepared = Clearance(a)
    assert calls == []
    prepared(2, [(4, 4, 2)])  # (1, 1, 1/2) on the lattice of 2
    assert calls == []
    # the contact faces and a Clearance query are ints from end to end
    made = []
    init = Dyadic.__init__
    monkeypatch.setattr(Dyadic, "__init__", lambda d, *args: made.append(args) or init(d, *args))
    contact_faces(a, b)
    prepared(3, [(8, 8, 4), (8, 8, 12)])
    assert made == []


# -- reference kernel ---------------------------------------------------------
# The dense-grid booleans as they were before the kernel moved to ints: grids
# of Fractions searched by bisection, and the canonical merge by comparing the
# recursive run structure of every slab.


def _ref_axis_grid(boxes, axis):
    vals = {b[axis][0].as_fraction(): b[axis][0] for b in boxes}
    vals.update({b[axis][1].as_fraction(): b[axis][1] for b in boxes})
    return [vals[k] for k in sorted(vals)]


def _ref_fill(arr, grids, boxes):
    for b in boxes:
        idx = []
        for a, (lo, hi) in enumerate(b):
            i0 = bisect_left(grids[a], lo.as_fraction())
            i1 = bisect_left(grids[a], hi.as_fraction())
            idx.append(slice(i0, i1))
        arr[tuple(idx)] = True


def _ref_extract(arr, grids_dy):
    def structure(sub):
        if sub.ndim == 1:
            runs = []
            i = 0
            n = sub.shape[0]
            while i < n:
                if sub[i]:
                    j = i
                    while j < n and sub[j]:
                        j += 1
                    runs.append((i, j))
                    i = j
                else:
                    i += 1
            return tuple(runs)
        groups = []
        prev = None
        start = 0
        for i in range(sub.shape[0]):
            s = structure(sub[i])
            if s != prev:
                if prev is not None and prev != ():
                    groups.append((start, i, prev))
                prev = s
                start = i
        if prev is not None and prev != ():
            groups.append((start, sub.shape[0], prev))
        return tuple(groups)

    def emit(struct, depth, prefix, out):
        g = grids_dy[depth]
        if depth == len(grids_dy) - 1:
            for i0, i1 in struct:
                out.append(tuple(prefix + [(g[i0], g[i1])]))
        else:
            for i0, i1, sub in struct:
                emit(sub, depth + 1, prefix + [(g[i0], g[i1])], out)

    out = []
    emit(structure(arr), 0, [], out)
    return out


def reference_boolean(op, a_boxes, b_boxes=()):
    """Canonical box list of ``op(a, b)`` over a Fraction grid; with no
    ``b_boxes`` and ``op`` the identity on ``a``, the canonical form of a."""
    allb = list(a_boxes) + list(b_boxes)
    if not allb:
        return []
    dim = len(allb[0])
    grids_dy = [_ref_axis_grid(allb, a) for a in range(dim)]
    grids = [[d.as_fraction() for d in g] for g in grids_dy]
    shape = [len(g) - 1 for g in grids]
    a = np.zeros(shape, dtype=bool)
    b = np.zeros(shape, dtype=bool)
    _ref_fill(a, grids, a_boxes)
    _ref_fill(b, grids, b_boxes)
    return _ref_extract(op(a, b), grids_dy)


def exact(boxes):
    """Box list as plain ints, so equality compares (num, exp) exactly."""
    return [[(lo.num, lo.exp, hi.num, hi.exp) for lo, hi in b] for b in boxes]


@st.composite
def raw_box_lists(draw):
    """Two overlapping, non-canonical box lists of one dimension (2 or 3),
    with mixed exponents, negative coordinates and, sometimes, a large
    dyadic translation of both."""
    dim = draw(st.sampled_from([2, 3]))
    shift = draw(st.sampled_from([0, Dyadic(-(1 << 80) - 3, 41)]))
    return _raw_boxes(draw, dim, shift), _raw_boxes(draw, dim, shift)


def _raw_boxes(draw, dim, shift):
    out = []
    for _ in range(draw(st.integers(0, 6))):
        box = []
        for _ in range(dim):
            exp = draw(st.integers(0, 3))
            lo = draw(st.integers(-6 << exp, 6 << exp))
            hi = lo + draw(st.integers(1, 5 << exp))
            box.append((Dyadic(lo, exp) + shift, Dyadic(hi, exp) + shift))
        out.append(tuple(box))
    return out


def _int_box(*intervals):
    return tuple((Dyadic(lo), Dyadic(hi)) for lo, hi in intervals)


_OVERLAPPING = [_int_box((0, 3), (0, 2), (0, 1)), _int_box((1, 4), (1, 3), (0, 2))]


@given(raw_box_lists())
# equal operands: a - a is empty, a | a and a & a are a
@example((_OVERLAPPING, _OVERLAPPING))
# slabs of a and b with equal sections merge: on axis 0, and on the last axis
@example(([_int_box((0, 1), (0, 2))], [_int_box((1, 2), (0, 2))]))
@example(([_int_box((0, 2), (0, 1))], [_int_box((0, 2), (1, 2))]))
# a - b leaves two touching slabs with equal sections, which merge
@example(([_int_box((0, 2), (0, 2)), _int_box((2, 4), (0, 1))],
          [_int_box((0, 2), (1, 2))]))
# nested corner blocks: each box lies in the union of the larger ones
@example(([_int_box(*[(0, k)] * 3) for k in (3, 1, 4, 2)],
          [_int_box(*[(0, k)] * 3) for k in (2, 5)]))
# a shifted, overlapping staircase and a crossing one
@example(([_int_box((k, k + 3), (k, k + 3)) for k in range(4)],
          [_int_box((k, k + 2), (3 - k, 5 - k)) for k in range(3)]))
# several boxes sharing one axis-0 interval, so one segment-tree node
@example(([_int_box((0, 4), (0, 1), (0, 2)), _int_box((0, 4), (2, 3), (1, 3)),
           _int_box((0, 4), (0, 3), (1, 2))],
          [_int_box((1, 2), (0, 3), (0, 3))]))
# touching slabs with equal sections from different nodes, absorbed into one
@example(([_int_box((0, 1), (0, 2)), _int_box((1, 3), (0, 2)),
           _int_box((3, 4), (0, 2)), _int_box((5, 6), (0, 2))],
          [_int_box((4, 5), (0, 2)), _int_box((2, 5), (0, 1))]))
# an empty minuend, and an empty subtrahend
@example(([], [_int_box((0, 2), (0, 1))]))
@example(([_int_box((0, 2), (0, 1)), _int_box((0, 1), (1, 2))], []))
# a one-box minuend, its own bounding box, so nothing of the box lies outside it
@example(([_int_box((0, 2), (0, 2), (0, 2))], [_int_box((1, 3), (1, 3), (1, 3))]))
# disjoint operands, the minuend an L whose bounding box reaches round a corner
@example(([_int_box((0, 2), (0, 1)), _int_box((0, 1), (1, 2))], [_int_box((3, 4), (0, 2))]))
def test_kernel_matches_fraction_grid_reference(case):
    raw_a, raw_b = case
    a, b = BoxSet(raw_a), BoxSet(raw_b)
    assert exact(a.boxes) == exact(reference_boolean(lambda x, y: x, raw_a))
    assert exact(b.boxes) == exact(reference_boolean(lambda x, y: x, raw_b))
    for got, op in ((a.union(b), np.logical_or),
                    (a.intersection(b), np.logical_and),
                    (a.difference(b), lambda x, y: x & ~y)):
        assert exact(got.boxes) == exact(reference_boolean(op, a.boxes, b.boxes))
        assert got.dim == max(a.dim, b.dim)  # an empty result keeps the operands' dimension


@st.composite
def box_families(draw):
    """3 to 5 box lists of one dimension: raw ones, or the canonical boxes
    of one raw list dealt out to the lists, so interior-disjoint sets."""
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(3, 5))
    if draw(st.booleans()):
        return [_raw_boxes(draw, dim, 0) for _ in range(n)]
    raws = [[] for _ in range(n)]
    for box in BoxSet(_raw_boxes(draw, dim, 0)).boxes:
        raws[draw(st.integers(0, n - 1))].append(box)
    return raws


@settings(deadline=None)
@given(box_families())
def test_union_all_matches_union_fold_and_reference(raws):
    sets = [BoxSet(r) for r in raws]
    got = union_all(sets)
    assert got == reduce(BoxSet.union, sets)
    every = [b for r in raws for b in r]
    assert exact(got.boxes) == exact(reference_boolean(lambda x, y: x, every))


@settings(deadline=None)
@given(box_families(), st.integers(0, 3))
@example([[box_of((0, 2), (0, 1)), box_of((2, 3), (0, 2))],
          [box_of((3, 4), (0, 1))], [box_of((0, 1), (1, 2))]], 2)
def test_set_contacts_reads_raw_widened_boxes_as_their_set(raws, k):
    """Set 0 as its canonical boxes each widened by ``2**-k``, which overlap
    each other, gives the overlaps of its canonical inflation, and the same
    face contacts between sets whose interiors do not meet: a box pair that
    touches inside the other set's interior adds a face bit only where the
    sets overlap anyway."""
    grown, *rest = [BoxSet(r) for r in raws]
    raw = RawBoxes(*boxes_mod._offset(grown.exp, grown.ints, k, [(-1, 1)] * grown.dim))
    canonical = grown.inflate_all(k, 1)
    assert BoxSet.from_ints(*raw) == canonical
    counted = range(1, len(raws))
    adjacent, overlaps, counts = set_contacts([raw, *rest], components=counted)
    want_adjacent, want_overlaps, want_counts = set_contacts([canonical, *rest], components=counted)
    assert overlaps == want_overlaps
    assert adjacent - overlaps == want_adjacent - want_overlaps
    assert counts == want_counts


def test_deep_overlap_canonicalizes_in_one_sweep():
    # every box overlaps most others: a sweep that recomputed each section
    # from the boxes spanning it would take seconds here
    n = 400
    nested = BoxSet.from_ints(0, [((0, k),) * 3 for k in range(n, 0, -1)])
    assert nested.ints == (((0, n),) * 3,)
    shifted = BoxSet.from_ints(0, [((k, k + n),) * 2 for k in range(n)])
    assert shifted.ints == tuple(((i, i + 1), (max(0, i - n + 1), min(i, n - 1) + n))
                                 for i in range(2 * n - 1))


def test_diagonal_cubes_canonicalize_without_a_grid():
    # 2n distinct coordinates per axis: a dense grid would have (2n - 1)^3
    # cells, the sweep holds only the n cubes
    n = 200
    boxes = [((Dyadic(k), Dyadic(2 * k + 1, 1)),) * 3 for k in range(n)]
    assert BoxSet(boxes[::-1]).boxes == tuple(boxes)


def test_slab_limit_raises_resource_limit(monkeypatch):
    # three disjoint squares on a diagonal: one slab per square on axis 0
    monkeypatch.setattr(boxes_mod, "MAX_SLABS", 2)
    boxes = [((Dyadic(2 * k), Dyadic(2 * k + 1)),) * 2 for k in range(3)]
    a = BoxSet(boxes[:2])  # exactly at the limit
    with pytest.raises(ResourceLimit, match="canonicalize: one merge over 2 slabs"):
        BoxSet(boxes)
    with pytest.raises(ResourceLimit, match="union: one merge over 2 slabs"):
        a.union(BoxSet(boxes[2:]))
