"""Scale chains and hierarchical plane pieces: exact disjointness, cover
bookkeeping, and the mirror symmetry between the two interpretations."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tilelab import fractal
from tilelab.boxes import BoxSet, box_minus, set_contacts, union_all
from tilelab.dyadic import Dyadic, on_lattice
from tilelab.fractal import (FAMILY_OFFSETS, INTERPRETATIONS, FractalPiece, _cells,
                             _dyadic_mod, _halo_contacts, _pow2,
                             adjacency_report, build_chain, embed_tree,
                             pieces_in_window, pieces_svg)


def window(half):
    return ((Dyadic(-half), Dyadic(half)), (Dyadic(-half), Dyadic(half)))


def test_chain_congruences():
    chain = build_chain(5, -2, 2)
    for i in range(chain.i_min, chain.i_max):
        step = [(b - a).as_fraction()
                for a, b in zip(chain.v[i], chain.v[i + 1])]
        for d in step:
            assert d in (0, 2 ** i)


def test_chain_deterministic():
    a = build_chain(3, -1, 2)
    b = build_chain(3, -1, 2)
    assert a.to_json() == b.to_json()
    assert a.to_json() != build_chain(4, -1, 2).to_json()


@pytest.mark.parametrize("interpretation", INTERPRETATIONS)
def test_pieces_disjoint_and_cover_bookkeeping(interpretation):
    chain = build_chain(1, -2, 1)
    win = window(1)
    pieces = pieces_in_window(chain, win, interpretation)
    # pairwise interior disjointness, exact
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert not pieces[i].region.interior_intersects(pieces[j].region)
    rep = adjacency_report(pieces, win, interpretation)
    from fractions import Fraction
    # disjointness makes the union measure the sum of the piece areas
    assert Fraction(rep["covered_area"]) == sum(p.area for p in pieces)
    assert rep["disconnected_pieces"] == []


def test_interpretations_are_mirror_images():
    # reflecting y -> -y carries one family layout onto the other, so the
    # two interpretations must report identical interior degree statistics
    chain = build_chain(2, -2, 1)
    win = window(1)
    reports = {}
    for interp in INTERPRETATIONS:
        pieces = pieces_in_window(chain, win, interp)
        reports[interp] = adjacency_report(pieces, win, interp)
    a, b = (reports[i] for i in INTERPRETATIONS)
    assert a["degree_histogram"] == b["degree_histogram"]
    assert a["n_interior"] == b["n_interior"]


def test_small_windows_acyclic():
    for seed in (1, 2):
        chain = build_chain(seed, -2, 1)
        pieces = pieces_in_window(chain, window(1), "square")
        rep = adjacency_report(pieces, window(1), "square")
        assert rep["acyclic_interior"]
        assert rep["n_interior"] > 0


def test_deep_window_has_interior_cycle():
    # a parent set's unique child sits at its corner with two edges on the
    # parent boundary, so a grandchild can meet the grandparent's piece
    # across the child's boundary: parent-child-grandchild triangles exist
    chain = build_chain(1, -2, 2)
    win = ((Dyadic(-1), Dyadic(0)), (Dyadic(0), Dyadic(1)))
    pieces = pieces_in_window(chain, win, "square")
    rep = adjacency_report(pieces, win, "square")
    assert not rep["acyclic_interior"]


@pytest.mark.parametrize("seed,i_max,win", [
    (2, 1, window(1)),
    (1, 2, ((Dyadic(-1), Dyadic(0)), (Dyadic(0), Dyadic(1)))),
])
def test_contact_sweep_counts_piece_components(seed, i_max, win):
    regions = [p.region for p in pieces_in_window(build_chain(seed, -2, i_max), win, "square")]
    assert set_contacts(regions, components=range(len(regions)))[2] == \
        [len(r.components()) for r in regions]


@pytest.mark.parametrize("seed,i_min,i_max,win", [
    (0, -2, 2, window(1)),
    (3, -1, 1, ((Dyadic(-1), Dyadic(0)), (Dyadic(0), Dyadic(1)))),
    (5, -2, 1, ((Dyadic(-3, 2), Dyadic(5, 3)), (Dyadic(-1, 1), Dyadic(7, 2)))),
])
def test_uncovered_set_is_the_window_minus_the_pieces(monkeypatch, seed, i_min, i_max, win):
    chain = build_chain(seed, i_min, i_max)
    five = BoxSet([tuple((5 * lo, 5 * hi) for lo, hi in win)])
    for interp in INTERPRETATIONS:
        pieces = pieces_in_window(chain, win, interp)
        made = []
        monkeypatch.setattr(fractal, "box_minus",
                            lambda *a: made.append(box_minus(*a)) or made[-1])
        report = adjacency_report(pieces, win, interp)
        monkeypatch.undo()
        want = five.difference(union_all([p.region for p in pieces]))
        assert made == [want]
        assert not want.is_empty() and report["uncovered_area"] == str(want.volume() / 25)


def test_split_piece_is_reported_disconnected():
    win = window(1)
    pieces = pieces_in_window(build_chain(1, -1, 1), win, "square")
    assert adjacency_report(pieces, win, "square")["disconnected_pieces"] == []
    p = pieces[2]
    # the piece plus a far copy of it, outside the window
    pieces[2] = FractalPiece(p.scale, p.family, p.cell,
                             p.region.union(p.region.translate(0, (100, 0))))
    assert adjacency_report(pieces, win, "square")["disconnected_pieces"] == [p.key]


def test_adjacency_requires_positive_contact():
    chain = build_chain(1, -1, 1)
    win = window(1)
    pieces = pieces_in_window(chain, win, "square")
    rep = adjacency_report(pieces, win, "square")
    for i, j in rep["edges"]:
        assert pieces[i].region.shared_face_area(pieces[j].region) > 0


def test_embed_tree_vertices_inside_pieces():
    chain = build_chain(1, -2, 1)
    win = window(1)
    pieces = pieces_in_window(chain, win, "square")
    rep = adjacency_report(pieces, win, "square")
    interior = rep["interior_indices"]
    edges = [(i, j) for i, j in rep["edges"]
             if i in interior and j in interior]
    emb = embed_tree(pieces, edges, seed=0)
    for idx, pair in enumerate(emb["points"]):
        region = pieces[idx].region
        e, pt = on_lattice([Dyadic(*c) for c in pair], region.exp)
        k = e - region.exp
        assert any(all(lo << k <= x <= hi << k for x, (lo, hi) in zip(pt, b))
                   for b in region.ints)
    assert emb["crossings"] == 0


def test_report_serializations():
    chain = build_chain(1, -1, 1)
    win = window(1)
    pieces = pieces_in_window(chain, win, "square")
    svg = pieces_svg(pieces, win)
    assert svg.startswith("<svg") or "<svg" in svg
    # one rect per canonical region box, plus the frame
    assert svg.count("<rect") == sum(len(p.region.ints) for p in pieces) + 1


# -- lattice arithmetic against the Fraction formulas it replaced -------------

dyadics = st.builds(Dyadic, st.integers(-(1 << 16), 1 << 16), st.integers(0, 12))
# window corners within 4 of the origin, so a scale -6 lattice meets at most
# about 100 cells per axis
corners = st.builds(Dyadic, st.integers(-(1 << 10), 1 << 10), st.integers(8, 12))
scales = st.integers(-6, 4)


def _dyadic_mod_fraction(x, i):
    step = Fraction(2) ** i
    q = x.as_fraction() / step
    k = q.numerator // q.denominator
    return x - Dyadic(1, -i) * k


def _cells_meeting_fraction(anchor, i, offs, window):
    s = Fraction(2) ** i
    ranges = []
    for ax in range(2):
        base = (anchor[ax] * 5).as_fraction()
        wlo, whi = (c.as_fraction() for c in window[ax])
        lo_w = (wlo - base - s * offs[ax][1]) / (5 * s)
        hi_w = (whi - base - s * offs[ax][0]) / (5 * s)
        lo_i = lo_w.numerator // lo_w.denominator + (0 if lo_w.denominator == 1 else 1)
        hi_i = hi_w.numerator // hi_w.denominator
        ranges.append(range(lo_i, hi_i + 1))
    return [(wx, wy) for wx in ranges[0] for wy in ranges[1]]


@given(dyadics, scales)
@example(Dyadic(-1, 3), -2)
@example(Dyadic(-8), 2)
def test_dyadic_mod_matches_fraction(x, i):
    got = _dyadic_mod(x, i)
    assert got == _dyadic_mod_fraction(x, i)
    assert 0 <= got.as_fraction() < Fraction(2) ** i


@given(st.tuples(dyadics, dyadics), scales,
       st.sampled_from(INTERPRETATIONS), st.sampled_from(["A", "B"]),
       st.lists(corners, min_size=2, max_size=2).map(sorted),
       st.lists(corners, min_size=2, max_size=2).map(sorted))
@example((Dyadic(0), Dyadic(0)), 0, "square", "A",
         [Dyadic(-5), Dyadic(5)], [Dyadic(-5), Dyadic(5)])
@example((Dyadic(3, 4), Dyadic(-7, 5)), -3, "rect", "B",
         [Dyadic(-1, 3), Dyadic(1, 9)], [Dyadic(-9, 7), Dyadic(-1, 7)])
def test_cells_meeting_matches_fraction(anchor, i, interpretation, family,
                                        xs, ys):
    window = (tuple(xs), tuple(ys))
    offs = FAMILY_OFFSETS[interpretation][family]
    e, ints = on_lattice([*anchor, *xs, *ys], max(0, -i))
    got = _cells((5 * ints[0], 5 * ints[1]), 1 << (i + e), offs,
                 ((ints[2], ints[3]), (ints[4], ints[5])))
    assert got == _cells_meeting_fraction(anchor, i, offs, window)


# -- one contact sweep against the per-piece interiority test -----------------


def _interval(e):
    """An interval of positive length inside [-2, 2] on the lattice 2^-e."""
    n = 2 << e
    return st.integers(-n, n - 1).flatmap(
        lambda lo: st.integers(lo + 1, n).map(
            lambda hi: (Dyadic(lo, e), Dyadic(hi, e))))


def _box_sets(dim, min_size):
    # each interval on its own lattice, so one set mixes exponents 0..3
    box = st.tuples(*[st.integers(0, 3).flatmap(_interval) for _ in range(dim)])
    return st.lists(box, min_size=min_size, max_size=3).map(BoxSet)


_halo_cases = st.sampled_from((2, 3)).flatmap(lambda dim: st.tuples(
    st.lists(_box_sets(dim, 1), min_size=1, max_size=4),
    _box_sets(dim, 0),
    # the halo 2^-k as an int on a lattice up to two finer than its own
    st.integers(0, 4).flatmap(lambda k: st.integers(0, 2).map(lambda f: (k + f, 1 << f)))))


@given(_halo_cases)
def test_halo_contacts_matches_per_piece_oracle(case):
    regions, uncovered, (e, h) = case
    edges, exposed, counts = _halo_contacts(regions, uncovered, e, h)
    assert exposed == {k for k, r in enumerate(regions)
                       if r.inflate_all(e, h).interior_intersects(uncovered)}
    assert edges == [(a, b) for a in range(len(regions))
                     for b in range(a + 1, len(regions))
                     if regions[a].shared_face_area(regions[b]) > 0]
    assert counts == [len(r.components()) for r in regions]


# -- lattice-int pieces against the Dyadic construction they replaced ---------


def _ref_base_box(chain, i, family, cell, interpretation):
    """The full (unpunctured) scale-i set in 5x-scaled coordinates."""
    offs = FAMILY_OFFSETS[interpretation][family]
    vx, vy = chain.anchor(i)
    step = _pow2(i)
    anchor = (vx * 5 + step * (5 * cell[0]), vy * 5 + step * (5 * cell[1]))
    lo = tuple(anchor[ax] + step * offs[ax][0] for ax in range(2))
    hi = tuple(anchor[ax] + step * offs[ax][1] for ax in range(2))
    return ((lo[0], hi[0]), (lo[1], hi[1]))


def _ref_cells_meeting(chain, i, family, window, interpretation):
    """Lattice cells whose scale-i set closure meets the (scaled) window."""
    offs = FAMILY_OFFSETS[interpretation][family]
    ranges = []
    for ax in range(2):
        base = chain.anchor(i)[ax] * 5
        wlo, whi = window[ax]
        lo_i = -((base - wlo).scale(-i) + offs[ax][1]).floor(5)
        hi_i = ((whi - base).scale(-i) - offs[ax][0]).floor(5)
        ranges.append(range(lo_i, hi_i + 1))
    return [(wx, wy) for wx in ranges[0] for wy in ranges[1]]


def _ref_pieces_in_window(chain, window, interpretation):
    """``(key, region)`` per piece, built from `Dyadic` corners box by box."""
    swin = tuple((lo * 5, hi * 5) for lo, hi in window)
    pieces = []
    for i in range(chain.i_min, chain.i_max + 1):
        for family in ("A", "B"):
            for cell in _ref_cells_meeting(chain, i, family, swin, interpretation):
                base = _ref_base_box(chain, i, family, cell, interpretation)
                region = BoxSet([base])
                removed = [_ref_base_box(chain, j, fam2, c2, interpretation)
                           for j in range(chain.i_min, i) for fam2 in ("A", "B")
                           for c2 in _ref_cells_meeting(chain, j, fam2, base,
                                                        interpretation)]
                if removed:
                    region = region.difference(BoxSet(removed))
                if not region.is_empty():
                    pieces.append(((i, family, cell), region))
    return sorted(pieces, key=lambda p: p[0])


def _side(e):
    """A centre within 1 of the origin and a half-width of at most 1, both on
    the lattice 2^-e, as the interval's two corners."""
    n = 1 << e
    return st.tuples(st.integers(-n, n), st.integers(0, n)).map(
        lambda ch: (Dyadic(ch[0] - ch[1], e), Dyadic(ch[0] + ch[1], e)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 1000), st.integers(-3, 0), st.integers(0, 2),
       st.integers(0, 4).flatmap(lambda e: st.tuples(_side(e), _side(e))),
       st.sampled_from(INTERPRETATIONS))
@example(1, -2, 2, ((Dyadic(-1), Dyadic(1)), (Dyadic(-1), Dyadic(1))), "square")
def test_pieces_match_dyadic_reference(seed, i_min, i_max, win, interpretation):
    chain = build_chain(seed, i_min, i_max)
    got = [(p.key, p.region.exp, p.region.ints)
           for p in pieces_in_window(chain, win, interpretation)]
    assert got == [(key, r.exp, r.ints)
                   for key, r in _ref_pieces_in_window(chain, win, interpretation)]


def test_pieces_build_no_dyadic_per_box(monkeypatch):
    # a call may build Dyadics per scale, never per cell or box
    chain = build_chain(1, -2, 2)
    init = Dyadic.__init__
    built = []
    monkeypatch.setattr(Dyadic, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    counts, sizes = [], []
    for win in (window(1), window(2)):
        built.clear()
        sizes.append(len(pieces_in_window(chain, win, "square")))
        counts.append(len(built))
    assert sizes[0] < sizes[1]
    n_scales = chain.i_max - chain.i_min + 1
    assert counts[0] == counts[1] <= n_scales + 4
