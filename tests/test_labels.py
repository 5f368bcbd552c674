"""Keyed labels: determinism, uniformity, tie-breaking."""

from fractions import Fraction

import scipy.stats

from tilelab.labels import LABEL_BITS, LabelSource, _encode_vertex


def test_deterministic_across_instances():
    a = LabelSource(12, salt="x")
    b = LabelSource(12, salt="x")
    assert [a.bits(i) for i in range(50)] == [b.bits(i) for i in range(50)]


def test_seed_and_salt_change_labels():
    base = [LabelSource(1, "s").bits(i) for i in range(20)]
    assert base != [LabelSource(2, "s").bits(i) for i in range(20)]
    assert base != [LabelSource(1, "t").bits(i) for i in range(20)]


def test_labels_in_unit_interval():
    src = LabelSource(3)
    for i in range(200):
        v = src.label(i)
        assert 0 <= v < 1
        assert isinstance(v, Fraction)


def test_uniformity_ks():
    src = LabelSource(0, salt="ks")
    sample = [src.bits(i) / 2**LABEL_BITS for i in range(2000)]
    stat = scipy.stats.kstest(sample, "uniform")
    assert stat.pvalue > 0.01


def test_uniformity_chi_square_buckets():
    src = LabelSource(0, salt="chi")
    counts = [0] * 16
    n = 4000
    for i in range(n):
        counts[src.bits(i) >> 60] += 1
    stat = scipy.stats.chisquare(counts)
    assert stat.pvalue > 0.01


def test_choose_min_is_argmin():
    src = LabelSource(5)
    verts = list(range(30))
    chosen = src.choose_min(verts)
    assert src.bits(chosen) == min(src.bits(v) for v in verts)
    assert src.choose_min(reversed(verts)) == chosen


def test_choose_min_breaks_ties_by_encoded_id(monkeypatch):
    # a 4-bit label ties often, so the encoded id decides
    src = LabelSource(5)
    verts = [7, "7", (1, 2), [1, 2], (1, "2"), "a", ("b", 3)] + list(range(40))
    full = src._bits_of
    for width in (LABEL_BITS, 4):
        monkeypatch.setattr(src, "_bits_of", lambda data: full(data) >> (LABEL_BITS - width))
        ref = min(verts, key=lambda v: (src.bits(v), _encode_vertex(v)))
        assert src.choose_min(verts) is ref
        assert src.choose_min(reversed(verts)) == ref


def test_vertex_encoding_distinguishes_structures():
    src = LabelSource(4)
    assert src.bits((1, 2)) != src.bits((1, "2"))
    assert src.bits(12) != src.bits("12")
