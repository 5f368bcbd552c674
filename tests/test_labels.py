"""Keyed label streams: determinism, uniformity, substream recombination."""

from fractions import Fraction

import scipy.stats

from tilelab.labels import LABEL_BITS, LabelSource, _encode_vertex


def recombine(parts: list[int], k: int) -> int:
    """Inverse of splitting: rebuild the 64-bit label from substream bits."""
    assert len(parts) == k
    cursors = [len(range(j, LABEL_BITS, k)) for j in range(k)]
    raw = 0
    for pos in range(LABEL_BITS):
        j = pos % k
        cursors[j] -= 1
        raw = (raw << 1) | ((parts[j] >> cursors[j]) & 1)
    return raw


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
    sample = [src.float_label(i) for i in range(2000)]
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


def test_split_recombine_roundtrip():
    src = LabelSource(9, salt="split")
    for k in (2, 3, 4):
        subs = src.split(k)
        for v in ["a", (1, 2), 7]:
            parts = [s.bits(v) for s in subs]
            assert recombine(parts, k) == src.bits(v)


def test_choose_min_is_argmin():
    src = LabelSource(5)
    verts = list(range(30))
    chosen = src.choose_min(verts)
    assert src.bits(chosen) == min(src.bits(v) for v in verts)
    assert src.choose_min(reversed(verts)) == chosen


def test_choose_min_breaks_ties_by_encoded_id():
    # a 4-bit substream ties often, so the encoded id decides
    src = LabelSource(5)
    verts = [7, "7", (1, 2), [1, 2], (1, "2"), "a", ("b", 3)] + list(range(40))
    for stream in [src] + src.split(16):
        ref = min(verts, key=lambda v: (stream.bits(v), _encode_vertex(v)))
        assert stream.choose_min(verts) is ref
        assert stream.choose_min(reversed(verts)) == ref


def test_vertex_encoding_distinguishes_structures():
    src = LabelSource(4)
    assert src.bits((1, 2)) != src.bits((1, "2"))
    assert src.bits(12) != src.bits("12")
