import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clipedit.timeline import (
    SEG_LEN_MIN_S,
    VARIANTS,
    DegenerateClipError,
    InitStrategy,
    Interval,
    initial_clip,
    initial_clips,
    iou,
    ious,
    jitter,
    segment_bounds,
    segment_counts,
    segment_grid,
)

from oracles import grid_segments_ref, iou_ref

MID = InitStrategy("midpoint_neighbors")
SPAN = Interval(0.0, 300.0)

finite_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def ival(lo, hi):
    return Interval(float(lo), float(hi))


@st.composite
def intervals(draw):
    lo = draw(finite_times)
    width = draw(st.floats(min_value=1e-3, max_value=1e5))
    return Interval(lo, lo + width)


class TestInterval:
    def test_length(self):
        assert ival(2, 5).length_s == 3.0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ival(5, 5)
        with pytest.raises(ValueError):
            ival(5, 4)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            ival(-1, 4)

    def test_contains_endpoints(self):
        clip = ival(3, 8)
        assert clip.contains(3.0) and clip.contains(8.0) and clip.contains(5.5)
        assert not clip.contains(2.9)


class TestIou:
    def test_identity(self):
        assert iou(ival(0, 10), ival(0, 10)) == 1.0

    def test_disjoint(self):
        assert iou(ival(0, 1), ival(5, 6)) == 0.0

    def test_partial_overlap(self):
        assert iou(ival(0, 4), ival(2, 6)) == pytest.approx(2.0 / 6.0)

    def test_abutting_is_zero(self):
        assert iou(ival(0, 2), ival(2, 4)) == 0.0

    @given(intervals(), intervals())
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @given(intervals(), intervals())
    def test_one_iff_identical(self, a, b):
        if iou(a, b) == 1.0:
            # equality can only be reached when the endpoints coincide to
            # float resolution (sub-ulp offsets round away in the ratio)
            scale = max(abs(a.start_s), abs(a.end_s), abs(b.start_s), abs(b.end_s), 1.0)
            assert abs(a.start_s - b.start_s) <= 1e-9 * scale
            assert abs(a.end_s - b.end_s) <= 1e-9 * scale
        if a == b:
            assert iou(a, b) == 1.0


class TestInitialClip:
    def test_midpoint_both_neighbors(self):
        assert initial_clip(10, 20, 40, SPAN, MID) == ival(15, 30)

    def test_fixed_half_width(self):
        got = initial_clip(None, 20, None, SPAN, InitStrategy("fixed_half_width", 10))
        assert got == ival(10, 30)

    def test_midpoint_missing_prev_substitutes_video_start(self):
        got = initial_clip(None, 4, 10, Interval(0, 100), MID)
        assert got == ival(0, 7)

    def test_midpoint_missing_next_substitutes_video_end(self):
        got = initial_clip(10, 90, None, Interval(0, 100), MID)
        assert got == ival(50, 100)

    def test_next_gap(self):
        assert initial_clip(5, 10, 30, SPAN, InitStrategy("next_gap")) == ival(10, 30)
        assert initial_clip(5, 10, None, Interval(0, 50), InitStrategy("next_gap")) == ival(10, 50)

    def test_prev_gap(self):
        assert initial_clip(5, 10, 30, SPAN, InitStrategy("prev_gap")) == ival(5, 10)
        assert initial_clip(None, 10, 30, Interval(0, 50), InitStrategy("prev_gap")) == ival(0, 10)

    def test_full_neighbors(self):
        assert initial_clip(5, 10, 30, SPAN, InitStrategy("full_neighbors")) == ival(5, 30)
        assert initial_clip(None, 10, None, Interval(0, 50), InitStrategy("full_neighbors")) == ival(0, 50)

    def test_fixed_half_width_clamps(self):
        got = initial_clip(None, 3, None, Interval(0, 100), InitStrategy("fixed_half_width", 10))
        assert got == ival(0, 13)

    def test_degenerate_raises(self):
        # prev_gap at a timestamp equal to the video start collapses to zero
        with pytest.raises(DegenerateClipError):
            initial_clip(None, 0.0, 5.0, Interval(0, 50), InitStrategy("prev_gap"))

    def test_timestamp_outside_video_rejected(self):
        with pytest.raises(ValueError):
            initial_clip(None, 400, None, SPAN, MID)

    def test_unordered_neighbors_rejected(self):
        with pytest.raises(ValueError):
            initial_clip(25, 20, 40, SPAN, MID)
        with pytest.raises(ValueError):
            initial_clip(10, 20, 15, SPAN, MID)

    @given(
        t=st.floats(min_value=1.0, max_value=299.0),
        prev_gap=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=100.0)),
        next_gap=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=100.0)),
    )
    def test_midpoint_contains_t(self, t, prev_gap, next_gap):
        prev_t = max(t - prev_gap, 0.0) if prev_gap is not None else None
        next_t = min(t + next_gap, 300.0) if next_gap is not None else None
        if prev_t is not None and not prev_t < t:
            prev_t = None
        if next_t is not None and not t < next_t:
            next_t = None
        clip = initial_clip(prev_t, t, next_t, SPAN, MID)
        assert clip.contains(t)


def initial_clip_ref(prev_t, t, next_t, v0, v1, strategy):
    """The per-caption rule as it was written before `initial_clips`: (start, end) or a raise."""
    if not v0 <= t <= v1:
        raise ValueError(f"timestamp {t} outside video span [{v0}, {v1}]")
    if prev_t is not None and not prev_t < t:
        raise ValueError(f"prev_t {prev_t} must be < t {t}")
    if next_t is not None and not t < next_t:
        raise ValueError(f"next_t {next_t} must be > t {t}")
    if strategy.variant == "midpoint_neighbors":
        start = (prev_t + t) / 2.0 if prev_t is not None else v0
        end = (t + next_t) / 2.0 if next_t is not None else v1
    elif strategy.variant == "next_gap":
        start = t
        end = next_t if next_t is not None else v1
    elif strategy.variant == "prev_gap":
        start = prev_t if prev_t is not None else v0
        end = t
    elif strategy.variant == "full_neighbors":
        start = prev_t if prev_t is not None else v0
        end = next_t if next_t is not None else v1
    else:  # fixed_half_width
        start = t - strategy.half_width_s
        end = t + strategy.half_width_s
    start = min(max(start, v0), v1)
    end = min(max(end, v0), v1)
    if not start < end:
        raise DegenerateClipError(
            f"{strategy} at t={t} yields degenerate clip [{start}, {end}] in video [{v0}, {v1}]"
        )
    return start, end


def check_rank(exc: ValueError) -> int:
    """Which of the rule's four checks raised `exc`, in the order they run."""
    if isinstance(exc, DegenerateClipError):
        return 3
    return next(i for i, head in enumerate(("timestamp", "prev_t", "next_t")) if str(exc).startswith(head))


@st.composite
def clip_rows(draw):
    """An init strategy and 1-5 (prev_t, t, next_t, v0, v1) rows: timestamps
    mostly inside the span, some at or past its edges; neighbors mostly
    missing or apart, some equal, a subnormal step away or out of order."""
    variant = draw(st.sampled_from(VARIANTS))
    width = draw(st.floats(min_value=0.01, max_value=50.0)) if variant == "fixed_half_width" else None

    def gap():
        kind = draw(st.integers(0, 9))
        if kind == 0:
            return draw(st.sampled_from([0.0, -1.0, 5e-324]))
        return None if kind < 4 else draw(st.floats(min_value=1e-3, max_value=200.0))

    rows = []
    for _ in range(draw(st.integers(1, 5))):
        v0 = draw(st.sampled_from([0.0, 2.5]))
        v1 = v0 + draw(st.floats(min_value=0.5, max_value=100.0))
        kind = draw(st.integers(0, 9))
        t = (draw(st.sampled_from([v0 - 1.0, v1 + 1.0])) if kind == 0
             else draw(st.sampled_from([v0, v1])) if kind < 3
             else draw(st.floats(min_value=v0, max_value=v1)))
        prev_gap, next_gap = gap(), gap()
        rows.append((
            None if prev_gap is None else t - prev_gap, t, None if next_gap is None else t + next_gap, v0, v1,
        ))
    return InitStrategy(variant, width), rows


class TestInitialClips:
    def test_negative_zero_edge_keeps_its_sign(self):
        # (prev + t) / 2 rounds to -0.0 at t = 0.0; the per-caption rule keeps the sign, also with
        # the video span given as arrays, where np.clip would drop it
        start, _ = initial_clips([-5e-324], [0.0], [np.nan], [0.0], [1.0], MID)
        assert bits(start) == bits([initial_clip_ref(-5e-324, 0.0, None, 0.0, 1.0, MID)[0]]) == bits([-0.0])

    @settings(max_examples=300)
    @given(clip_rows(), st.booleans())
    def test_equals_the_per_caption_rule(self, case, named):
        strategy, rows = case
        outcomes = []
        for row in rows:
            try:
                outcomes.append(initial_clip_ref(*row, strategy))
            except ValueError as exc:
                outcomes.append(exc)
            # the one-element call keeps the scalar rule's result and error
            try:
                got = initial_clip(*row[:3], Interval(*row[3:]), strategy)
            except ValueError as exc:
                got = exc
            want = outcomes[-1]
            if isinstance(want, ValueError):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert bits((got.start_s, got.end_s)) == bits(want)

        ids = [f"c{i}" for i in range(len(rows))] if named else None
        cols = [np.array([np.nan if x is None else x for x in col]) for col in zip(*rows)]
        errors = [(check_rank(o), i, o) for i, o in enumerate(outcomes) if isinstance(o, ValueError)]
        if not errors:
            start, end = initial_clips(*cols, strategy, ids)
            assert bits(start) == bits(s for s, _ in outcomes)
            assert bits(end) == bits(e for _, e in outcomes)
            return
        # each check runs over every row before the next: the first row failing the first failed check raises
        _, i, want = min(errors)
        with pytest.raises(ValueError) as info:
            initial_clips(*cols, strategy, ids)
        assert type(info.value) is type(want)
        assert str(info.value) == (str(want) if ids is None else f"caption c{i}: {want}")

    def test_broadcasts_scalar_neighbors_and_span(self):
        start, end = initial_clips(np.nan, [3.0, 50.0, 98.0], np.nan, 0.0, 100.0, InitStrategy("fixed_half_width", 5))
        assert start.tolist() == [0.0, 45.0, 93.0] and end.tolist() == [8.0, 55.0, 100.0]


class TestInitStrategyParse:
    def test_parse_plain(self):
        assert InitStrategy.parse("midpoint_neighbors") == MID

    def test_parse_with_width(self):
        s = InitStrategy.parse("fixed_half_width:10")
        assert s.variant == "fixed_half_width" and s.half_width_s == 10.0
        assert str(s) == "fixed_half_width:10"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            InitStrategy.parse("nope")

    def test_parse_rejects_missing_width(self):
        with pytest.raises(ValueError):
            InitStrategy.parse("fixed_half_width")

    def test_parse_rejects_spurious_arg(self):
        with pytest.raises(ValueError):
            InitStrategy.parse("next_gap:3")

    def test_width_only_for_fixed_half_width(self):
        with pytest.raises(ValueError, match="^half_width_s is only valid for fixed_half_width, not next_gap$"):
            InitStrategy("next_gap", 3.0)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            InitStrategy("fixed_half_width", 0.0)

    @pytest.mark.parametrize("text", ["fixed_half_width:inf", "fixed_half_width:1e400", "fixed_half_width:nan"])
    def test_width_must_be_finite(self, text):
        with pytest.raises(ValueError, match="requires a finite half_width_s > 0"):
            InitStrategy.parse(text)


class TestSegmentGrid:
    def test_exact_tiling(self):
        g = segment_grid(ival(0, 5), 1.0)
        assert g.n_segments == 5
        assert [g.segment(i) for i in range(5)] == [ival(i, i + 1) for i in range(5)]

    def test_last_segment_absorbs_remainder(self):
        g = segment_grid(ival(0, 5.5), 1.0)
        assert g.n_segments == 5
        assert g.segment(4) == ival(4, 5.5)

    def test_short_clip_single_segment(self):
        g = segment_grid(ival(0, 0.4), 1.0)
        assert g.n_segments == 1
        assert g.segment(0) == ival(0, 0.4)

    def test_index_bounds(self):
        g = segment_grid(ival(0, 5), 1.0)
        with pytest.raises(IndexError):
            g.segment(5)
        with pytest.raises(IndexError):
            g.segment(-1)

    @given(
        start=st.floats(min_value=0.0, max_value=1000.0),
        width=st.floats(min_value=0.05, max_value=500.0),
        seg_len=st.floats(min_value=0.1, max_value=20.0),
    )
    def test_segments_reconstruct_clip(self, start, width, seg_len):
        clip = Interval(start, start + width)
        g = segment_grid(clip, seg_len)
        segs = [g.segment(i) for i in range(g.n_segments)]
        assert segs[0].start_s == clip.start_s
        assert segs[-1].end_s == clip.end_s
        for a, b in zip(segs, segs[1:]):
            assert a.end_s == b.start_s
        assert g.n_segments == max(1, math.floor(clip.length_s / seg_len))


def bits(values):
    return [float(v).hex() for v in values]


@st.composite
def interval_pairs(draw):
    """Two (start, end) tuples with fractional starts that touch, nest, are
    disjoint, are identical or overlap, in either order."""
    start = draw(st.integers(0, 10**6)) / draw(st.sampled_from([1, 3, 7, 100]))
    length = draw(st.floats(min_value=1e-3, max_value=1e3))
    a = (start, start + length)
    other = draw(st.floats(min_value=1e-3, max_value=1e3))
    kind = draw(st.sampled_from(["touching", "nested", "disjoint", "identical", "overlap"]))
    if kind == "touching":
        b = (a[1], a[1] + other)
    elif kind == "nested":
        lo = draw(st.integers(0, 998))
        hi = draw(st.integers(lo + 1, 1000))
        b = (a[0] + length * lo / 1000, a[0] + length * hi / 1000)
    elif kind == "disjoint":
        gap = draw(st.floats(min_value=1e-3, max_value=50.0))
        b = (a[1] + gap, a[1] + gap + other)
    elif kind == "identical":
        b = a
    else:
        b = (a[0] + length * draw(st.integers(1, 999)) / 1000, a[1] + other)
    return (b, a) if draw(st.booleans()) else (a, b)


class TestIntervalRules:
    @given(st.lists(interval_pairs(), min_size=1, max_size=20))
    def test_ious_equals_iou_ref_bit_for_bit(self, pairs):
        a0, a1, b0, b1 = np.array([(*a, *b) for a, b in pairs]).T
        want = [iou_ref(a, b) for a, b in pairs]
        assert bits(ious(a0, a1, b0, b1)) == bits(want)
        assert bits(iou(Interval(*a), Interval(*b)) for a, b in pairs) == bits(want)

    @given(st.lists(interval_pairs(), min_size=1, max_size=8))
    def test_ious_broadcasts_to_the_pair_matrix(self, pairs):
        spans = [iv for pair in pairs for iv in pair]
        s, e = np.array(spans).T
        got = ious(s[:, None], e[:, None], s, e)
        assert got.shape == (len(spans), len(spans))
        assert bits(got.ravel()) == bits(iou_ref(a, b) for a in spans for b in spans)

    @given(st.lists(interval_pairs(), min_size=1, max_size=8))
    def test_ious_is_symmetric_bit_for_bit(self, pairs):
        # `editor._decide` computes one triangle of the pair matrix and mirrors it
        s, e = np.array([iv for pair in pairs for iv in pair]).T
        got = ious(s[:, None], e[:, None], s, e)
        assert bits(got.ravel()) == bits(got.T.ravel())

    @given(
        st.lists(st.tuples(st.integers(0, 5000), st.sampled_from([1, 3, 100]),
                           st.floats(min_value=0.05, max_value=60.0)), min_size=1, max_size=12),
        st.sampled_from([0.1, 0.3, 1.0, 1.3]),
    )
    def test_segment_rules_equal_grid_segments_ref(self, clips, seg_len):
        clips = [(num / den, num / den + length) for num, den, length in clips]
        origin, clip_end = np.array(clips).T
        want = [grid_segments_ref(start, end, seg_len) for start, end in clips]
        n = segment_counts(clip_end - origin, seg_len)
        assert n.dtype == np.int64 and n.tolist() == [len(w) for w in want]
        clip = np.repeat(np.arange(len(clips)), n)
        i = np.arange(clip.size) - (np.cumsum(n) - n)[clip]
        start, end = segment_bounds(origin[clip], seg_len, n[clip], clip_end[clip], i)
        flat = [seg for w in want for seg in w]
        assert bits(start) == bits(lo for lo, _ in flat)
        assert bits(end) == bits(hi for _, hi in flat)
        grid = segment_grid(Interval(*clips[0]), seg_len)
        assert grid.n_segments == len(want[0])
        assert bits(v for j in range(grid.n_segments) for v in (grid.segment(j).start_s,
                                                                  grid.segment(j).end_s)) == \
            bits(v for seg in want[0] for v in seg)


class TestSegLenBounds:
    @pytest.mark.parametrize("seg_len", [0.0, -1.0, float("nan")])
    def test_not_positive_keeps_its_message(self, seg_len):
        with pytest.raises(ValueError, match=r"^seg_len_s must be > 0, got"):
            segment_grid(ival(0, 5), seg_len)
        with pytest.raises(ValueError, match=r"^seg_len_s must be > 0, got"):
            segment_counts(np.array([5.0]), seg_len)

    @pytest.mark.parametrize("seg_len", [1e-300, 1e-6, 0.0099])
    def test_below_the_floor_is_rejected(self, seg_len):
        with pytest.raises(ValueError, match=r"^seg_len_s must be >= 0\.01, got"):
            segment_grid(ival(0, 5), seg_len)
        with pytest.raises(ValueError, match=r"^seg_len_s must be >= 0\.01, got"):
            segment_counts(np.array([5.0]), seg_len)

    def test_the_floor_itself_is_accepted(self):
        assert segment_grid(ival(0, 3), SEG_LEN_MIN_S).n_segments == len(
            grid_segments_ref(0.0, 3.0, SEG_LEN_MIN_S))


class TestJitter:
    def test_zero_is_identity(self, stub_rng_factory):
        clip = ival(10, 20)
        rng = stub_rng_factory([])  # draws would raise if consumed
        assert jitter(clip, 0.0, SPAN, rng) == clip

    def test_scripted_draws(self, stub_rng_factory):
        rng = stub_rng_factory([1.5, -0.5])
        assert jitter(ival(10, 20), 2.0, SPAN, rng) == ival(11.5, 19.5)

    def test_degenerate_falls_back(self, stub_rng_factory):
        rng = stub_rng_factory([1.9, -1.9])  # [1.9, 0.1] inverts
        assert jitter(ival(0, 2), 2.0, SPAN, rng) == ival(0, 2)

    def test_clamps_to_video_span(self, stub_rng_factory):
        rng = stub_rng_factory([-5.0, 5.0])
        got = jitter(ival(2, 8), 5.0, Interval(0, 10), rng)
        assert got == ival(0, 10)

    def test_negative_max_rejected(self, stub_rng_factory):
        with pytest.raises(ValueError):
            jitter(ival(0, 2), -1.0, SPAN, stub_rng_factory([]))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_stays_inside_video(self, seed):
        rng = np.random.default_rng(seed)
        clip = ival(5, 15)
        got = jitter(clip, 3.0, Interval(0, 18), rng)
        assert 0.0 <= got.start_s < got.end_s <= 18.0
