"""Unit tests for the benchmark's span arithmetic and percentile rule.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Span, Tracer, nearest_rank, pct_label, self_times, tail_percentile  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        Span("cotrain.epoch", 0.0, 10.0, None),
        Span("editor.edit_all", 1.0, 4.0, 0),
        Span("encoder.train_epoch", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 3.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("a.root", 0.0, 10.0, None),
        Span("b.x", 2.0, 6.0, 0),
        Span("b.y", 4.0, 8.0, 0),  # overlaps b.x over [4, 6]
        Span("b.z", 5.0, 5.5, 0),  # inside both
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_parent_and_ignores_grandchildren():
    spans = [
        Span("a.root", 0.0, 4.0, None),
        Span("b.child", 3.0, 6.0, 0),       # sticks out past the parent
        Span("c.grandchild", 3.5, 5.0, 1),  # covered by its own parent only
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5]


def test_tracer_records_parents_and_nesting():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("bench.pipeline"):
        with tr.span("corpus.load_features"):
            pass
        with tr.span("cotrain.epoch"):
            with tr.span("editor.edit_clip"):
                pass
    spans = tr.closed()
    assert [s.name for s in spans] == [
        "bench.pipeline", "corpus.load_features", "cotrain.epoch", "editor.edit_clip",
    ]
    assert [s.parent for s in spans] == [None, 0, 0, 2]
    assert [s.layer for s in spans] == ["bench", "corpus", "cotrain", "editor"]
    assert spans[0].duration == 7.0
    assert self_times(spans) == [3.0, 1.0, 2.0, 1.0]
    assert tr.dump()[3] == {"name": "editor.edit_clip", "start": 4.0, "end": 5.0, "parent": 2}


def test_tracer_closes_span_when_body_raises():
    tr = Tracer()
    with pytest.raises(KeyError):
        with tr.span("corpus.load_features"):
            raise KeyError("x")
    assert [s.name for s in tr.closed()] == ["corpus.load_features"]


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 5000) == 50.0
    assert nearest_rank(values, 9900) == 99.0
    assert nearest_rank([7.0], 9900) == 7.0
    with pytest.raises(ValueError):
        nearest_rank([], 5000)


@pytest.mark.parametrize(
    "n, pct",
    [
        (19, None),    # the median has 9 samples beyond it
        (20, 5000),
        (99, 5000),    # p90 has 9 beyond
        (100, 9000),
        (999, 9000),   # p99 has 9 beyond
        (1000, 9900),  # exactly 10 beyond
        (9999, 9900),
        (10000, 9990),
        (100000, 9999),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    got = tail_percentile(values)
    if pct is None:
        assert got is None
        return
    got_pct, value, got_n = got
    assert (got_pct, got_n) == (pct, n)
    assert value == nearest_rank(sorted(values), pct)
    assert sum(v > value for v in values) >= 10


def test_pct_label():
    assert [pct_label(p) for p in (5000, 9000, 9900, 9990, 9999)] == [
        "p50", "p90", "p99", "p99.9", "p99.99",
    ]
