"""Per-layer metrics of the traced run, derived from its spans.

Times named `_s` are totals over the traced pass unless the name says
otherwise; probe spans (under `bench.probes`) time sub-steps on copies and
are kept out of every layer's self time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import Span, pct_label, self_times, tail_percentile

LAYERS = ("corpus", "cotrain", "editor", "encoder", "evalrep")


def _under(spans: list[Span], root_name: str) -> list[bool]:
    """For each span, whether it is `root_name` or one of its descendants."""
    flags: list[bool] = []
    for s in spans:  # parents always precede their children
        flags.append(s.name == root_name or (s.parent is not None and flags[s.parent]))
    return flags


def layer_metrics(spans: list[Span], counts: dict, traced, untraced) -> dict[str, tuple[float, str]]:
    probe = _under(spans, "bench.probes")
    total: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        total[s.name] += s.duration
        durations[s.name].append(s.duration)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, own, is_probe in zip(spans, self_times(spans), probe):
        if not is_probe:
            self_by_layer[s.layer] += own

    res = traced.result
    edits_by_epoch = [step.edits for step in traced.probes.edit]
    attempts = sum(len(e) for e in edits_by_epoch)
    applied = sum(r.applied for e in edits_by_epoch for r in e)
    repeat_attempts = sum(len(e) for e in edits_by_epoch[1:])
    unchanged = sum(
        r.edited == prev.edited
        for before, now in zip(edits_by_epoch, edits_by_epoch[1:])
        for prev, r in zip(before, now)
    )
    epoch_s = durations["cotrain.epoch"]

    m: dict[str, tuple[float, str]] = {
        "editor.edit_all_s": (total["editor.edit_all"], "s"),
        "editor.pool_s": (total["editor.pool"], "s"),
        "editor.score_s": (total["editor.score"], "s"),
        "editor.topk_s": (total["editor.topk"], "s"),
        "editor.consensus_s": (total["editor.consensus"], "s"),
        "editor.candidates": (counts["candidates"], "count"),
        "editor.iou_pairs": (counts["iou_pairs"], "count"),
        "editor.applied_ratio": (applied / attempts, "ratio"),
        "editor.unchanged_ratio": (unchanged / repeat_attempts if repeat_attempts else 0.0, "ratio"),
        "editor.write_edits_s": (total["editor.write_edits"], "s"),
        "corpus.load_features_s": (total["corpus.load_features"], "s"),
        "corpus.load_annotations_s": (total["corpus.load_annotations"], "s"),
        "corpus.pool_pass_s": (statistics.median(durations["corpus.pool_pass"]), "s"),
        "corpus.pool_segments": (statistics.median_low(counts["pool_segments"]), "count"),
        "encoder.train_epoch_s": (statistics.median(durations["encoder.train_epoch"]), "s"),
        "encoder.batches": (counts["batches"], "count"),
        "encoder.batch_pool_s": (total["encoder.batch_pool"], "s"),
        "encoder.info_nce_s": (total["encoder.info_nce"], "s"),
        "encoder.optimizer_step_s": (total["encoder.optimizer_step"], "s"),
        "encoder.checkpoint_save_s": (total["encoder.checkpoint_save"], "s"),
        "encoder.checkpoint_load_s": (total["encoder.checkpoint_load"], "s"),
        "cotrain.build_initial_assignment_s": (total["cotrain.build_initial_assignment"], "s"),
        "cotrain.warmup_s": (total["cotrain.warmup"], "s"),
        "cotrain.select_control_set_s": (total["cotrain.select_control_set"], "s"),
        "cotrain.control_size": (len(res.control.caption_ids), "count"),
        "cotrain.monitor_s": (total["cotrain.monitor"], "s"),
        "cotrain.epoch_s.median": (statistics.median(epoch_s), "s"),
        "cotrain.epoch_s.max": (max(epoch_s), "s"),
        "cotrain.epoch_s.n": (len(epoch_s), "count"),
        "cotrain.epochs": (len(res.log), "count"),
        "cotrain.teacher_updates": (sum(r["teacher_updated"] for r in res.log), "count"),
        "evalrep.evaluate_retrieval_s": (total["evalrep.evaluate_retrieval"], "s"),
        "evalrep.queries": (traced.metrics.n_queries, "count"),
        "evalrep.gallery_embed_s": (total["evalrep.gallery_embed"], "s"),
        "evalrep.rank_s": (total["evalrep.rank"], "s"),
        "evalrep.write_reports_s": (total["evalrep.write_reports"], "s"),
        "trace.overhead_ratio": (traced.pipeline_s / untraced.pipeline_s, "ratio"),
    }
    clip_ms = [d * 1e3 for d in durations["editor.edit_clip"]]
    m["editor.edit_clip_ms.p50"] = (statistics.median(clip_ms), "ms")
    tail = tail_percentile(clip_ms)
    if tail is not None:
        pct, value, n = tail
        m[f"editor.edit_clip_ms.{pct_label(pct)}"] = (value, "ms")
    m["editor.edit_clip_ms.n"] = (len(clip_ms), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    return m
