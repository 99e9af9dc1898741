"""Command-line entry point: synth | warmup | cotrain | eval | ablate.

Exit codes: 0 success, 2 configuration/validation error, 3 runtime
numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config_dict, build_run_config
from .corpus import (
    CaptionAnnotation,
    ClipRef,
    FeatureStore,
    load_annotations,
    load_features,
    read_jsonl,
    synth_corpus,
    write_annotations,
    write_csv,
    write_features,
)
from .cotrain import apply_jitter, build_initial_assignment, cotrain, warmup
from .editor import write_edits
from .encoder import NumericError, load_checkpoint, save_checkpoint
from .evalrep import (
    RetrievalMetrics,
    evaluate_retrieval,
    iou_histogram,
    write_iou_hist,
    write_metrics,
)

ABLATE_AXES = {
    "topk": "edit.k",
    "iou_gate": "edit.iou_gate",
    "gamma": "cotrain.gamma",
    "jitter": "jitter_fraction",
    "init_strategy": "init_strategy",
    "teacher_mode": "cotrain.teacher_mode",
}


def _load_corpus(run: RunConfig) -> tuple[FeatureStore, list[CaptionAnnotation]]:
    if run.synth is not None:
        return synth_corpus(run.synth)
    store = load_features(run.features_dir)
    return store, load_annotations(run.annotations_file, store)


def _test_gallery(store, annotations, strategy):
    """Gallery boundaries for the test split: ground truth when annotated,
    initial-heuristic clips otherwise. Returns (gallery, mode string)."""
    test_anns = [a for a in annotations if a.split == "test"]
    if not test_anns:
        raise ConfigError("no test-split captions to evaluate")
    fallback = build_initial_assignment(store, annotations, strategy, split="test")
    gallery, n_gt = {}, 0
    for a in test_anns:
        if a.gt_interval is not None:
            gallery[a.caption_id] = ClipRef(a.video_id, a.gt_interval)
            n_gt += 1
        else:
            gallery[a.caption_id] = fallback[a.caption_id]
    mode = "gt" if n_gt == len(test_anns) else ("initial" if n_gt == 0 else "mixed")
    return gallery, mode


def _eval_test_split(params, store, annotations, strategy) -> tuple[RetrievalMetrics, str]:
    gallery, mode = _test_gallery(store, annotations, strategy)
    queries = sorted(gallery)
    return evaluate_retrieval(params, store, queries, gallery), mode


def _check_outputs(out_dir: Path) -> None:
    """Re-read every declared output format; raise on any violation."""
    store = load_features(out_dir) if any(out_dir.glob("*.feat")) else None
    if (out_dir / "annotations.jsonl").exists():
        load_annotations(out_dir / "annotations.jsonl", store)
    for ckpt in out_dir.glob("*.cfp"):
        load_checkpoint(ckpt)
    if (out_dir / "metrics.json").exists():
        obj = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
        for key in ("r1", "r5", "r10", "medr", "n_queries", "gallery_mode"):
            if key not in obj:
                raise ValueError(f"metrics.json missing {key!r}")
    for name in ("cotrain_log.jsonl", "edits.jsonl"):
        path = out_dir / name
        if path.exists():
            list(read_jsonl(path))
    for name in ("iou_hist.csv", "iou_hist_gt.csv"):
        path = out_dir / name
        if path.exists():
            with path.open(encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != ["bin_lo", "bin_hi", "count"] or rows[-1][0] != "mean":
                raise ValueError(f"{name}: unexpected layout")


def cmd_synth(run: RunConfig, args) -> int:
    if run.synth is None:
        raise ConfigError("synth command requires a synth config block")
    store, annotations = synth_corpus(run.synth)
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_features(out, store)
    write_annotations(out / "annotations.jsonl", annotations)
    if args.check:
        _check_outputs(out)
    print(f"wrote {len(store.videos)} videos, {len(annotations)} captions to {out}")
    return 0


def _train_assignment(run: RunConfig, store: FeatureStore, annotations: list[CaptionAnnotation]):
    """The (possibly jittered) initial train assignment."""
    assignment = build_initial_assignment(store, annotations, run.init_strategy)
    rng = np.random.default_rng(run.seed)
    return apply_jitter(assignment, run.jitter_fraction, run.max_jitter_s, store, rng)


def cmd_warmup(run: RunConfig, args) -> int:
    store, annotations = _load_corpus(run)
    assignment = _train_assignment(run, store, annotations)
    params, _ = warmup(store, annotations, run.init_strategy, run.cotrain.train, assignment)
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "model.warmup.cfp", params)
    metrics, mode = _eval_test_split(params, store, annotations, run.init_strategy)
    write_metrics(out / "metrics.json", metrics, mode)
    if args.check:
        _check_outputs(out)
    print(f"warmup done: test R@1 {metrics.r_at[1]:.3f}, MedR {metrics.med_r:.1f}")
    return 0


def run_cotrain_pipeline(
    run: RunConfig,
    check: bool,
    corpus: tuple[FeatureStore, list[CaptionAnnotation]] | None = None,
) -> RetrievalMetrics:
    """`clipedit cotrain`; `corpus` passes an already loaded (store, annotations)."""
    store, annotations = corpus if corpus is not None else _load_corpus(run)
    assignment = _train_assignment(run, store, annotations)
    warm_params, _ = warmup(store, annotations, run.init_strategy, run.cotrain.train, assignment)
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "cotrain_log.jsonl"
    with log_path.open("w", encoding="utf-8") as log_fh:
        def on_epoch(rec: dict) -> None:  # `write_jsonl`'s line, streamed so a crash keeps the log
            log_fh.write(json.dumps(rec) + "\n")
            log_fh.flush()

        result = cotrain(warm_params, assignment, store, run.cotrain, on_epoch=on_epoch)
    save_checkpoint(out / "model.student.cfp", result.best_student)
    save_checkpoint(out / "model.teacher.cfp", result.teacher)
    write_edits(out / "edits.jsonl", result.last_edits)
    if result.last_edits:
        write_iou_hist(
            out / "iou_hist.csv",
            iou_histogram([(r.initial, r.edited) for r in result.last_edits]),
        )
        gt_by_caption = {
            a.caption_id: a.gt_interval for a in annotations if a.gt_interval is not None
        }
        gt_pairs = [
            (gt_by_caption[r.caption_id], r.edited)
            for r in result.last_edits if r.caption_id in gt_by_caption
        ]
        if gt_pairs:
            write_iou_hist(out / "iou_hist_gt.csv", iou_histogram(gt_pairs))
    metrics, mode = _eval_test_split(result.best_student, store, annotations, run.init_strategy)
    write_metrics(out / "metrics.json", metrics, mode)
    if check:
        _check_outputs(out)
    return metrics


def cmd_cotrain(run: RunConfig, args) -> int:
    metrics = run_cotrain_pipeline(run, args.check)
    print(f"cotrain done: test R@1 {metrics.r_at[1]:.3f}, MedR {metrics.med_r:.1f}")
    return 0


def cmd_eval(run: RunConfig, args) -> int:
    store, annotations = _load_corpus(run)
    params = load_checkpoint(args.checkpoint)
    if params.d_in != store.dim:
        raise ValueError(
            f"{args.checkpoint}: checkpoint d_in={params.d_in} does not match the corpus's d={store.dim}"
        )
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics, mode = _eval_test_split(params, store, annotations, run.init_strategy)
    write_metrics(out / "metrics.json", metrics, mode)
    if args.check:
        _check_outputs(out)
    print(f"eval done: test R@1 {metrics.r_at[1]:.3f}, MedR {metrics.med_r:.1f}")
    return 0


def _parse_values(raw: str) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return values


def cmd_ablate(run: RunConfig, args) -> int:
    path = ABLATE_AXES[args.axis]
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("ablate needs at least one value")
    out = Path(run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # no ablation axis changes the corpus: load it once
    corpus = _load_corpus(run)
    rows = []
    for value in values:
        sets = list(args.set or []) + [f"{path}={json.dumps(value)}"]
        sub_cfg = load_config_dict(args.config, sets)
        sub_run = build_run_config(sub_cfg)
        sub_name = f"{args.axis}_{str(value).replace(':', '-').replace('/', '-')}"
        sub_run = replace(sub_run, out_dir=str(out / sub_name))
        metrics = run_cotrain_pipeline(sub_run, args.check, corpus)
        rows.append([value, metrics.r_at[1], metrics.r_at[5], metrics.r_at[10], metrics.med_r])
        print(f"{args.axis}={value}: R@1 {metrics.r_at[1]:.3f}, MedR {metrics.med_r:.1f}")
    write_csv(out / "sweep.csv", [["value", "r1", "r5", "r10", "medr"], *rows])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None, help="JSON config file")
    common.add_argument(
        "--set", action="append", default=[], metavar="K=V",
        help="override a config value by dotted path (repeatable)",
    )
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--check", action="store_true", help="re-validate outputs after writing")

    parser = argparse.ArgumentParser(prog="clipedit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", parents=[common]).set_defaults(func=cmd_synth)
    sub.add_parser("warmup", parents=[common]).set_defaults(func=cmd_warmup)
    sub.add_parser("cotrain", parents=[common]).set_defaults(func=cmd_cotrain)
    p_eval = sub.add_parser("eval", parents=[common])
    p_eval.add_argument("--checkpoint", type=str, required=True)
    p_eval.set_defaults(func=cmd_eval)
    p_ablate = sub.add_parser("ablate", parents=[common])
    p_ablate.add_argument("--axis", choices=sorted(ABLATE_AXES), required=True)
    p_ablate.add_argument("--values", type=str, required=True, help="comma-separated values")
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config_dict(args.config, args.set)
        run = build_run_config(cfg)
        if args.out is not None:
            run = replace(run, out_dir=args.out)
        return args.func(run, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
