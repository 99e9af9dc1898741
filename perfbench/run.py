"""clipedit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cotrain_edit --seed 1 --seconds 38 --trace 0

Writes the workload's corpus from the seed (in a child process), then
repeats cotrain-then-eval passes over those files for about --seconds (at
least MIN_PASSES), checks every pass, and prints each metric
with its unit. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, medians over the passes.
--trace 1 runs one untraced pass and one traced pass, requires them to be
bit-identical, and reports the per-layer metrics from the traced pass's
spans. Workloads, metrics and what each should move are in README.md.
"""

from __future__ import annotations

import os

# One core's worth of threads: pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from layers import layer_metrics  # noqa: E402
from pipeline import (  # noqa: E402
    check_cotrain_stage,
    check_eval_stage,
    compare_passes,
    fingerprint,
    run_pass,
    run_probes,
)
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
WORK_DIR = ROOT / ".perfbench_work"
PREPARE_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "warmup_captions_per_s": "1/s",
    "cotrain_captions_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "test_r1": "ratio",
    "train_iou_gt": "ratio",
    "peak_rss_mb": "MB",
}


def _openblas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text(encoding="ascii").split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
        "loadavg": loadavg,
    }


def _checked_pass(wl, seed: int, data_dir: Path, out_dir: Path, tracer=None):
    """Run one pass; returns (pass or None, failed op count, attempted op count)."""
    try:
        p = run_pass(wl, seed, data_dir, out_dir, tracer)
    except Exception:  # one failed pass is counted and reported; the run goes on
        traceback.print_exc()
        return None, 1, 1
    checks = [check_cotrain_stage(wl, p, out_dir)] + check_eval_stage(p, out_dir)
    for msg in (m for problems in checks for m in problems):
        print(f"check failed: {msg}", file=sys.stderr)
    failed = sum(bool(problems) for problems in checks)
    return (None if failed else p), failed, len(checks)


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def timed_run(wl, seed: int, seconds: float, data_dir: Path, out_root: Path) -> dict:
    attempted = failed = 0
    samples, reference = [], None
    start = time.perf_counter()
    i = 0
    # Start another pass while it would end no later than half an average
    # pass after --seconds, so that runs last --seconds on average.
    while i < MIN_PASSES or (time.perf_counter() - start) * (1 + 0.5 / i) <= seconds:
        gc.collect()  # the last pass's garbage is not collected inside this one
        out_dir = out_root / f"pass{i}"
        p, n_failed, n_attempted = _checked_pass(wl, seed, data_dir, out_dir)
        attempted += n_attempted
        failed += n_failed
        if p is not None:
            fp = fingerprint(p, out_dir)
            if reference is None:
                reference = fp
                print("fingerprint " + json.dumps(fp))
            elif fp != reference:
                print(f"check failed: pass {i} outputs differ: {fp}", file=sys.stderr)
                failed += n_attempted
                p = None
        if p is not None:
            samples.append({
                "setup_s": p.setup_s,
                "pipeline_s": p.pipeline_s,
                "warmup_captions_per_s": p.n_train * wl.warmup_epochs / p.warmup_s,
                "cotrain_captions_per_s": p.n_train * len(p.result.log) / p.cotrain_s,
                "eval_queries_per_s": [p.metrics.n_queries / t for t in p.eval_s],
            })
            print(f"pass {i}: pipeline {p.pipeline_s:.4f} s, "
                  f"setup {statistics.median(p.setup_s):.4f} s, warm-up {p.warmup_s:.4f} s, "
                  f"co-train {p.cotrain_s:.4f} s, eval {statistics.median(p.eval_s):.4f} s")
        del p  # free this pass's corpus before the next pass loads its own
        shutil.rmtree(out_dir, ignore_errors=True)
        i += 1
    if not samples:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    pooled = {name: [v for s in samples for v in _as_list(s[name])] for name in samples[0]}
    print("samples " + json.dumps(pooled))
    values = {name: statistics.median(v) for name, v in pooled.items()}
    values.update({
        "test_r1": reference["test_r1"],
        "train_iou_gt": reference["train_iou_gt"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(wl, seed: int, data_dir: Path, out_root: Path, spans_path: Path) -> dict:
    untraced, f1, a1 = _checked_pass(wl, seed, data_dir, out_root / "untraced")
    tracer = Tracer()
    traced, f2, a2 = _checked_pass(wl, seed, data_dir, out_root / "traced", tracer)
    attempted, failed = a1 + a2, f1 + f2
    if untraced is None or traced is None:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    problems = compare_passes(untraced, traced)
    fp_u = fingerprint(untraced, out_root / "untraced")
    fp_t = fingerprint(traced, out_root / "traced")
    if fp_u != fp_t:
        problems.append(f"output files differ: {fp_u} vs {fp_t}")
    try:
        counts = run_probes(tracer, traced)
    except Exception:  # a probe that cannot replay its step fails the traced pass
        traceback.print_exc()
        problems.append("sub-layer probes failed")
        counts = None
    for msg in problems:
        print(f"check failed: traced run: {msg}", file=sys.stderr)
    if problems:
        return {"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}
    print("fingerprint " + json.dumps(fp_t))
    spans = tracer.closed()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(tracer.dump()) + "\n", encoding="utf-8")
    values = layer_metrics(spans, counts, traced, untraced)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def expected_per_layer() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer"]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))

    run_dir = WORK_DIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    data_dir = run_dir / "data"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), "--workload", wl.name,
             "--seed", str(args.seed), "--out", str(data_dir)],
            check=True, timeout=PREPARE_TIMEOUT_S,
        )
        if args.trace:
            spans_path = WORK_DIR / "spans" / f"{wl.name}-{args.seed}.json"
            result = traced_run(wl, args.seed, data_dir, run_dir / "out", spans_path)
            expected = expected_per_layer()
        else:
            result = timed_run(wl, args.seed, args.seconds, data_dir, run_dir / "out")
            expected = list(END_TO_END_UNITS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    missing = [name for name in expected if name not in result["metrics"]]
    if result["correct"] and missing:
        print(f"check failed: metrics not produced: {missing}", file=sys.stderr)
        result["correct"] = False
    result["metrics"] = {k: result["metrics"][k] for k in expected if k in result["metrics"]}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
