"""Write one workload's corpus for a seed: `features/` and `annotations.jsonl`.

Run as a child of run.py, so corpus generation stays out of the measuring
process's peak RSS:

    python3 perfbench/prepare.py --workload cotrain_edit --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clipedit import synth_corpus, write_annotations, write_features  # noqa: E402

from pipeline import ANNOTATIONS, FEATURES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    store, annotations = synth_corpus(WORKLOADS[args.workload].synth(args.seed))
    write_features(args.out / FEATURES, store)
    write_annotations(args.out / ANNOTATIONS, annotations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
