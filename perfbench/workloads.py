"""The benchmark's workloads: corpus shape and run settings, from a seed.

Why each shape was chosen is in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

from clipedit import CoTrainConfig, EditConfig, InitStrategy, SynthConfig, TrainConfig

STRATEGY = InitStrategy.parse("midpoint_neighbors")
VIDEO_LEN_S = 60.0
NOISE_SIGMA = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    n_train_videos: int
    n_test_videos: int
    captions_per_video: int
    gt_len_range: tuple[float, float]
    align_gt_to_seconds: bool
    dim: int
    warmup_epochs: int
    epochs: int  # co-training epochs; patience == epochs, so exactly this many run
    k: int
    teacher_mode: str
    evals_per_pass: int  # `clipedit eval` runs per pass; more samples for small test splits

    def synth(self, seed: int) -> SynthConfig:
        return SynthConfig(
            n_train_videos=self.n_train_videos,
            n_test_videos=self.n_test_videos,
            captions_per_video=self.captions_per_video,
            video_len_s=VIDEO_LEN_S,
            gt_len_range=self.gt_len_range,
            dim=self.dim,
            noise_sigma=NOISE_SIGMA,
            align_gt_to_seconds=self.align_gt_to_seconds,
            seed=seed,
        )

    def train(self, seed: int) -> TrainConfig:
        return TrainConfig(batch_size=32, learning_rate=1e-3, epochs=self.warmup_epochs, seed=seed)

    def cotrain(self, seed: int) -> CoTrainConfig:
        return CoTrainConfig(
            gamma=-1.0,
            patience=self.epochs,
            max_epochs=self.epochs,
            teacher_mode=self.teacher_mode,
            train=self.train(seed),
            edit=EditConfig(k=self.k),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance criterion-3 corpus at k=10: consensus dominates each epoch.
        Workload(
            name="cotrain_edit", n_train_videos=200, n_test_videos=50,
            captions_per_video=5, gt_len_range=(5.0, 9.0), align_gt_to_seconds=True,
            dim=32, warmup_epochs=4, epochs=2, k=10, teacher_mode="update", evals_per_pass=8,
        ),
        # 2,000 short clips, d=128, k=3, frozen teacher: pooling, InfoNCE and
        # the monitor dominate; every re-edit after the first repeats itself.
        Workload(
            name="cotrain_pool", n_train_videos=200, n_test_videos=50,
            captions_per_video=10, gt_len_range=(2.0, 4.0), align_gt_to_seconds=False,
            dim=128, warmup_epochs=2, epochs=3, k=3, teacher_mode="frozen", evals_per_pass=4,
        ),
        # The `clipedit eval` read path on a 10,000-caption test gallery; the
        # checkpoint it loads comes from a short run on a 600-caption train split.
        Workload(
            name="eval_gallery", n_train_videos=120, n_test_videos=2000,
            captions_per_video=5, gt_len_range=(5.0, 9.0), align_gt_to_seconds=True,
            dim=32, warmup_epochs=16, epochs=2, k=3, teacher_mode="frozen", evals_per_pass=2,
        ),
    )
}
