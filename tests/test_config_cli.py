import csv
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import clipedit.cli as cli
from clipedit.cli import ABLATE_AXES, _load_corpus, _parse_values, main
from clipedit.config import (
    DEFAULTS,
    SYNTH_DEFAULTS,
    ConfigError,
    build_run_config,
    load_config_dict,
    parse_set,
)
from clipedit.corpus import read_feat_matrix, write_feat_matrix
from clipedit.encoder import EncoderParams, NumericError, load_checkpoint, save_checkpoint


def synth_dict(**over):
    cfg = {
        "synth": {
            "n_train_videos": 5, "n_test_videos": 2, "captions_per_video": 2,
            "video_len_s": 30.0, "gt_len_range": [4.0, 7.0], "dim": 8,
            "noise_sigma": 0.1, "caption_noise_sigma": 0.0,
            "align_gt_to_seconds": True, "seed": 1,
        },
        "train": {"batch_size": 4, "epochs": 1},
        "cotrain": {"gamma": -1.0, "patience": 2, "max_epochs": 2},
        "edit": {"k": 6},
    }
    cfg.update(over)
    return cfg


# JSON nested deeper than the parser's recursion limit
DEEP = "[" * 100_000


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def tiny_cli_args(tmp_path, out_name="out"):
    cfg_path = write_cfg(tmp_path, synth_dict())
    return cfg_path, str(tmp_path / out_name)


class TestConfigDict:
    def test_no_file_yields_defaults(self):
        cfg = load_config_dict(None)
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS
        cfg["train"]["epochs"] = -99
        assert DEFAULTS["train"]["epochs"] != -99  # deep copy

    def test_readme_configuration_block_matches_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == dict(DEFAULTS, synth=SYNTH_DEFAULTS)

    def test_file_merges_over_defaults(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 5, "train": {"epochs": 2}})
        cfg = load_config_dict(path)
        assert cfg["seed"] == 5
        assert cfg["train"]["epochs"] == 2
        assert cfg["train"]["batch_size"] == DEFAULTS["train"]["batch_size"]

    def test_unknown_top_level_key(self, tmp_path):
        path = write_cfg(tmp_path, {"trainx": 1})
        with pytest.raises(ConfigError, match="trainx"):
            load_config_dict(path)

    def test_unknown_nested_key_reports_dotted_path(self, tmp_path):
        path = write_cfg(tmp_path, {"train": {"bogus": 1}})
        with pytest.raises(ConfigError, match="train.bogus"):
            load_config_dict(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file"):
            load_config_dict(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="bad.json"):
            load_config_dict(path)

    def test_sets_win_over_file(self, tmp_path):
        path = write_cfg(tmp_path, {"seed": 5})
        cfg = load_config_dict(path, ["seed=9"])
        assert cfg["seed"] == 9


class TestSetOverrides:
    def test_int_value(self):
        assert parse_set("seed=3") == (["seed"], 3)

    def test_float_dotted_path(self):
        assert parse_set("train.learning_rate=0.5") == (["train", "learning_rate"], 0.5)

    def test_json_list(self):
        assert parse_set("synth.gt_len_range=[3,6]") == (["synth", "gt_len_range"], [3, 6])

    def test_non_json_falls_back_to_string(self):
        path, value = parse_set("init_strategy=fixed_half_width:10")
        assert (path, value) == (["init_strategy"], "fixed_half_width:10")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="dotted.path=value"):
            parse_set("seed")

    def test_set_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'edit.kk'"):
            load_config_dict(None, ["edit.kk=3"])

    def test_set_instantiates_synth_block(self):
        cfg = load_config_dict(None, ["synth.dim=8"])
        assert cfg["synth"] == dict(SYNTH_DEFAULTS, dim=8)  # rest filled from defaults

    def test_set_object_merges_into_its_section(self):
        cfg = load_config_dict(None, ['train={"batch_size": 4}', 'train={"epochs": 2}'])
        assert cfg["train"] == dict(DEFAULTS["train"], batch_size=4, epochs=2)

    def test_set_null_synth_then_key_starts_from_defaults(self, tmp_path):
        path = write_cfg(tmp_path, synth_dict())
        cfg = load_config_dict(path, ["synth=null", "synth.dim=4"])
        assert cfg["synth"] == dict(SYNTH_DEFAULTS, dim=4)

    def test_set_gives_what_the_file_gives(self, tmp_path):
        from_sets = load_config_dict(None, ['synth={"dim": 8}', "synth.seed=1",
                                            'train={"batch_size": 4}', "train.epochs=2"])
        from_file = load_config_dict(write_cfg(tmp_path, {
            "synth": {"dim": 8, "seed": 1}, "train": {"batch_size": 4, "epochs": 2}}))
        assert from_sets == from_file

    def test_long_value_is_shortened_in_messages(self):
        long = "x" * 5000
        for sets in ([f"seed={long}"], [long]):
            with pytest.raises(ConfigError) as exc:
                build_run_config(load_config_dict(None, sets))
            assert len(str(exc.value)) < 120 and str(exc.value).endswith("...")


class TestBuildRunConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            build_run_config(load_config_dict(None))
        cfg = load_config_dict(None)
        cfg["features_dir"] = "x"
        cfg["annotations_file"] = "y"
        cfg["synth"] = dict(synth_dict()["synth"])
        with pytest.raises(ConfigError, match="exactly one"):
            build_run_config(cfg)

    def test_features_dir_needs_annotations(self):
        cfg = load_config_dict(None)
        cfg["features_dir"] = "feats"
        with pytest.raises(ConfigError, match="annotations_file"):
            build_run_config(cfg)

    def test_jitter_fraction_bounds(self):
        cfg = synth_dict(jitter_fraction=1.5)
        with pytest.raises(ConfigError, match="jitter_fraction"):
            build_run_config(load_config_dict_from(cfg))

    def test_bad_init_strategy(self):
        cfg = synth_dict(init_strategy="nearest_shot")
        with pytest.raises(ConfigError, match="unknown init strategy"):
            build_run_config(load_config_dict_from(cfg))

    def test_bad_nested_value_is_config_error(self):
        cfg = synth_dict()
        cfg["cotrain"] = dict(cfg["cotrain"], teacher_mode="ema")
        with pytest.raises(ConfigError, match="teacher_mode"):
            build_run_config(load_config_dict_from(cfg))

    def test_int_for_float_field_is_stored_as_float(self, tmp_path):
        run = build_run_config(load_config_dict(
            write_cfg(tmp_path, synth_dict()),
            ["cotrain.gamma=0", "edit.iou_gate=1", "jitter_fraction=0",
             "synth.video_len_s=30", "synth.gt_len_range=[4,7]"],
        ))
        for value, want in ((run.cotrain.gamma, 0.0), (run.cotrain.edit.iou_gate, 1.0),
                            (run.jitter_fraction, 0.0), (run.synth.video_len_s, 30.0),
                            *zip(run.synth.gt_len_range, (4.0, 7.0))):
            assert type(value) is float and value == want

    def test_partial_synth_object_is_merged_over_synth_defaults(self):
        run = build_run_config(load_config_dict(None, ['synth={"dim": 8}']))
        assert run.synth.dim == 8
        assert run.synth.n_train_videos == SYNTH_DEFAULTS["n_train_videos"]

    def test_valid_synth_run(self, tmp_path):
        run = build_run_config(load_config_dict(write_cfg(tmp_path, synth_dict())))
        assert run.synth is not None
        assert run.features_dir is None
        cc = run.cotrain
        assert cc.gamma == -1.0
        assert cc.max_epochs == 2
        assert cc.edit.k == 6
        assert cc.train.batch_size == 4


def load_config_dict_from(cfg_dict):
    """Merge an in-memory dict over defaults the same way a file would."""
    import clipedit.config as c
    return c._merge(load_config_dict(None), cfg_dict)


class TestCliExitCodes:
    def test_defaults_alone_fail_validation(self, capsys):
        assert main(["warmup"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_set_key(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--set", "nope=1", "--out", out]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "train.batch_size=4.5", "train.epochs=1.5", "train.seed=1.5", "edit.k=3.5",
        "synth.dim=8.5", "synth.n_train_videos=2.5", "synth.seed=1.5", "synth=5",
        "annotations_file=[1]", 'cotrain.gamma="0.5"', 'edit.iou_gate="0.5"', "seed=1.7",
        "cotrain.patience=true", "out_dir=5",
        "synth.video_len_s=Infinity", "edit.seg_len_s=Infinity", "max_jitter_s=Infinity",
        "train.learning_rate=NaN", "cotrain.gamma=-Infinity", "synth.gt_len_range=[1.0, NaN]",
        "edit.iou_gate=1e400",
    ])
    def test_wrong_type_exits_2_naming_key(self, tmp_path, capsys, setting):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {setting.partition('=')[0]} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sets,field,want", [
        (['train={"batch_size": 4}', "train.epochs=2"], "train", {"batch_size": 4, "epochs": 2}),
        (["train.epochs=2", 'train={"batch_size": 4}'], "train", {"batch_size": 4, "epochs": 2}),
        (['synth={"dim": 8, "n_train_videos": 3}', "synth.seed=7"], "synth",
         {"dim": 8, "n_train_videos": 3, "seed": 7}),
    ], ids=["object-then-key", "key-then-object", "synth-object-then-key"])
    def test_sets_merge_in_order_and_run(self, tmp_path, monkeypatch, sets, field, want):
        runs = []
        monkeypatch.setattr(cli, "cmd_synth", lambda run, args: runs.append(run) or 0)
        cfg_path, out = tiny_cli_args(tmp_path)
        argv = ["synth", "--config", cfg_path, "--out", out]
        assert main([*argv, *(arg for s in sets for arg in ("--set", s))]) == 0
        (run,) = runs
        got = run.synth if field == "synth" else run.cotrain.train
        assert {key: getattr(got, key) for key in want} == want
        # a key no override names keeps the file's value
        assert (got.n_test_videos == 2) if field == "synth" else (got.learning_rate == 0.001)

    def test_set_through_a_scalar_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--out", out, "--set", "train.batch_size.x=1"]) == 2
        assert capsys.readouterr().err == "config error: train.batch_size must be int, got {'x': 1}\n"

    def test_nested_value_is_shortened_in_the_message(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        nested = "[" * 300 + "]" * 300
        assert main(["synth", "--config", cfg_path, "--out", out, "--set", "seed=" + nested]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: seed must be int, got [[[[") and len(err) < 120

    @pytest.mark.parametrize("setting,what", [
        ("synth.caption_noise_sigma=1e200", "synth.caption_noise_sigma: a synthetic feature row has norm inf"),
        ("synth.caption_noise_sigma=1e308", "synth.caption_noise_sigma: a synthetic feature row has norm inf"),
        ("synth.noise_sigma=1e200", "synth.noise_sigma: a synthetic feature row has norm inf"),
        ("synth.noise_sigma=1e308", "synth.noise_sigma: a synthetic feature row has norm inf"),
        ("synth.gt_len_range=[1e-320,1e-320]", "synth.gt_len_range (1e-320, 1e-320): a gt at "),
    ])
    def test_synth_rejects_what_its_loader_would(self, tmp_path, capsys, setting, what):
        # pytest turns a RuntimeWarning into an error, so none may print
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--out", out, "--check", "--set", setting,
                     "--set", "synth.align_gt_to_seconds=false"]) == 2
        assert capsys.readouterr().err.startswith(f"validation error: {what}")
        assert not Path(out).exists()

    @pytest.mark.parametrize("width", ["inf", "1e400", "nan"])
    def test_non_finite_half_width_exits_2_naming_init_strategy(self, tmp_path, capsys, width):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out,
                     "--set", f"init_strategy=fixed_half_width:{width}"]) == 2
        assert capsys.readouterr().err == \
            "config error: init_strategy: fixed_half_width requires a finite half_width_s > 0\n"

    @pytest.mark.parametrize("value", ["1e-300", "0.005"])
    def test_seg_len_below_floor_exits_2(self, tmp_path, capsys, value):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out,
                     "--set", f"edit.seg_len_s={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: edit: seg_len_s must be >= 0.01, got {float(value)}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting,what", [
        ("train.seed=-1", "config error: train: seed must be >= 0, got -1"),
        ("synth.seed=-1", "config error: synth: seed must be >= 0, got -1"),
        ("seed=-1", "config error: seed must be >= 0, got -1"),
    ])
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, setting, what):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith(what) and "Traceback" not in err

    @pytest.mark.parametrize("setting,what", [
        ("edit.k=0", "config error: edit: k must be >= 1, got 0"),
        ("train.batch_size=1", "config error: train: batch_size must be >= 2, got 1"),
        ("cotrain.patience=0", "config error: cotrain: patience must be >= 1, got 0"),
        ("train.beta1=1.0", "config error: train: beta1 must be in [0, 1), got 1.0"),
        ("train.beta2=1.0", "config error: train: beta2 must be in [0, 1), got 1.0"),
        ("train.beta1=-3", "config error: train: beta1 must be in [0, 1), got -3.0"),
        ("train.eps=-1.0", "config error: train: eps must be > 0, got -1.0"),
    ])
    def test_section_error_names_its_section(self, tmp_path, capsys, setting, what):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith(what) and "Traceback" not in err

    def test_k_past_int64_runs(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out, "--check",
                     "--set", "edit.k=1000000000000000000000"]) == 0

    def test_ablate_wrong_type_exits_2_naming_key(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["ablate", "--config", cfg_path, "--out", out,
                     "--axis", "topk", "--values", "4.5"]) == 2
        assert "config error: edit.k must be int, got 4.5" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1,2")
        assert main(["synth", "--config", str(bad)]) == 2

    def test_config_directory_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["synth", "--config", str(tmp_path)]) == 2
        assert f"config error: config file {tmp_path}: cannot read: " in capsys.readouterr().err

    def test_deep_config_file_exits_2_naming_it(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP)
        assert main(["synth", "--config", str(deep)]) == 2
        assert f"config error: {deep}: invalid JSON: " in capsys.readouterr().err

    def test_deep_set_value_exits_2_naming_key(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--out", out, "--set", "seed=" + DEEP]) == 2
        assert "config error: --set seed: JSON nested too deep" in capsys.readouterr().err

    def test_deep_ablate_value_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["ablate", "--config", cfg_path, "--out", out,
                     "--axis", "topk", "--values", "4," + DEEP]) == 2
        assert "config error: --values: JSON nested too deep" in capsys.readouterr().err

    def test_infeasible_synth_placement(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        code = main(["synth", "--config", cfg_path, "--out", out,
                     "--set", "synth.video_len_s=8.0"])
        assert code == 2
        assert "infeasible placement" in capsys.readouterr().err

    @pytest.mark.parametrize("lo_hi", ["[0.2,0.8]", "[1e-320,1e-320]"])
    def test_aligned_gt_len_range_without_a_whole_second_exits_2(self, tmp_path, capsys, lo_hi):
        cfg_path, out = tiny_cli_args(tmp_path)  # its synth block aligns gts to seconds
        assert main(["synth", "--config", cfg_path, "--out", out, "--set", f"synth.gt_len_range={lo_hi}"]) == 2
        lo, hi = json.loads(lo_hi)
        assert capsys.readouterr().err == \
            f"config error: synth: gt_len_range ({lo}, {hi}) contains no whole second\n"
        assert not Path(out).exists()

    @pytest.mark.parametrize("command", ["synth", "warmup", "cotrain", "eval", "ablate"])
    @pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")],
                             ids=["a-file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_naming_it(self, tmp_path, capsys, command, below, reason):
        cfg_path, _ = tiny_cli_args(tmp_path)
        ckpt = tmp_path / "model.cfp"
        save_checkpoint(ckpt, EncoderParams.identity(8))
        extra = {"eval": ["--checkpoint", str(ckpt)], "ablate": ["--axis", "topk", "--values", "4"]}
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x" if below else tmp_path / "file"
        assert main([command, "--config", cfg_path, "--out", str(out), *extra.get(command, [])]) == 2
        assert capsys.readouterr().err == f"validation error: {out}: cannot create directory: {reason}\n"

    @pytest.mark.parametrize("command", ["warmup", "cotrain", "eval"])
    @pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")],
                             ids=["a-file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, below, reason):
        _, cfg_path = self.file_corpus_cfg(tmp_path)
        ckpt = tmp_path / "model.cfp"
        save_checkpoint(ckpt, EncoderParams.identity(8))

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the --out check")
        for name in ("warmup", "load_features"):
            monkeypatch.setattr(f"clipedit.cli.{name}", no_work)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "x" if below else tmp_path / "file"
        extra = ["--checkpoint", str(ckpt)] if command == "eval" else []
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", str(out), *extra]) == 2
        assert capsys.readouterr().err == f"validation error: {out}: cannot create directory: {reason}\n"

    @pytest.mark.parametrize("command, name", [
        ("synth", "annotations.jsonl"), ("warmup", "model.warmup.cfp"),
        ("cotrain", "cotrain_log.jsonl"), ("cotrain", "edits.jsonl"), ("cotrain", "metrics.json"),
    ])
    def test_output_that_cannot_be_written_exits_2_naming_it(self, tmp_path, capsys, command, name):
        cfg_path, out = tiny_cli_args(tmp_path)
        (Path(out) / name).mkdir(parents=True)
        assert main([command, "--config", cfg_path, "--out", out]) == 2
        assert capsys.readouterr().err == f"validation error: {Path(out) / name}: cannot write: Is a directory\n"
        assert [p.name for p in Path(out).glob(".*.tmp")] == []

    @pytest.mark.parametrize("command", ["warmup", "cotrain"])
    def test_overflowing_projection_norm_exits_3_naming_it(self, tmp_path, capsys, command):
        # the first step leaves finite weights near 1e30, whose projections' norms overflow;
        # pytest turns a RuntimeWarning into an error, so none may print
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main([command, "--config", cfg_path, "--out", out, "--set", "train.learning_rate=1e30"]) == 3
        assert capsys.readouterr().err == "numeric error: non-finite norm of the W_v projection at batch index 0\n"

    def test_numeric_error_maps_to_3(self, tmp_path, monkeypatch):
        def boom(run, args):
            raise NumericError("non-finite loss contribution at batch index 0")
        monkeypatch.setattr("clipedit.cli.cmd_synth", boom)
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--out", out]) == 3

    def test_unknown_axis_is_usage_error(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--config", cfg_path, "--out", out,
                  "--axis", "tau", "--values", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_caption_without_features_exits_2(self, tmp_path, capsys):
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", corpus]) == 0
        idx = Path(corpus) / "captions.idx"
        lines = idx.read_text().splitlines()
        dropped = json.loads(lines[0])["caption_id"]
        idx.write_text("\n".join(lines[1:]) + "\n")
        cfg = synth_dict(synth=None, features_dir=corpus,
                         annotations_file=str(Path(corpus) / "annotations.jsonl"))
        cfg2_path = write_cfg(tmp_path, cfg, "cfg2.json")
        capsys.readouterr()
        for command in ("warmup", "cotrain"):
            assert main([command, "--config", cfg2_path, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "annotations.jsonl:" in err and dropped in err

    def test_duplicate_timestamp_exits_2(self, tmp_path, capsys):
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", corpus]) == 0
        ann_path = Path(corpus) / "annotations.jsonl"
        lines = ann_path.read_text().splitlines()
        first, second = json.loads(lines[0]), json.loads(lines[1])
        assert (first["video_id"], first["split"]) == (second["video_id"], second["split"])
        second["timestamp"] = first["timestamp"]
        lines[1] = json.dumps(second)
        ann_path.write_text("\n".join(lines) + "\n")
        cfg = synth_dict(synth=None, features_dir=corpus, annotations_file=str(ann_path))
        cfg2_path = write_cfg(tmp_path, cfg, "cfg2.json")
        capsys.readouterr()
        assert main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "annotations.jsonl:2:" in err and "annotations.jsonl:1" in err

    @pytest.mark.parametrize("bad_line,what", [
        ("5", "expected a JSON object"), ("null", "expected a JSON object"),
        ({"timestamp": None}, "timestamp must be a number"),
        ({"timestamp": [1]}, "timestamp must be a number"),
        ({"gt_start": None}, "gt_start must be a number"),
        ({"timestamp": True}, "timestamp must be a number"),
        ({"timestamp": "3.5"}, "timestamp must be a number"),
        ({"gt_start": "1.7"}, "gt_start must be a number"),
        ({"gt_end": False}, "gt_end must be a number"),
        ({"caption_id": None}, "caption_id must be a string"),
        ({"video_id": 7}, "video_id must be a string"),
        ({"split": ["train"]}, "split must be a string"),
        ({"text": None}, "text must be a string, got None"),
        ({"text": {"x": 1}}, "text must be a string, got {'x': 1}"),
        ({"gt_end": 35.0}, "35.0] outside video"),  # the synthetic videos are 30 s long
    ], ids=["int", "null", "timestamp-null", "timestamp-list", "gt_start-null",
            "timestamp-bool", "timestamp-str", "gt_start-str", "gt_end-bool",
            "caption_id-null", "video_id-int", "split-list", "text-null", "text-object",
            "gt_end-past-video"])
    def test_bad_annotation_line_exits_2(self, tmp_path, capsys, bad_line, what):
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", corpus]) == 0
        ann_path = Path(corpus) / "annotations.jsonl"
        lines = ann_path.read_text().splitlines()
        if isinstance(bad_line, dict):
            bad_line = json.dumps({**json.loads(lines[1]), **bad_line})
        lines[1] = bad_line
        ann_path.write_text("\n".join(lines) + "\n")
        cfg = synth_dict(synth=None, features_dir=corpus, annotations_file=str(ann_path))
        cfg2_path = write_cfg(tmp_path, cfg, "cfg2.json")
        capsys.readouterr()
        assert main(["warmup", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "annotations.jsonl:2:" in err and what in err and "Traceback" not in err


    def file_corpus_cfg(self, tmp_path, **over):
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", corpus]) == 0
        cfg = synth_dict(synth=None, features_dir=corpus,
                         annotations_file=str(Path(corpus) / "annotations.jsonl"), **over)
        return Path(corpus), write_cfg(tmp_path, cfg, "cfg2.json")

    @pytest.mark.parametrize("value,what", [(0.0, "zero-norm"), (np.nan, "non-finite")])
    def test_bad_caption_row_exits_2(self, tmp_path, capsys, value, what):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        entry = json.loads((corpus / "captions.idx").read_text().splitlines()[2])
        matrix = read_feat_matrix(corpus / "captions.feat")
        matrix[entry["row"]] = 0.0
        matrix[entry["row"], 1] = value
        write_feat_matrix(corpus / "captions.feat", matrix)
        capsys.readouterr()
        for command in ("warmup", "cotrain"):
            assert main([command, "--config", cfg2_path, "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "captions.idx:3:" in err and entry["caption_id"] in err and what in err

    def test_edit_error_exits_2_naming_caption(self, tmp_path, capsys, monkeypatch):
        # a zero caption row that reaches the editor: the random teacher's
        # zero bias leaves its projection degenerate
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        anns = [json.loads(line) for line in (corpus / "annotations.jsonl").read_text().splitlines()]
        victim = next(a for a in anns if a["split"] == "train")
        load = cli.load_features

        def load_and_zero(dir_path):
            store = load(dir_path)
            store.caption_features[victim["caption_id"]] = np.zeros(8, dtype=np.float32)
            return store
        monkeypatch.setattr(cli, "load_features", load_and_zero)
        capsys.readouterr()
        code = main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run"),
                     "--set", 'cotrain.teacher_mode="random"'])
        err = capsys.readouterr().err
        assert code == 2
        assert victim["caption_id"] in err and "degenerate embedding" in err

    def test_duplicate_caption_in_index_exits_2(self, tmp_path, capsys):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        idx = corpus / "captions.idx"
        lines = idx.read_text().splitlines()
        dup = json.loads(lines[0])["caption_id"]
        lines[3] = json.dumps({"caption_id": dup, "row": json.loads(lines[3])["row"]})
        idx.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["warmup", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "captions.idx:4:" in err and "captions.idx:1" in err and dup in err

    def test_non_finite_video_feat_exits_2_naming_file(self, tmp_path, capsys):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        victim = sorted(p for p in corpus.glob("*.feat") if p.name != "captions.feat")[0]
        rows = read_feat_matrix(victim)
        rows[1, 2] = np.inf
        write_feat_matrix(victim, rows)
        capsys.readouterr()
        assert main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"{victim}: video {victim.stem}: non-finite feature values" in err

    def test_missing_annotations_file_exits_2_naming_it(self, tmp_path, capsys):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        (corpus / "annotations.jsonl").unlink()
        capsys.readouterr()
        assert main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: {corpus / 'annotations.jsonl'}: cannot read: " \
                      "No such file or directory\n"

    def test_directory_named_feat_exits_2_naming_it(self, tmp_path, capsys):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        (corpus / "zz.feat").mkdir()
        capsys.readouterr()
        assert main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: {corpus / 'zz.feat'}: cannot read: Is a directory\n"

    def test_missing_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)
        ckpt = tmp_path / "absent.cfp"
        assert main(["eval", "--config", cfg_path, "--out", out, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err == f"validation error: {ckpt}: cannot read: No such file or directory\n"

    def test_empty_video_feat_exits_2_naming_file(self, tmp_path, capsys):
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        victim = sorted(p for p in corpus.glob("*.feat") if p.name != "captions.feat")[0]
        write_feat_matrix(victim, np.zeros((0, 8), dtype=np.float32))
        capsys.readouterr()
        assert main(["cotrain", "--config", cfg2_path, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(victim) in err and "no feature rows" in err

    @pytest.mark.parametrize("offset,patch,what", [
        (20, struct.pack("<f", np.nan), "non-finite values in W_v"),
        (12, struct.pack("<d", -1.0), "tau must be > 0"),
        (12, struct.pack("<d", np.inf), "tau must be finite, got inf"),
    ], ids=["nan_weight", "negative_tau", "inf_tau"])
    def test_bad_checkpoint_value_exits_2_naming_file(self, tmp_path, capsys, offset, patch, what):
        cfg_path, out = tiny_cli_args(tmp_path)
        ckpt = tmp_path / "bad.cfp"
        save_checkpoint(ckpt, EncoderParams.identity(8))
        raw = bytearray(ckpt.read_bytes())
        raw[offset:offset + len(patch)] = patch
        ckpt.write_bytes(bytes(raw))
        assert main(["eval", "--config", cfg_path, "--out", out, "--checkpoint", str(ckpt)]) == 2
        assert f"{ckpt}: {what}" in capsys.readouterr().err

    def test_checkpoint_dimension_mismatch_exits_2_naming_both(self, tmp_path, capsys):
        cfg_path, out = tiny_cli_args(tmp_path)  # a d=8 corpus
        ckpt = tmp_path / "wide.cfp"
        save_checkpoint(ckpt, EncoderParams.identity(16))
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", out, "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: checkpoint d_in=16 does not match the corpus's d=8" in err
        assert "matmul" not in err

    def test_numeric_error_in_editor_exits_3(self, tmp_path, monkeypatch):
        calls = []

        def boom(*args):  # the editor's block scoring, reached by every clip of more than k segments
            calls.append(args)
            raise NumericError("non-finite segment similarity")
        monkeypatch.setattr("clipedit.editor._block_scores", boom)
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out]) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["warmup", "cotrain"])
    def test_weight_overflow_in_the_last_step_exits_3(self, tmp_path, capsys, command):
        # 16 train captions in one batch: no later batch's loss sees the overflowed weight
        cfg = synth_dict(train={"batch_size": 32, "epochs": 1, "learning_rate": 1e300})
        cfg["synth"].update(n_train_videos=4, n_test_videos=2, captions_per_video=4, video_len_s=40.0)
        cfg_path = write_cfg(tmp_path, cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 3
        assert "numeric error: non-finite values in W_v after an optimizer step" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.warmup.cfp").exists()

    @pytest.mark.parametrize("command", ["warmup", "cotrain"])
    def test_weight_overflow_mid_epoch_exits_3_naming_the_tensor(self, tmp_path, capsys, command):
        # 16 train captions in batches of 4: the first step overflows and three batches follow it;
        # a RuntimeWarning from their forward pass would fail this test
        cfg = synth_dict()
        cfg["synth"].update(n_train_videos=4, n_test_videos=2, captions_per_video=4, video_len_s=40.0)
        cfg_path = write_cfg(tmp_path, cfg)
        capsys.readouterr()
        code = main([command, "--config", cfg_path, "--out", str(tmp_path / "run"),
                     "--set", "train.learning_rate=1e300", "--set", "train.batch_size=4"])
        assert code == 3
        assert capsys.readouterr().err == "numeric error: non-finite values in W_v after an optimizer step\n"

    def test_overflowing_caption_row_exits_2_naming_it(self, tmp_path, capsys):
        # finite float32 features whose embedding norm overflows: not a rank-1 hit for every query
        corpus, cfg2_path = self.file_corpus_cfg(tmp_path)
        anns = [json.loads(line) for line in (corpus / "annotations.jsonl").read_text().splitlines()]
        victim = next(a["caption_id"] for a in anns if a["split"] == "test")
        index = [json.loads(line) for line in (corpus / "captions.idx").read_text().splitlines()]
        matrix = read_feat_matrix(corpus / "captions.feat")
        matrix[next(e["row"] for e in index if e["caption_id"] == victim)] = 3e38 * (-1.0) ** np.arange(8)
        write_feat_matrix(corpus / "captions.feat", matrix)
        ckpt = tmp_path / "model.cfp"
        save_checkpoint(ckpt, EncoderParams.identity(8, dtype=np.float32))
        capsys.readouterr()
        assert main(["eval", "--config", cfg2_path, "--out", str(tmp_path / "ev"), "--checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == \
            f"validation error: degenerate embedding: non-finite-norm caption {victim!r}\n"

    def _gallery_corpus(self, tmp_path, keep_gt: bool):
        """A synthetic corpus whose first test caption sits at t = 0.0, with
        or without its gt, and a checkpoint for it."""
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", corpus]) == 0
        ann_path = Path(corpus) / "annotations.jsonl"
        rows = [json.loads(line) for line in ann_path.read_text().splitlines()]
        first = next(r for r in rows if r["split"] == "test")  # its video's earliest caption
        first["timestamp"] = 0.0
        if not keep_gt:
            del first["gt_start"], first["gt_end"]
        ann_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ckpt = tmp_path / "model.cfp"
        save_checkpoint(ckpt, EncoderParams.init_random(8, rng=np.random.default_rng(0)))
        cfg = synth_dict(synth=None, features_dir=corpus, annotations_file=str(ann_path),
                         init_strategy="prev_gap")
        return write_cfg(tmp_path, cfg, "cfg2.json"), str(ckpt), first["caption_id"]

    def test_all_gt_gallery_forms_no_initial_clips(self, tmp_path):
        # prev_gap at t = 0.0 is degenerate, but an all-gt gallery never forms it
        cfg_path, ckpt, _ = self._gallery_corpus(tmp_path, keep_gt=True)
        out = tmp_path / "ev"
        assert main(["eval", "--config", cfg_path, "--out", str(out), "--checkpoint", ckpt]) == 0
        assert json.loads((out / "metrics.json").read_text())["gallery_mode"] == "gt"

    def test_mixed_gallery_names_a_degenerate_initial_clip(self, tmp_path, capsys):
        cfg_path, ckpt, caption_id = self._gallery_corpus(tmp_path, keep_gt=False)
        capsys.readouterr()
        assert main(["eval", "--config", cfg_path, "--out", str(tmp_path / "ev"), "--checkpoint", ckpt]) == 2
        assert (f"validation error: caption {caption_id}: prev_gap at t=0.0 yields degenerate clip [0.0, 0.0]"
                in capsys.readouterr().err)


class TestCliSynth:
    def test_writes_corpus_and_is_deterministic(self, tmp_path):
        cfg_path = write_cfg(tmp_path, synth_dict())
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["synth", "--config", cfg_path, "--out", out1]) == 0
        assert main(["synth", "--config", cfg_path, "--out", out2]) == 0
        names = sorted(p.name for p in Path(out1).iterdir())
        assert "annotations.jsonl" in names
        assert "captions.feat" in names and "captions.idx" in names
        assert any(n.startswith("v_train_") and n.endswith(".feat") for n in names)
        for name in names:
            b1 = (Path(out1) / name).read_bytes()
            b2 = (Path(out2) / name).read_bytes()
            assert b1 == b2, name

    def test_check_flag_revalidates(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["synth", "--config", cfg_path, "--out", out, "--check"]) == 0

    @pytest.mark.parametrize("name, text, what", [
        ("iou_hist.csv", "", "unexpected layout"),
        ("iou_hist_gt.csv", "bin_lo,bin_hi,count\nmean,,0.5\n\n", "unexpected layout"),
        ("metrics.json", "5\n", "expected a JSON object with keys r1, r5, "),
        ("metrics.json", '{"r1":\n', "invalid JSON: "),
    ], ids=["empty-csv", "blank-last-csv-line", "metrics-int", "metrics-malformed"])
    def test_check_stale_output_exits_2_naming_it(self, tmp_path, capsys, name, text, what):
        cfg_path, out = tiny_cli_args(tmp_path)
        Path(out).mkdir()
        (Path(out) / name).write_text(text)
        assert main(["synth", "--config", cfg_path, "--out", out, "--check"]) == 2
        assert f"validation error: {Path(out) / name}: {what}" in capsys.readouterr().err

    def test_check_names_the_bad_jsonl_line(self, tmp_path):
        (tmp_path / "edits.jsonl").write_text('{"caption_id": "c1"}\n{"caption_id" "c2"}\n')
        with pytest.raises(ValueError, match=r"edits\.jsonl:2: malformed JSON: "):
            cli._check_outputs(tmp_path)

    def test_synth_output_feeds_features_dir_run(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path, "corpus")
        assert main(["synth", "--config", cfg_path, "--out", out]) == 0
        cfg2 = synth_dict()
        cfg2["synth"] = None
        cfg2["features_dir"] = out
        cfg2["annotations_file"] = str(Path(out) / "annotations.jsonl")
        cfg2_path = write_cfg(tmp_path, cfg2, "cfg2.json")
        out2 = str(tmp_path / "warm")
        assert main(["warmup", "--config", cfg2_path, "--out", out2]) == 0
        assert (Path(out2) / "model.warmup.cfp").exists()


class TestEntryPoint:
    def test_commands_exit_0_with_empty_stderr_in_dev_mode(self, tmp_path):
        # the real `python -m clipedit.cli`, with every warning an error: in-process tests
        # reach neither `__main__` nor warnings the interpreter itself reports
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        cfg_path, corpus = tiny_cli_args(tmp_path, "corpus")
        cfg2_path = write_cfg(tmp_path, synth_dict(synth=None, features_dir=corpus,
                                                   annotations_file=str(Path(corpus) / "annotations.jsonl")), "cfg2.json")
        run, ev = tmp_path / "run", tmp_path / "ev"
        for args in (["synth", "--config", cfg_path, "--out", corpus],
                     ["cotrain", "--config", cfg2_path, "--out", str(run), "--check"],
                     ["eval", "--config", cfg2_path, "--out", str(ev), "--check",
                      "--checkpoint", str(run / "model.student.cfp")]):
            proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "clipedit.cli", *args],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, ""), args
        assert (ev / "metrics.json").exists()


class TestCliWarmupCotrainEval:
    def test_warmup_outputs(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["warmup", "--config", cfg_path, "--out", out]) == 0
        assert (Path(out) / "model.warmup.cfp").exists()
        metrics = json.loads((Path(out) / "metrics.json").read_text())
        assert set(metrics) >= {"r1", "r5", "r10", "medr", "n_queries", "gallery_mode"}
        assert metrics["gallery_mode"] == "gt"

    def test_cotrain_outputs(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out, "--check"]) == 0
        root = Path(out)
        for name in ("model.student.cfp", "model.teacher.cfp", "cotrain_log.jsonl",
                     "edits.jsonl", "iou_hist.csv", "iou_hist_gt.csv", "metrics.json"):
            assert (root / name).exists(), name
        log = [json.loads(l) for l in (root / "cotrain_log.jsonl").read_text().splitlines()]
        assert 1 <= len(log) <= 2
        assert log[0]["epoch"] == 1
        with (root / "iou_hist.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count"]
        assert rows[-1][0] == "mean"

    def test_eval_on_warmup_checkpoint(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["warmup", "--config", cfg_path, "--out", out]) == 0
        out2 = str(tmp_path / "ev")
        ckpt = str(Path(out) / "model.warmup.cfp")
        assert main(["eval", "--config", cfg_path, "--out", out2,
                     "--checkpoint", ckpt]) == 0
        m1 = json.loads((Path(out) / "metrics.json").read_text())
        m2 = json.loads((Path(out2) / "metrics.json").read_text())
        assert m1 == m2

    def test_student_checkpoint_is_best_student(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["cotrain", "--config", cfg_path, "--out", out]) == 0
        params = load_checkpoint(Path(out) / "model.student.cfp")
        assert params.W_v.shape == (8, 8)


class TestCliAblate:
    def test_axes_cover_documented_knobs(self):
        assert set(ABLATE_AXES) == {
            "topk", "iou_gate", "gamma", "jitter", "init_strategy", "teacher_mode",
        }

    def test_parse_values_mixed(self):
        assert _parse_values("4, 0.5,midpoint_neighbors") == [4, 0.5, "midpoint_neighbors"]

    def test_topk_sweep(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["ablate", "--config", cfg_path, "--out", out,
                     "--axis", "topk", "--values", "4,6"]) == 0
        root = Path(out)
        assert (root / "topk_4" / "metrics.json").exists()
        assert (root / "topk_6" / "metrics.json").exists()
        with (root / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value", "r1", "r5", "r10", "medr"]
        assert [r[0] for r in rows[1:]] == ["4", "6"]

    def test_corpus_loaded_once_per_sweep(self, tmp_path, monkeypatch):
        loads = []

        def counting_load(run):
            loads.append(run)
            return _load_corpus(run)

        monkeypatch.setattr("clipedit.cli._load_corpus", counting_load)
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["ablate", "--config", cfg_path, "--out", out,
                     "--axis", "teacher_mode", "--values", "update,frozen,self"]) == 0
        assert len(loads) == 1

    @pytest.mark.parametrize("axis,value", [
        ("topk", 3), ("iou_gate", 0.25), ("gamma", 0.5), ("jitter", 0.1),
        ("init_strategy", "fixed_half_width:5"), ("teacher_mode", "frozen"),
    ])
    def test_file_set_and_ablate_give_one_run_config(self, tmp_path, monkeypatch, axis, value):
        assert set(ABLATE_AXES) == {"topk", "iou_gate", "gamma", "jitter", "init_strategy", "teacher_mode"}
        path = ABLATE_AXES[axis].split(".")
        in_file = synth_dict(train={"batch_size": 4, "epochs": 2})
        section = in_file
        for part in path[:-1]:
            section = section[part]
        section[path[-1]] = value
        from_file = build_run_config(load_config_dict(write_cfg(tmp_path, in_file, "file.json")))
        cfg_path, out = tiny_cli_args(tmp_path)
        sets = ["--set", 'train={"epochs": 2}']  # merged into the file's train section
        from_set = build_run_config(load_config_dict(
            cfg_path, [sets[1], f"{ABLATE_AXES[axis]}={json.dumps(value)}"]))
        runs = []

        def capture(run, check, corpus):
            runs.append(run)
            return SimpleNamespace(r_at={1: 0.0, 5: 0.0, 10: 0.0}, med_r=1.0)
        monkeypatch.setattr(cli, "run_cotrain_pipeline", capture)
        assert main(["ablate", "--config", cfg_path, "--out", out, *sets,
                     "--axis", axis, "--values", str(value)]) == 0
        (from_ablate,) = runs
        assert replace(from_ablate, out_dir=from_file.out_dir) == from_set == from_file
        assert from_file != build_run_config(load_config_dict(cfg_path, sets[1:]))

    def test_init_strategy_value_with_colon_gets_safe_dirname(self, tmp_path):
        cfg_path, out = tiny_cli_args(tmp_path)
        assert main(["ablate", "--config", cfg_path, "--out", out,
                     "--axis", "init_strategy", "--values", "fixed_half_width:5"]) == 0
        assert (Path(out) / "init_strategy_fixed_half_width-5" / "metrics.json").exists()
