"""Tests for the command-line surface: config resolution, the full
pipeline smoke run, exit codes, and artifact reproducibility."""

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from macforge.backbone import NetParams, load_checkpoint, save_checkpoint
from macforge.cli import (
    CHOICES,
    DEFAULTS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    ConfigError,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from macforge.descriptor import save_descriptors
from macforge.images import write_ppm
from macforge.mining import MiningConfig, TrainingTuple, save_tuples
from macforge.pipeline import load_scenes_dir
from macforge.synthscene import SceneConfig
from macforge.training import LossConfig, TrainConfig
from macforge.workers import worker_count
from testkit import child_env


def run_cli(*argv):
    return main(list(argv))


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def nan_descriptor_db(path):
    """A .macd whose record 'b' holds a NaN; save_descriptors refuses to
    write one, so the NaN is patched into the bytes. Returns the path as
    a string."""
    save_descriptors(path, {"a": np.array([1.0, 0.0]),
                            "b": np.array([2.0, 0.0])})
    blob = path.read_bytes()
    two = struct.pack("<f", 2.0)
    assert blob.count(two) == 1
    path.write_bytes(blob.replace(two, struct.pack("<f", np.nan)))
    return str(path)


SCENE_ARGS = ["--set", "clusters=4", "--set", "images_min=4",
              "--set", "images_max=5", "--set", "points_min=30",
              "--set", "points_max=40", "--set", "image_size=32"]
SMALL_ARGS = SCENE_ARGS + ["--set", "negatives=2", "--set", "pool_size=10",
                           "--set", "candidate_negatives_per_cluster=8",
                           "--set", "batch_tuples=2",
                           "--set", "max_epochs=1",
                           "--set", "max_image_side=32",
                           "--set", "val_fraction=0.25"]


def config_flags():
    """(subcommand, option, key) for every flag whose dest is a config
    key, read from the parser itself."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.dest)
            for command, parser in sorted(sub.choices.items())
            for action in parser._actions if action.dest in DEFAULTS]


class TestConfigResolution:

    def _resolve(self, *argv):
        parser = build_parser()
        return resolve_config(parser.parse_args(list(argv)))

    def test_threads_zero_is_one_worker_per_usable_cpu(self):
        # the config keeps 0; each stage resolves it with worker_count
        cfg = self._resolve("synth", "--out", "x")
        assert cfg["threads"] == 0
        assert worker_count(cfg["threads"]) == len(os.sched_getaffinity(0))
        assert self._resolve("synth", "--out", "x",
                             "--threads", "3")["threads"] == 3

    def test_config_hash_does_not_depend_on_the_host(self, tmp_path,
                                                      monkeypatch, capsys):
        hashes = set()
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)))
            assert run_cli("whiten", "--descriptors",
                           str(tmp_path / "missing.macd"), "--kind", "pcaw",
                           "--out", str(tmp_path / "p.mfpw")) == EXIT_IO
            err = capsys.readouterr().err
            assert "threads=0" in err
            hashes.update(line for line in err.splitlines()
                          if line.startswith("config_hash="))
        assert len(hashes) == 1

    def test_defaults(self):
        cfg = self._resolve("synth", "--out", "x")
        assert cfg["clusters"] == 20
        assert cfg["base_lr"] == 0.001
        assert cfg["tau"] == 0.7
        assert cfg["momentum"] == 0.9
        assert cfg["weight_decay"] == 0.0005
        assert cfg["batch_tuples"] == 5
        assert cfg["negatives"] == 5
        assert cfg["max_epochs"] == 30
        assert cfg["lr_divisor"] == 5.0
        assert cfg["lr_period"] == 10
        assert cfg["max_image_side"] == 362
        assert cfg["positive_method"] == "m3"
        assert cfg["negative_variant"] == "N2"
        # every config dataclass field is a key carrying the field
        # default, with its type; a (lo, hi) range is two keys
        ranges = {"images_per_cluster": ("images_min", "images_max"),
                  "points_per_cluster": ("points_min", "points_max"),
                  "camera_orbit_radius": ("orbit_min", "orbit_max"),
                  "zoom_range": ("zoom_min", "zoom_max")}
        for cls in (SceneConfig, MiningConfig, TrainConfig, LossConfig):
            for field in dataclasses.fields(cls):
                want = field.default
                if field.name in ranges:
                    got = tuple(cfg[key] for key in ranges[field.name])
                else:
                    got, want = (cfg[field.name],), (want,)
                assert got == want, field.name
                assert list(map(type, got)) == list(map(type, want))
        assert len(cfg) == 39

    def test_set_overrides_default(self):
        cfg = self._resolve("synth", "--out", "x", "--set", "clusters=7")
        assert cfg["clusters"] == 7

    def test_file_overrides_default_flag_overrides_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\nclusters = 9\nseed=4\n")
        cfg = self._resolve("synth", "--out", "x", "--config", str(conf))
        assert cfg["clusters"] == 9
        assert cfg["seed"] == 4
        cfg = self._resolve("synth", "--out", "x", "--config", str(conf),
                            "--seed", "11", "--set", "clusters=2")
        assert cfg["seed"] == 11
        assert cfg["clusters"] == 2

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            self._resolve("synth", "--out", "x", "--set", "nonsense=1")
        conf = tmp_path / "bad.conf"
        conf.write_text("nonsense=1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(conf))

    @pytest.mark.parametrize("setting", [
        "positive_method=m4", "negative_variant=N3", "loss=hinge",
        "whiten_kind=zca", "mode=Crop"])
    def test_unknown_choice_rejected(self, setting, tmp_path):
        key, _, value = setting.partition("=")
        with pytest.raises(ConfigError, match=key):
            self._resolve("synth", "--out", "x", "--set", setting)
        conf = tmp_path / "run.conf"
        conf.write_text(setting + "\n")
        with pytest.raises(ConfigError, match=repr(value)):
            self._resolve("synth", "--out", "x", "--config", str(conf))

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError):
            self._resolve("synth", "--out", "x", "--set", "clusters=many")

    def test_malformed_line_rejected(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("clusters\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(conf))

    def test_config_flags_are_the_dedicated_keys(self):
        assert {key for _, _, key in config_flags()} == {
            "seed", "threads", "loss", "mode", "positive_method",
            "negative_variant", "whiten_kind", "dim"}

    @pytest.mark.parametrize("command,option,key", config_flags(),
                             ids=str)
    def test_config_flag_lands_in_cfg(self, command, option, key):
        if key in CHOICES:
            value = next(c for c in reversed(CHOICES[key])
                         if c != DEFAULTS[key])
        else:
            value = DEFAULTS[key] + 3
        cfg = self._resolve(command, option, str(value))
        assert cfg[key] == value

    @pytest.mark.parametrize("command, flag", [
        ("embed", "--seed"), ("whiten", "--seed"), ("eval", "--seed"),
        ("mine", "--threads"), ("whiten", "--threads")])
    def test_flag_of_a_key_the_stage_ignores_is_usage_error(
            self, command, flag, capsys):
        # --seed only where the stage is seeded (synth, mine, train),
        # --threads only where it maps over workers (synth, embed, train,
        # eval)
        with pytest.raises(SystemExit) as exc:
            run_cli(command, flag, "2")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_rmac_flag_sets_three_scales(self):
        parser = build_parser()
        args = parser.parse_args(["embed", "--rmac", "--checkpoint", "c",
                                  "--images", "i", "--out", "o"])
        assert resolve_config(args)["rmac_scales"] == 3
        args = parser.parse_args(["embed", "--rmac", "--set",
                                  "rmac_scales=2", "--checkpoint", "c",
                                  "--images", "i", "--out", "o"])
        assert resolve_config(args)["rmac_scales"] == 2

    def test_config_echoed_with_hash(self, tmp_path, capsys):
        # the config is echoed before the stage runs; an output path
        # under a regular file then fails at once, also for root
        blocker = tmp_path / "file"
        blocker.write_text("")
        # the resolved defaults are pinned by their hash; threads is set
        # because 0 resolves to the host's core count
        assert run_cli("synth", "--out", str(blocker / "x"),
                       "--threads", "1") == EXIT_IO
        err = capsys.readouterr().err
        assert "clusters=20" in err
        assert "config_hash=" in err
        assert "config_hash=66636487737aa73b" in err
        assert run_cli("embed", "--checkpoint", str(tmp_path / "a"),
                       "--images", str(tmp_path / "b"),
                       "--out", str(tmp_path / "c"), "--rmac",
                       "--threads", "1") == EXIT_IO
        assert "config_hash=762cde8c0105537b" in capsys.readouterr().err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    data = str(root / "data")
    run = str(root / "run")
    code = run_cli("synth", "--out", data, "--seed", "44", *SCENE_ARGS)
    assert code == EXIT_OK
    code = run_cli("train", "--scenes", f"{data}/scenes",
                   "--images", f"{data}/images", "--out", run,
                   "--seed", "44", *SMALL_ARGS)
    assert code == EXIT_OK
    code = run_cli("embed", "--checkpoint", f"{run}/init.mfck",
                   "--images", f"{data}/images", "--out", f"{run}/db.macd",
                   "--set", "max_image_side=32")
    assert code == EXIT_OK
    return root


class TestPackageImports:

    def test_module_import_loads_only_its_dependencies(self):
        code = ("import macforge.numeric, sys; print(' '.join(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'macforge')))")
        child = subprocess.run([sys.executable, "-c", code], env=child_env(),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["macforge", "macforge.numeric"]
        # the package namespace is empty, yet the entry point still runs
        child = subprocess.run([sys.executable, "-m", "macforge", "--help"],
                               env=child_env(), capture_output=True,
                               text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert "usage:" in child.stdout


class TestPipelineSmoke:

    def test_synth_layout(self, workspace):
        data = workspace / "data"
        assert (data / "ground_truth.json").exists()
        scenes = sorted(os.listdir(data / "scenes"))
        assert scenes == [f"c{k:02d}.json" for k in range(4)]

    def test_train_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "init.mfck").exists()
        assert (run / "best.mfck").exists()
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == "# loss=contrastive"

    def test_embed_mine_whiten_eval(self, workspace, capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        db = f"{run}/db.macd"
        assert run_cli("embed", "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--out", db,
                       "--set", "max_image_side=32") == EXIT_OK
        out = capsys.readouterr().out
        assert "descriptors=" in out

        tuples = f"{run}/tuples.jsonl"
        assert run_cli("mine", "--scenes", f"{data}/scenes",
                       "--descriptors", db, "--out", tuples,
                       "--seed", "44", "--set", "negatives=2",
                       "--set", "pool_size=10") == EXIT_OK

        # few tuples at K=32 leave the matching scatter rank-deficient
        with pytest.warns(RuntimeWarning):
            assert run_cli("whiten", "--descriptors", db,
                           "--tuples", tuples, "--kind", "lw",
                           "--out", f"{run}/lw.mfpw") == EXIT_OK
        assert run_cli("whiten", "--descriptors", db, "--kind", "pcaw",
                       "--out", f"{run}/pca.mfpw") == EXIT_OK
        capsys.readouterr()

        csv = f"{run}/eval.csv"
        assert run_cli("eval", "--db", db,
                       "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images",
                       "--gt", f"{data}/ground_truth.json",
                       "--mode", "Full", "--out", csv,
                       "--set", "max_image_side=32") == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1].startswith("mAP,")
        with open(csv) as f:
            body = f.read()
        assert body.startswith("query_id,ap\n")
        # printed rows and written file carry the same numbers
        assert out.strip().splitlines()[-1] in body

    def test_crop_modes_match_full_on_full_bboxes(self, workspace, capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        db = f"{run}/db.macd"
        lines = {}
        for mode in ("Full", "Crop_I", "Crop_X"):
            assert run_cli("eval", "--db", db,
                           "--checkpoint", f"{run}/init.mfck",
                           "--images", f"{data}/images",
                           "--gt", f"{data}/ground_truth.json",
                           "--mode", mode,
                           "--set", "max_image_side=32") == EXIT_OK
            lines[mode] = capsys.readouterr().out.strip().splitlines()
        assert lines["Full"] == lines["Crop_I"] == lines["Crop_X"]

    def test_triplet_loss_noted_in_metrics(self, workspace, tmp_path):
        data = str(workspace / "data")
        out = str(tmp_path / "triplet")
        assert run_cli("train", "--scenes", f"{data}/scenes",
                       "--images", f"{data}/images", "--out", out,
                       "--seed", "44", "--loss", "triplet",
                       *SMALL_ARGS) == EXIT_OK
        header = open(f"{out}/metrics.csv").read().splitlines()[0]
        assert header == "# loss=triplet"


class TestReproducibility:

    def test_synth_same_seed_identical_hashes(self, workspace,
                                              tmp_path, capsys):
        again = str(tmp_path / "again")
        assert run_cli("synth", "--out", again, "--seed", "44",
                       *SCENE_ARGS) == EXIT_OK
        capsys.readouterr()
        base = workspace / "data"
        for rel in ("ground_truth.json", "scenes/c00.json",
                    "images/c00/i000.ppm", "images/c03/i002.ppm"):
            assert file_sha(str(base / rel)) == file_sha(f"{again}/{rel}")

    def test_embed_threads_do_not_change_bytes(self, workspace,
                                               tmp_path, capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        out = str(tmp_path / "t4.macd")
        assert run_cli("embed", "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--out", out,
                       "--threads", "4",
                       "--set", "max_image_side=32") == EXIT_OK
        capsys.readouterr()
        assert file_sha(out) == file_sha(f"{run}/db.macd")

    @pytest.mark.parametrize("mode", ["Full", "Crop_I", "Crop_X"])
    def test_eval_threads_do_not_change_bytes(self, workspace, tmp_path,
                                              capsys, mode):
        data, run = str(workspace / "data"), str(workspace / "run")
        csvs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.csv"
            assert run_cli("eval", "--db", f"{run}/db.macd",
                           "--checkpoint", f"{run}/init.mfck",
                           "--images", f"{data}/images",
                           "--gt", f"{data}/ground_truth.json",
                           "--mode", mode, "--threads", threads,
                           "--out", str(out),
                           "--set", "max_image_side=32") == EXIT_OK
            assert f"threads={threads}" in capsys.readouterr().err
            csvs[threads] = out.read_bytes()
        assert csvs["1"] == csvs["2"]
        assert multiprocessing.active_children() == []

    def test_train_threads_do_not_change_bytes(self, workspace, tmp_path,
                                               capsys):
        data = str(workspace / "data")
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert run_cli("train", "--scenes", f"{data}/scenes",
                           "--images", f"{data}/images", "--out", str(out),
                           "--seed", "44", "--threads", threads,
                           *SMALL_ARGS, "--set", "max_epochs=2") == EXIT_OK
            assert f"threads={threads}" in capsys.readouterr().err
            runs[threads] = {name: file_sha(str(out / name)) for name in
                             ("init.mfck", "best.mfck", "metrics.csv")}
        assert runs["1"] == runs["2"]
        assert multiprocessing.active_children() == []


def scenes_with(workspace, tmp_path, edit):
    """A copy of the workspace scenes with c01.json passed through edit,
    a function of the parsed document."""
    scenes = tmp_path / "scenes"
    shutil.copytree(workspace / "data" / "scenes", scenes)
    path = scenes / "c01.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(scenes)


def rename_first_image(doc):
    """c01/i000 becomes c00/i000, an id c00.json also holds."""
    for rec in doc["images"]:
        if rec["id"] == "c01/i000":
            rec["id"] = "c00/i000"
    doc["edges"] = [["c00/i000" if img == "c01/i000" else img, pid]
                    for img, pid in doc["edges"]]


def rename_cluster(doc):
    doc["cluster_id"] = "c00"


class TestExitCodes:

    def test_zero_clusters_is_config_error(self, tmp_path, capsys):
        code = run_cli("synth", "--out", str(tmp_path / "x"),
                       "--set", "clusters=0")
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.mfck")
        code = run_cli("embed", "--checkpoint", missing,
                       "--images", str(tmp_path), "--out",
                       str(tmp_path / "o.macd"))
        assert code == EXIT_IO
        assert "absent.mfck" in capsys.readouterr().err

    def test_missing_required_flag_is_config_error(self, capsys):
        assert run_cli("embed", "--images", "x", "--out", "y") == EXIT_CONFIG
        assert "--checkpoint" in capsys.readouterr().err

    def test_malformed_descriptor_file_is_data_error(self, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.macd"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        code = run_cli("whiten", "--descriptors", str(bad), "--kind",
                       "pcaw", "--out", str(tmp_path / "p.mfpw"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_non_finite_pixel_in_a_render_worker_is_data_error(
            self, tmp_path, monkeypatch, capsys):
        # the last image lies in the forked worker's chunk; the
        # FormatError its write_ppm raises there reaches main
        from macforge import pipeline
        render = pipeline.render

        def nan_on_last(graph, image_id, size):
            image = render(graph, image_id, size=size)
            return image * np.nan if image_id == "c03/i003" else image

        monkeypatch.setattr(pipeline, "render", nan_on_last)
        out = tmp_path / "data"
        code = run_cli("synth", "--out", str(out), "--threads", "2",
                       *SCENE_ARGS, "--set", "images_max=4")
        assert code == EXIT_DATA == 4
        err = capsys.readouterr().err
        assert "non-finite values in PPM image" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not (out / "images" / "c03" / "i003.ppm").exists()
        assert (out / "images" / "c03" / "i002.ppm").exists()

    def test_non_finite_descriptors_fail_embed_before_any_write(
            self, workspace, tmp_path, capsys):
        # weights scaled by 1e18 are finite, but the activations they
        # give overflow float32, so every descriptor is NaN
        spec, params, meta = load_checkpoint(
            workspace / "run" / "init.mfck")
        big = str(tmp_path / "big.mfck")
        save_checkpoint(big, spec, NetParams(
            [w * 1e18 for w in params.weights], params.biases), meta)
        out = tmp_path / "o.macd"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("embed", "--checkpoint", big,
                           "--images", str(workspace / "data" / "images"),
                           "--out", str(out), "--set", "max_image_side=32")
        assert code == EXIT_DATA == 4
        err = capsys.readouterr().err
        assert "non-finite values in descriptor 'c00/i000'" in err
        assert not out.exists()

    def test_image_too_small_in_an_embed_worker_is_data_error(
            self, workspace, tmp_path, capsys):
        # the last sorted image lies in the forked worker's chunk; the
        # ShapeError its forward raises there reaches main
        images = tmp_path / "images"
        shutil.copytree(workspace / "data" / "images", images)
        write_ppm(images / "zz.ppm", np.zeros((3, 4, 4)))
        out = tmp_path / "o.macd"
        code = run_cli("embed", "--checkpoint",
                       str(workspace / "run" / "init.mfck"),
                       "--images", str(images), "--out", str(out),
                       "--threads", "2", "--set", "max_image_side=32")
        assert code == EXIT_DATA == 4
        err = capsys.readouterr().err
        assert "maxpool window 2 exceeds input" in err
        assert "Traceback" not in err
        assert multiprocessing.active_children() == []
        assert not out.exists()

    def test_sidecar_that_is_not_an_object_is_data_error(
            self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "c.mfck"
        ckpt.write_bytes((workspace / "run" / "init.mfck").read_bytes())
        (tmp_path / "c.mfck.json").write_text("[1, 2]")
        code = run_cli("embed", "--checkpoint", str(ckpt),
                       "--images", str(workspace / "data" / "images"),
                       "--out", str(tmp_path / "o.macd"))
        assert code == EXIT_DATA
        assert "must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o.macd").exists()

    def test_divergence_on_the_last_step_is_config_error(self, tmp_path,
                                                          capsys):
        # one epoch at base_lr=1e30: the last SGD step leaves every
        # descriptor NaN and no batch loss follows it, so validation is
        # the one place to notice; NaN similarities rank by image id
        data, run = tmp_path / "data", tmp_path / "run"
        assert run_cli("synth", "--seed", "1", "--out", str(data),
                       "--set", "clusters=4", "--set", "image_size=32",
                       "--set", "images_min=8", "--set", "images_max=8",
                       "--set", "points_min=60",
                       "--set", "points_max=60") == EXIT_OK
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--seed", "1",
                           "--scenes", str(data / "scenes"),
                           "--images", str(data / "images"),
                           "--out", str(run), "--set", "max_epochs=1",
                           "--set", "base_lr=1e30", "--set", "negatives=2",
                           "--set", "max_image_side=32")
        assert code == EXIT_CONFIG
        assert ("error: non-finite validation descriptor at epoch 0"
                in capsys.readouterr().err)
        assert not (run / "best.mfck").exists()

    def test_projection_checkpoint_dim_mismatch(self, workspace,
                                                tmp_path, capsys):
        # a projection fitted on 16-dim vectors cannot pair with the
        # 32-dim backbone
        from macforge.numeric import SeededStream
        from macforge.whitening import fit_pcaw, save_projection
        stream = SeededStream(0)
        model = fit_pcaw([stream.normal(size=16) for _ in range(100)])
        proj = str(tmp_path / "p16.mfpw")
        save_projection(proj, model)
        data, run = str(workspace / "data"), str(workspace / "run")
        code = run_cli("embed", "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images",
                       "--out", str(tmp_path / "o.macd"),
                       "--projection", proj)
        assert code == EXIT_DATA
        assert "does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "eval"])
    def test_dim_without_projection_is_config_error(self, workspace,
                                                    tmp_path, command,
                                                    capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        db = str(tmp_path / "db.macd")
        save_descriptors(db, {"c00/i001": np.ones(32)})
        args = {"embed": ["--out", db],
                "eval": ["--db", db, "--gt", f"{data}/ground_truth.json",
                         "--out", str(tmp_path / "eval.csv")]}[command]
        before = file_sha(db)
        code = run_cli(command, "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--dim", "8", *args)
        assert code == EXIT_CONFIG
        assert "needs a projection" in capsys.readouterr().err
        assert file_sha(db) == before
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("mode", ["Crop_I", "Crop_X"])
    @pytest.mark.parametrize("bbox", [[200, 200, 300, 300], [10, 10, 5, 5]])
    def test_query_bbox_outside_image_is_data_error(self, workspace, tmp_path,
                                                    mode, bbox, capsys):
        # the 32-px corpus cannot hold either box; the bad value comes
        # from the ground-truth file, so it is a data error in both modes
        data, run = str(workspace / "data"), str(workspace / "run")
        db = str(tmp_path / "db.macd")
        save_descriptors(db, {"c00/i001": np.ones(32)})
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps(
            {"c00/i000": {"relevant": ["c00/i001"], "bbox": bbox}}))
        out = tmp_path / "eval.csv"
        code = run_cli("eval", "--db", db, "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--gt", str(gt),
                       "--mode", mode, "--out", str(out),
                       "--set", "max_image_side=32")
        assert code == EXIT_DATA
        assert "bbox" in capsys.readouterr().err
        assert not out.exists()

    def test_boolean_bbox_coordinate_is_data_error(self, workspace,
                                                   tmp_path, capsys):
        # JSON true loads as a Python int subclass; taken as x0 it would
        # silently crop from pixel 1
        data, run = str(workspace / "data"), str(workspace / "run")
        db = str(tmp_path / "db.macd")
        save_descriptors(db, {"c00/i001": np.ones(32)})
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({"c00/i000": {
            "relevant": ["c00/i001"], "bbox": [True, 0, 10, 10]}}))
        out = tmp_path / "eval.csv"
        code = run_cli("eval", "--db", db, "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--gt", str(gt),
                       "--mode", "Crop_I", "--out", str(out),
                       "--set", "max_image_side=32")
        assert code == EXIT_DATA == 4
        assert "bbox" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_descriptor_is_data_error(self, tmp_path, capsys):
        db = nan_descriptor_db(tmp_path / "nan.macd")
        code = run_cli("whiten", "--descriptors", db, "--kind", "pcaw",
                       "--out", str(tmp_path / "p.mfpw"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "'b'" in err and "non-finite" in err

    def test_non_finite_descriptor_exits_4_without_traceback(self,
                                                              tmp_path):
        # run_cli calls main() in-process, where a traceback could never
        # reach stderr; a child interpreter shows what a user would see
        db = nan_descriptor_db(tmp_path / "nan.macd")
        child = subprocess.run(
            [sys.executable, "-m", "macforge", "whiten", "--descriptors", db,
             "--kind", "pcaw", "--out", str(tmp_path / "p.mfpw")],
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert child.returncode == EXIT_DATA == 4
        assert "error:" in child.stderr
        assert "Traceback" not in child.stderr

    def test_non_finite_scene_is_data_error(self, workspace, tmp_path,
                                            capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        path = scenes / "c00.json"
        with open(workspace / "data" / "scenes" / "c00.json") as f:
            doc = json.load(f)
        doc["images"][0]["camera"]["rotation"][4] = float("nan")
        path.write_text(json.dumps(doc))
        code = run_cli("mine", "--scenes", str(scenes),
                       "--descriptors", str(tmp_path / "d.macd"),
                       "--out", str(tmp_path / "t.mftp"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("where, value, field", [
        ("xyz", [True, 0, 0], "xyz of point"),
        ("xyz", ["0.5", "0", "0"], "xyz of point"),
        ("focal", True, "focal of image"),
        ("focal", "100", "focal of image"),
        ("center", "0 0 0", "center of image"),
        ("center", ["0", "0", "0"], "center of image"),
        ("xyz", [10 ** 400, 0, 0], "too large to convert")],
        ids=["xyz-bool", "xyz-strings", "focal-bool", "focal-string",
             "center-string", "center-strings", "xyz-huge-int"])
    def test_non_number_scene_field_is_data_error(self, workspace, tmp_path,
                                                  where, value, field,
                                                  capsys):
        # float() and np.array(dtype=float64) take bools and numeric
        # strings, so such a scene would load as if it held numbers; an
        # integer beyond float64 raises OverflowError, not ValueError
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        with open(workspace / "data" / "scenes" / "c00.json") as f:
            doc = json.load(f)
        if where == "xyz":
            doc["points"][0]["xyz"] = value
        else:
            doc["images"][0]["camera"][where] = value
        (scenes / "c00.json").write_text(json.dumps(doc))
        code = run_cli("mine", "--scenes", str(scenes),
                       "--descriptors", str(tmp_path / "d.macd"),
                       "--out", str(tmp_path / "t.mftp"))
        assert code == EXIT_DATA == 4
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_corrupt_checkpoint_sidecar_is_data_error(self, workspace,
                                                      tmp_path, capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        ckpt = tmp_path / "c.mfck"
        with open(f"{run}/init.mfck", "rb") as f:
            ckpt.write_bytes(f.read())
        sidecar = tmp_path / "c.mfck.json"
        sidecar.write_text('{"seed": 4')
        code = run_cli("embed", "--checkpoint", str(ckpt),
                       "--images", f"{data}/images",
                       "--out", str(tmp_path / "o.macd"))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(sidecar) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting", ["rmac_scales=-1", "dim=-3"])
    def test_negative_extraction_setting_is_config_error(self, setting,
                                                          tmp_path, capsys):
        code = run_cli("embed", "--checkpoint", str(tmp_path / "c.mfck"),
                       "--images", str(tmp_path),
                       "--out", str(tmp_path / "o.macd"), "--set", setting)
        assert code == EXIT_CONFIG
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "candidate_negatives_per_cluster=-1", "freeze_conv_layers=-1",
        "weight_decay=-0.0005", "momentum=1.0"])
    def test_out_of_range_training_setting_is_config_error(
            self, setting, tmp_path, capsys):
        code = run_cli("train", "--scenes", str(tmp_path),
                       "--images", str(tmp_path),
                       "--out", str(tmp_path / "run"), "--set", setting)
        assert code == EXIT_CONFIG
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_loss_rejected_before_training(self, workspace,
                                                   tmp_path, capsys):
        data = str(workspace / "data")
        run = tmp_path / "run"
        code = run_cli("train", "--scenes", f"{data}/scenes",
                       "--images", f"{data}/images", "--out", str(run),
                       *SMALL_ARGS, "--set", "loss=hinge")
        assert code == EXIT_CONFIG
        assert "hinge" in capsys.readouterr().err
        assert not (run / "init.mfck").exists()

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2
        capsys.readouterr()

    def test_lw_without_tuples_is_config_error(self, workspace, capsys):
        run = str(workspace / "run")
        code = run_cli("whiten", "--descriptors", f"{run}/db.macd",
                       "--kind", "lw", "--out", "/tmp/never.mfpw")
        assert code == EXIT_CONFIG
        assert "--tuples" in capsys.readouterr().err

    def test_bad_gt_json_is_data_error(self, workspace, tmp_path, capsys):
        data, run = str(workspace / "data"), str(workspace / "run")
        bad = tmp_path / "gt.json"
        bad.write_text(json.dumps({"q": {"relevant": "notalist"}}))
        code = run_cli("eval", "--db", f"{run}/db.macd",
                       "--checkpoint", f"{run}/init.mfck",
                       "--images", f"{data}/images", "--gt", str(bad),
                       "--mode", "Full")
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err

    def test_mine_descriptors_missing_scene_image_is_data_error(
            self, workspace, tmp_path, capsys):
        db = str(tmp_path / "one.macd")
        save_descriptors(db, {"c00/i001": np.array([1.0, 0.0])})
        code = run_cli("mine", "--scenes", str(workspace / "data" / "scenes"),
                       "--descriptors", db, "--out", str(tmp_path / "t.mftp"))
        assert code == EXIT_DATA
        assert "'c00/i000' has no descriptor" in capsys.readouterr().err

    def test_dim_zero_descriptor_db_is_data_error(self, workspace, tmp_path,
                                                   capsys):
        # ranked on empty vectors, every negative was the lowest id of
        # its cluster
        scenes = workspace / "data" / "scenes"
        db = str(tmp_path / "empty.macd")
        # save_descriptors refuses empty vectors, so the bytes are
        # written here: header, then each record's id and no values
        ids = sorted(i for g in load_scenes_dir(str(scenes))
                     for i in g.images)
        with open(db, "wb") as f:
            f.write(struct.pack("<4sIQI", b"MACD", 1, len(ids), 0))
            for i in ids:
                f.write(struct.pack("<I", len(i.encode())) + i.encode())
        out = tmp_path / "t.mftp"
        code = run_cli("mine", "--scenes", str(scenes), "--descriptors", db,
                       "--out", str(out), "--set", "negatives=2")
        assert code == EXIT_DATA
        assert "dim 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (rename_first_image, "image 'c00/i000' is in clusters 'c00' "
                             "and 'c01'"),
        (rename_cluster, "cluster id 'c00' names two clusters")],
        ids=["image", "cluster"])
    def test_id_in_two_scene_files_is_data_error_in_mine(
            self, workspace, tmp_path, edit, message, capsys):
        scenes = scenes_with(workspace, tmp_path, edit)
        out = tmp_path / "t.mftp"
        code = run_cli("mine", "--scenes", scenes,
                       "--descriptors", str(workspace / "run" / "db.macd"),
                       "--out", str(out), "--set", "negatives=2",
                       "--set", "mine_all_queries=true")
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_image_in_two_scene_files_fails_train_before_any_write(
            self, workspace, tmp_path, capsys):
        scenes = scenes_with(workspace, tmp_path, rename_first_image)
        run = tmp_path / "run"
        code = run_cli("train", "--scenes", scenes,
                       "--images", str(workspace / "data" / "images"),
                       "--out", str(run), *SMALL_ARGS)
        assert code == EXIT_DATA
        assert "'c00/i000' is in clusters" in capsys.readouterr().err
        assert not run.exists()

    def test_diverged_train_is_config_error(self, workspace, tmp_path,
                                            capsys):
        data = workspace / "data"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--scenes", str(data / "scenes"),
                           "--images", str(data / "images"),
                           "--out", str(tmp_path / "run"), *SMALL_ARGS,
                           "--set", "base_lr=1e30", "--set", "max_epochs=2")
        assert code == EXIT_CONFIG
        assert "error: non-finite loss at epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["scene", "ground truth", "tuple"])
    def test_invalid_utf8_is_data_error(self, workspace, tmp_path, loader,
                                        capsys):
        data, run = workspace / "data", workspace / "run"
        bad = tmp_path / "bad"
        bad.mkdir()
        if loader == "scene":
            (bad / "c00.json").write_bytes(b"\xff\xfe{}")
            argv = ["mine", "--scenes", str(bad),
                    "--descriptors", str(run / "db.macd"),
                    "--out", str(tmp_path / "t.mftp")]
        elif loader == "ground truth":
            (bad / "gt.json").write_bytes(b"\xff\xfe{}")
            argv = ["eval", "--db", str(run / "db.macd"),
                    "--checkpoint", str(run / "init.mfck"),
                    "--images", str(data / "images"),
                    "--gt", str(bad / "gt.json"), "--mode", "Full"]
        else:
            (bad / "t.mftp").write_bytes(
                b'{"q": "c00/i000", "m": "c00/i001", '
                b'"negatives": ["c01/\xff"]}\n')
            argv = ["whiten", "--descriptors", str(run / "db.macd"),
                    "--tuples", str(bad / "t.mftp"), "--kind", "lw",
                    "--out", str(tmp_path / "p.mfpw")]
        code = run_cli(*argv)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: {loader}" in err and "is not valid UTF-8" in err

    def test_lw_tuple_id_missing_from_descriptors_is_data_error(
            self, tmp_path, capsys):
        db = str(tmp_path / "two.macd")
        save_descriptors(db, {"a": np.array([1.0, 0.0]),
                              "b": np.array([0.0, 1.0])})
        tuples = str(tmp_path / "t.mftp")
        save_tuples(tuples, [TrainingTuple("a", "b", ("zz",))])
        code = run_cli("whiten", "--descriptors", db, "--tuples", tuples,
                       "--kind", "lw", "--out", str(tmp_path / "p.mfpw"))
        assert code == EXIT_DATA
        assert "'zz' has no descriptor" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        '{"q": "a", "m": "b", "negatives": "b/2"}',
        '{"q": 7, "m": "b", "negatives": ["a"]}'])
    def test_lw_malformed_tuple_line_is_data_error(self, tmp_path, bad,
                                                   capsys):
        # a string of negatives must not load as its characters, nor a
        # number as an id that only fails later by its value
        db = str(tmp_path / "two.macd")
        save_descriptors(db, {"a": np.array([1.0, 0.0]),
                              "b": np.array([0.0, 1.0])})
        tuples = tmp_path / "t.mftp"
        tuples.write_text('{"q": "a", "m": "b", "negatives": ["a"]}\n'
                          + bad + "\n")
        out = tmp_path / "p.mfpw"
        code = run_cli("whiten", "--descriptors", db, "--tuples", str(tuples),
                       "--kind", "lw", "--out", str(out))
        assert code == EXIT_DATA == 4
        assert "bad tuple on line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_train_scene_image_without_ppm_is_io_error(self, workspace,
                                                       tmp_path, capsys):
        images = tmp_path / "images"
        shutil.copytree(workspace / "data" / "images", images)
        missing = images / "c01" / "i002.ppm"
        missing.unlink()
        code = run_cli("train", "--scenes", str(workspace / "data" / "scenes"),
                       "--images", str(images), "--out", str(tmp_path / "run"),
                       *SMALL_ARGS)
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert "'c01/i002'" in err and str(missing) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("freeze", [3, 4])
    def test_freezing_every_conv_is_config_error(self, workspace, tmp_path,
                                                 freeze, capsys):
        # sgd_step_net would leave every layer untouched and best.mfck
        # would hold the initial weights
        data = str(workspace / "data")
        run = tmp_path / "run"
        code = run_cli("train", "--scenes", f"{data}/scenes",
                       "--images", f"{data}/images", "--out", str(run),
                       *SMALL_ARGS, "--set", f"freeze_conv_layers={freeze}")
        assert code == EXIT_CONFIG
        assert "freezes every conv layer: the network has 3" in \
            capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("which", ["ppm", "mfck"])
    def test_size_beyond_any_index_is_data_error(self, workspace, tmp_path,
                                                 which, capsys):
        # a declared size too large for an index made f.read raise
        # OverflowError; it is checked against the bytes left first
        data, run = str(workspace / "data"), str(workspace / "run")
        images, ckpt = f"{data}/images", f"{run}/init.mfck"
        if which == "ppm":
            images = tmp_path / "images"
            images.mkdir()
            (images / "a.ppm").write_bytes(
                b"P6\n99999999999 99999999999\n255\n")
        else:
            ckpt = tmp_path / "huge.mfck"
            big = 2 ** 32 - 1
            # one conv layer: in, out, kernel, stride, pad; no weights
            ckpt.write_bytes(struct.pack("<4sIIB5I", b"MFCK", 1, 1, 0,
                                         3, big, big, 1, 0))
        out = tmp_path / "o.macd"
        code = run_cli("embed", "--checkpoint", str(ckpt),
                       "--images", str(images), "--out", str(out))
        assert code == EXIT_DATA == 4
        err = capsys.readouterr().err
        assert "truncated file" in err and "left" in err
        assert not out.exists()
