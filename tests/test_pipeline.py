"""Tests for the pipeline layer: the Extractor pooling paths, embedding
and rendering over worker processes, cluster splits, benchmark ground
truth, and the stage functions chained over a small synthetic
dataset."""

import hashlib
import multiprocessing
import os
from functools import partial
from multiprocessing.context import ForkProcess

import numpy as np
import numpy.testing as npt
import pytest

from macforge.backbone import forward, init_params, load_checkpoint, tiny_spec
from macforge.descriptor import (
    BBox,
    crop_activations,
    l2n,
    load_descriptors,
    mac,
    receptive_geometry,
    rmac,
    rmac_regions,
)
from macforge.images import resize_max_side
from macforge.mining import MiningConfig, load_tuples
from macforge.numeric import DimensionError, SeededStream
from macforge import pipeline
from macforge.pipeline import (
    Extractor,
    benchmark_ground_truth,
    embed_images,
    image_path,
    load_images_dir,
    load_scenes_dir,
    prepare_training,
    render_images,
    split_clusters,
    stage_embed,
    stage_mine,
    stage_synth,
    stage_train,
    stage_whiten,
)
from macforge.retrieval import load_ground_truth
from macforge.synthscene import SceneConfig, generate, render
from macforge.training import (
    LossConfig,
    TrainConfig,
    TrainingDivergedError,
    embed_image,
    validate,
)
from macforge.whitening import (
    KIND_LW,
    KIND_PCAW,
    apply_projection,
    load_projection,
)
from testkit import random_lw, random_pcaw


def make_net(seed=0):
    spec = tiny_spec()
    params = init_params(spec, SeededStream(seed))
    return spec, params


def random_image(stream, size=48):
    return stream.random((3, size, size)).astype(np.float32)


class TestExtractorMac:

    def test_matches_manual_mac(self):
        spec, params = make_net(1)
        image = random_image(SeededStream(2))
        out, _ = forward(params, spec, image)
        expected = l2n(mac(out))
        got = Extractor(spec, params).extract(image)
        npt.assert_allclose(got, expected, rtol=0, atol=0)

    def test_projection_applied_after_pooling(self):
        spec, params = make_net(3)
        image = random_image(SeededStream(4))
        model = random_lw(SeededStream(5))
        out, _ = forward(params, spec, image)
        expected = apply_projection(model, l2n(mac(out)), 16)
        got = Extractor(spec, params, projection=model,
                        out_dim=16).extract(image)
        npt.assert_allclose(got, expected, rtol=0, atol=0)
        assert got.shape == (16,)

    def test_unit_norm(self):
        spec, params = make_net(6)
        image = random_image(SeededStream(7))
        f = Extractor(spec, params).extract(image)
        npt.assert_allclose(np.linalg.norm(f), 1.0, rtol=1e-6)

    def test_agrees_with_training_embedding(self):
        spec, params = make_net(8)
        image = random_image(SeededStream(9))
        npt.assert_allclose(Extractor(spec, params).extract(image),
                            embed_image(params, spec, image),
                            rtol=0, atol=0)


class TestExtractorRmac:

    def test_matches_manual_rmac(self):
        spec, params = make_net(10)
        image = random_image(SeededStream(11))
        out, _ = forward(params, spec, image)
        grid = rmac_regions(out.shape[2], out.shape[1], 3)
        expected = rmac(out, grid)
        got = Extractor(spec, params, rmac_scales=3).extract(image)
        npt.assert_allclose(got, expected, rtol=0, atol=0)

    def test_pcaw_applied_per_region(self):
        spec, params = make_net(12)
        image = random_image(SeededStream(13))
        model = random_pcaw(SeededStream(14))
        out, _ = forward(params, spec, image)
        grid = rmac_regions(out.shape[2], out.shape[1], 2)
        expected = rmac(out, grid, region_transform=partial(
            apply_projection, model, d=16))
        got = Extractor(spec, params, rmac_scales=2, projection=model,
                        out_dim=16).extract(image)
        npt.assert_allclose(got, expected, rtol=0, atol=0)
        assert got.shape == (16,)

    def test_lw_applied_after_aggregation(self):
        spec, params = make_net(15)
        image = random_image(SeededStream(16))
        model = random_lw(SeededStream(17))
        out, _ = forward(params, spec, image)
        grid = rmac_regions(out.shape[2], out.shape[1], 2)
        expected = apply_projection(model, rmac(out, grid), 32)
        got = Extractor(spec, params, rmac_scales=2,
                        projection=model).extract(image)
        npt.assert_allclose(got, expected, rtol=0, atol=0)


class TestExtractorRegion:

    def test_full_bbox_equals_extract(self):
        spec, params = make_net(18)
        image = random_image(SeededStream(19))
        ex = Extractor(spec, params)
        full = ex.extract(image)
        crop = ex.extract_region(image, BBox(0, 0, 48, 48))
        npt.assert_allclose(crop, full, rtol=0, atol=0)

    def test_partial_bbox_matches_manual_crop(self):
        spec, params = make_net(20)
        image = random_image(SeededStream(21))
        ex = Extractor(spec, params)
        bbox = BBox(8, 0, 32, 24)
        out, _ = forward(params, spec, image)
        expected = l2n(mac(crop_activations(out, bbox,
                                            receptive_geometry(spec))))
        npt.assert_allclose(ex.extract_region(image, bbox), expected,
                            rtol=0, atol=0)

    def test_resize_rescales_bbox(self):
        spec, params = make_net(22)
        big = random_image(SeededStream(23), size=96)
        ex = Extractor(spec, params, max_side=48)
        full = ex.extract(big)
        crop = ex.extract_region(big, BBox(0, 0, 96, 96))
        npt.assert_allclose(crop, full, rtol=0, atol=0)

    def test_resize_matches_manual(self):
        spec, params = make_net(24)
        big = random_image(SeededStream(25), size=96)
        small = resize_max_side(big, 48)
        ex = Extractor(spec, params, max_side=48)
        npt.assert_allclose(ex.extract(big),
                            Extractor(spec, params).extract(small),
                            rtol=0, atol=0)


class TestExtractorTapeFree:
    """The Extractor forwards without a tape; forcing its forwards onto
    the taped path changes no byte of a MAC, R-MAC, Lw or PCAw
    descriptor, whole-image or cropped, resized or not."""

    CONFIGS = {
        "mac": lambda: {},
        "rmac": lambda: {"rmac_scales": 3},
        "mac-lw": lambda: {"projection": random_lw(SeededStream(42)),
                           "out_dim": 16},
        "rmac-lw": lambda: {"rmac_scales": 2,
                            "projection": random_lw(SeededStream(43))},
        "rmac-pcaw": lambda: {"rmac_scales": 3, "out_dim": 16,
                              "projection": random_pcaw(SeededStream(44))},
    }

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_matches_taped_forward(self, config, monkeypatch):
        spec, params = make_net(40)
        ex = Extractor(spec, params, max_side=48, **self.CONFIGS[config]())
        images = [random_image(SeededStream(41).derive(size), size=size)
                  for size in (48, 61)]
        bbox = BBox(5, 3, 40, 30)

        def descriptors():
            return [f for image in images
                    for f in (ex.extract(image),
                              ex.extract_region(image, bbox))]

        tape_free = descriptors()
        asked = []

        def taped(params, spec, image, *, tape=True):
            asked.append(tape)
            return forward(params, spec, image)

        monkeypatch.setattr(pipeline, "forward", taped)
        for got, want in zip(tape_free, descriptors(), strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert asked == [False] * 4


class TestExtractorValidation:

    def test_projection_dim_mismatch(self):
        spec, params = make_net(26)
        model = random_pcaw(SeededStream(27), dim=16)
        with pytest.raises(DimensionError):
            Extractor(spec, params, projection=model)

    def test_out_dim_out_of_range(self):
        spec, params = make_net(28)
        model = random_pcaw(SeededStream(29))
        for out_dim in (33, 0, -3):
            message = rf"out_dim {out_dim} out of range 1\.\.32"
            with pytest.raises(DimensionError, match=message):
                Extractor(spec, params, projection=model, out_dim=out_dim)

    def test_out_dim_without_projection(self):
        spec, params = make_net(28)
        with pytest.raises(ValueError, match="needs a projection"):
            Extractor(spec, params, out_dim=8)


class TestEmbedImages:

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_match_serial(self, workers):
        spec, params = make_net(30)
        stream = SeededStream(31)
        images = {f"i{k:02d}": random_image(stream, size=32)
                  for k in range(9)}
        ex = Extractor(spec, params)
        serial = {i: ex.extract(images[i]) for i in sorted(images)}
        mapped = embed_images(ex, images, workers)
        assert list(mapped) == sorted(images)
        for key in serial:
            assert mapped[key].tobytes() == serial[key].tobytes()
        assert multiprocessing.active_children() == []

    def test_insertion_order_sorted(self):
        spec, params = make_net(32)
        stream = SeededStream(33)
        images = {"b": random_image(stream, size=32),
                  "a": random_image(stream, size=32)}
        got = embed_images(Extractor(spec, params), images, 1)
        assert list(got) == ["a", "b"]


class FakeGraph:
    def __init__(self, cluster_id, images):
        self.cluster_id = cluster_id
        self.images = images


class TestSplitClusters:

    def test_zero_fraction_keeps_all(self):
        graphs = [FakeGraph(f"c{k}", {}) for k in range(4)]
        train, val = split_clusters(graphs, 0.0)
        assert [g.cluster_id for g in train] == ["c0", "c1", "c2", "c3"]
        assert val == []

    def test_last_sorted_clusters_held_out(self):
        graphs = [FakeGraph(c, {}) for c in ("c2", "c0", "c3", "c1", "c4")]
        train, val = split_clusters(graphs, 0.4)
        assert [g.cluster_id for g in train] == ["c0", "c1", "c2"]
        assert [g.cluster_id for g in val] == ["c3", "c4"]

    def test_small_fraction_rounds_up_to_one(self):
        graphs = [FakeGraph(f"c{k}", {}) for k in range(4)]
        train, val = split_clusters(graphs, 0.05)
        assert len(val) == 1
        assert val[0].cluster_id == "c3"

    def test_no_training_clusters_left(self):
        with pytest.raises(ValueError):
            split_clusters([FakeGraph("c0", {})], 0.9)

    def test_fraction_range_checked(self):
        graphs = [FakeGraph("c0", {}), FakeGraph("c1", {})]
        with pytest.raises(ValueError):
            split_clusters(graphs, -0.1)
        with pytest.raises(ValueError):
            split_clusters(graphs, 1.0)


class TestBenchmarkGroundTruth:

    def test_structure(self):
        graphs = [FakeGraph("c0", {"c0/a": None, "c0/b": None,
                                   "c0/c": None}),
                  FakeGraph("c1", {"c1/a": None, "c1/b": None})]
        gt = benchmark_ground_truth(graphs, image_size=32)
        assert sorted(gt) == ["c0/a", "c0/b", "c0/c", "c1/a", "c1/b"]
        entry = gt["c0/b"]
        assert entry.relevant == frozenset({"c0/a", "c0/c"})
        assert entry.ignored == frozenset({"c0/b"})
        assert entry.bbox == BBox(0, 0, 32, 32)

    def test_singleton_cluster_skipped(self):
        graphs = [FakeGraph("c0", {"c0/a": None}),
                  FakeGraph("c1", {"c1/a": None, "c1/b": None})]
        gt = benchmark_ground_truth(graphs)
        assert sorted(gt) == ["c1/a", "c1/b"]
        assert gt["c1/a"].bbox is None


class TestRenderImages:

    def test_render_images_matches_a_serial_render(self):
        graphs = generate(SMOKE_SCENE)
        expected = [(i, render(g, i, size=24))
                    for g in graphs for i in sorted(g.images)]
        images = render_images(graphs, 24)
        assert list(images) == [i for i, _ in expected]
        for image_id, image in expected:
            npt.assert_array_equal(images[image_id], image)
        assert multiprocessing.active_children() == []


SMOKE_SCENE = SceneConfig(clusters=4, images_per_cluster=(4, 5),
                          points_per_cluster=(30, 40), image_size=32,
                          seed=77)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    counts = stage_synth(SMOKE_SCENE, str(out))
    return out, counts


def tree_digests(root):
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()}


class TestStageSynth:

    def test_bytes_same_at_any_worker_count(self, synth_dir, tmp_path):
        # synth_dir ran at threads=0, one worker per CPU
        out, counts = synth_dir
        expected = tree_digests(out)
        assert len(expected) == counts[0] + counts[1] + 1
        for threads in (1, 2):
            again = tmp_path / f"t{threads}"
            assert stage_synth(SMOKE_SCENE, str(again),
                               threads=threads) == counts
            assert tree_digests(again) == expected
        assert multiprocessing.active_children() == []

    def test_one_makedirs_per_directory(self, tmp_path, monkeypatch):
        made = []
        real = os.makedirs

        def makedirs(path, *args, **kwargs):
            made.append(path)
            real(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", makedirs)
        clusters, _, _ = stage_synth(SMOKE_SCENE, str(tmp_path), threads=1)
        # scenes/, images/ and one image directory per cluster
        assert len(made) == len(set(made)) == 2 + clusters

    def test_counts_and_layout(self, synth_dir):
        out, (clusters, images, points) = synth_dir
        assert clusters == 4
        scene_files = sorted(os.listdir(out / "scenes"))
        assert scene_files == [f"c{k:02d}.json" for k in range(4)]
        ppms = sorted(str(p) for p in (out / "images").rglob("*.ppm"))
        assert len(ppms) == images
        assert 4 * 4 <= images <= 4 * 5

    def test_ground_truth_consistent(self, synth_dir):
        out, _ = synth_dir
        gt = load_ground_truth(str(out / "ground_truth.json"))
        graphs = load_scenes_dir(str(out / "scenes"))
        expected = benchmark_ground_truth(graphs, SMOKE_SCENE.image_size)
        assert gt == expected

    def test_images_reload_by_id(self, synth_dir):
        out, _ = synth_dir
        images = load_images_dir(str(out / "images"))
        graphs = load_scenes_dir(str(out / "scenes"))
        graph_ids = sorted(i for g in graphs for i in g.images)
        assert sorted(images) == graph_ids
        probe = graph_ids[0]
        assert os.path.exists(image_path(str(out / "images"), probe))

    def test_unusable_out_fails_before_generating(self, tmp_path,
                                                  monkeypatch):
        def never(cfg):
            pytest.fail("generate ran before the output directories")

        monkeypatch.setattr(pipeline, "generate", never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            stage_synth(SMOKE_SCENE, str(blocker / "out"))

    def test_scene_graphs_regenerate(self, synth_dir):
        out, _ = synth_dir
        loaded = load_scenes_dir(str(out / "scenes"))
        fresh = generate(SMOKE_SCENE)
        assert [g.cluster_id for g in loaded] == \
            [g.cluster_id for g in fresh]
        assert [sorted(g.images) for g in loaded] == \
            [sorted(g.images) for g in fresh]


@pytest.fixture(scope="module")
def embedded(synth_dir, tmp_path_factory):
    out, _ = synth_dir
    work = tmp_path_factory.mktemp("embed")
    ckpt = str(work / "net.mfck")
    spec, params = make_net(99)
    from macforge.backbone import save_checkpoint
    save_checkpoint(ckpt, spec, params)
    db_path = str(work / "db.macd")
    count = stage_embed(ckpt, str(out / "images"), db_path, threads=2)
    return ckpt, db_path, count


class TestStageEmbed:

    def test_count_and_dim(self, synth_dir, embedded):
        out, (_, images, _) = synth_dir
        _, db_path, count = embedded
        assert count == images
        db = load_descriptors(db_path)
        assert len(db) == images
        vec = next(iter(db.values()))
        assert vec.shape == (32,)
        assert vec.dtype == np.float32

    def test_rerun_byte_identical(self, synth_dir, embedded, tmp_path):
        out, _ = synth_dir
        ckpt, db_path, _ = embedded
        again = str(tmp_path / "again.macd")
        stage_embed(ckpt, str(out / "images"), again, threads=4)
        with open(db_path, "rb") as f1, open(again, "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("rmac_scales", [0, 3])
    def test_bytes_same_at_any_worker_count(self, synth_dir, embedded,
                                            tmp_path, rmac_scales):
        out, _ = synth_dir
        ckpt, _, _ = embedded
        digests = set()
        for threads in (1, 2, 4, 0):  # 0: one worker per CPU
            path = tmp_path / f"t{threads}.macd"
            stage_embed(ckpt, str(out / "images"), str(path),
                        rmac_scales=rmac_scales, threads=threads)
            digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        assert len(digests) == 1
        assert multiprocessing.active_children() == []


MINE_CFG = MiningConfig(pool_size=10, negatives=2,
                        candidate_negatives_per_cluster=8)


class TestStageMine:

    def test_writes_tuples(self, synth_dir, embedded, tmp_path):
        out, _ = synth_dir
        _, db_path, _ = embedded
        path = str(tmp_path / "tuples.jsonl")
        tuples, skipped = stage_mine(str(out / "scenes"), db_path, path,
                                     MINE_CFG, "m3", "N2", seed=5)
        assert tuples
        reloaded = load_tuples(path)
        assert reloaded == tuples
        for t in tuples:
            assert len(t.negatives) == 2


TRAIN_CFG = TrainConfig(batch_tuples=2, max_epochs=2, remine_per_epoch=1,
                        max_image_side=32)


@pytest.fixture(scope="module")
def trained(synth_dir, tmp_path_factory):
    out, _ = synth_dir
    run = tmp_path_factory.mktemp("run")
    result = stage_train(str(out / "scenes"), str(out / "images"), str(run),
                         TRAIN_CFG, LossConfig(), MINE_CFG, "m3", "N2",
                         "contrastive", 0.25, seed=3)
    return run, result


class TestStageTrain:

    def test_artifacts_written(self, trained):
        run, result = trained
        for name in ("init.mfck", "best.mfck", "metrics.csv"):
            assert (run / name).exists()
        spec, params, meta = load_checkpoint(str(run / "best.mfck"))
        assert meta["epoch"] == result.best_epoch
        assert meta["val_map"] == pytest.approx(result.best_val_map)
        for got, want in zip(params.weights, result.best_params.weights):
            npt.assert_array_equal(got, want)

    def test_metrics_csv_notes_loss(self, trained):
        run, result = trained
        lines = (run / "metrics.csv").read_text().splitlines()
        assert lines[0] == "# loss=contrastive"
        assert lines[1] == "epoch,lr,train_loss,val_map"
        assert len(lines) == 2 + len(result.metrics)

    def test_init_checkpoint_is_epoch_zero_net(self, synth_dir, trained):
        out, _ = synth_dir
        run, _ = trained
        spec, params, meta = load_checkpoint(str(run / "init.mfck"))
        assert meta["epoch"] == 0
        stream = SeededStream(3)
        expected = init_params(tiny_spec(), stream.derive("init"))
        for got, want in zip(params.weights, expected.weights):
            npt.assert_array_equal(got, want)

    def test_trains_on_images_capped_at_max_image_side(self, synth_dir,
                                                       trained, tmp_path):
        # the 32-px corpus capped at 16 px: mining, batches and
        # validation see the images that embed and eval extract from
        out, _ = synth_dir
        run = tmp_path / "capped"
        cfg = TrainConfig(batch_tuples=2, max_epochs=2, remine_per_epoch=1,
                          max_image_side=16)
        stage_train(str(out / "scenes"), str(out / "images"), str(run), cfg,
                    LossConfig(), MINE_CFG, "m3", "N2", "contrastive", 0.25,
                    seed=3)
        capped = {i: resize_max_side(image, 16) for i, image
                  in load_images_dir(str(out / "images")).items()}
        assert {image.shape for image in capped.values()} == {(3, 16, 16)}
        graphs = load_scenes_dir(str(out / "scenes"))
        spec, params0, _ = load_checkpoint(str(run / "init.mfck"))
        initial = {i: embed_image(params0, spec, capped[i]) for i in capped}
        _, val_tuples = prepare_training(graphs, initial, MINE_CFG, "m3",
                                         "N2", 0.25, SeededStream(3))
        spec, best, meta = load_checkpoint(str(run / "best.mfck"))
        assert meta["val_map"] == validate(best, spec, val_tuples,
                                           capped.__getitem__)
        # the same run at the full 32 px trains on other pixels
        full, _ = trained
        assert (run / "metrics.csv").read_text() != \
            (full / "metrics.csv").read_text()

    def test_no_training_tuples_fails_before_init_checkpoint(
            self, synth_dir, tmp_path):
        # N2 cannot find 50 distinct negative clusters among 4
        out, _ = synth_dir
        run = tmp_path / "run"
        with pytest.raises(ValueError, match="training split produced no"):
            stage_train(str(out / "scenes"), str(out / "images"), str(run),
                        TRAIN_CFG, LossConfig(),
                        MiningConfig(pool_size=10, negatives=50), "m3",
                        "N2", "contrastive", 0.25, seed=3)
        assert not run.exists()

    def test_init_from_checkpoint_reuses_weights(self, synth_dir, trained,
                                                 tmp_path):
        out, _ = synth_dir
        run, _ = trained
        second = tmp_path / "second"
        stage_train(str(out / "scenes"), str(out / "images"), str(second),
                    TRAIN_CFG, LossConfig(), MINE_CFG, "m3", "N2",
                    "contrastive", 0.25, seed=3,
                    init_params_from=str(run / "init.mfck"))
        with open(run / "init.mfck", "rb") as f1, \
                open(second / "init.mfck", "rb") as f2:
            assert f1.read() == f2.read()


class TestStageTrainForksOnce:
    """stage_train maps its initial embedding and train() over one pool:
    threads - 1 children started in all, and none left once it returns
    or raises."""

    @pytest.fixture
    def starts(self, monkeypatch):
        started = []
        original = ForkProcess.start

        def counting_start(process):
            started.append(process)
            return original(process)

        monkeypatch.setattr(ForkProcess, "start", counting_start)
        return started

    def run(self, synth_dir, run, train_cfg=TRAIN_CFG, mining_cfg=MINE_CFG,
            threads=2):
        out, _ = synth_dir
        return stage_train(str(out / "scenes"), str(out / "images"),
                           str(run), train_cfg, LossConfig(), mining_cfg,
                           "m3", "N2", "contrastive", 0.25, seed=3,
                           threads=threads)

    @pytest.mark.parametrize("threads, started", [(1, 0), (2, 1)])
    def test_one_pool_per_run(self, synth_dir, trained, tmp_path, starts,
                              threads, started):
        result = self.run(synth_dir, tmp_path / "run", threads=threads)
        assert len(starts) == started
        assert multiprocessing.active_children() == []
        full, want = trained
        assert result.metrics == want.metrics
        assert (tmp_path / "run" / "best.mfck").read_bytes() == \
            (full / "best.mfck").read_bytes()

    def test_no_child_left_after_a_mining_failure(self, synth_dir, tmp_path,
                                                  starts):
        with pytest.raises(ValueError, match="training split produced no"):
            self.run(synth_dir, tmp_path / "run",
                     mining_cfg=MiningConfig(pool_size=10, negatives=50))
        assert len(starts) == 1
        assert multiprocessing.active_children() == []

    def test_no_child_left_after_divergence(self, synth_dir, tmp_path,
                                            starts):
        cfg = TrainConfig(base_lr=1e30, batch_tuples=2, max_epochs=2,
                          remine_per_epoch=1, max_image_side=32)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                self.run(synth_dir, tmp_path / "run", train_cfg=cfg)
        assert len(starts) == 1
        assert multiprocessing.active_children() == []


class TestStageWhiten:

    def test_both_kinds(self, synth_dir, embedded, tmp_path):
        out, _ = synth_dir
        _, db_path, _ = embedded
        tuples_path = str(tmp_path / "tuples.jsonl")
        stage_mine(str(out / "scenes"), db_path, tuples_path,
                   MINE_CFG, "m3", "N2", seed=5)

        lw_path = str(tmp_path / "lw.mfpw")
        # few tuples at K=32 leave the matching scatter rank-deficient
        with pytest.warns(RuntimeWarning):
            lw = stage_whiten(db_path, lw_path, KIND_LW,
                              tuples_path=tuples_path)
        assert lw.kind == KIND_LW
        reloaded = load_projection(lw_path)
        npt.assert_array_equal(reloaded.projection, lw.projection)

        pca_path = str(tmp_path / "pca.mfpw")
        pca = stage_whiten(db_path, pca_path, KIND_PCAW)
        assert pca.kind == KIND_PCAW
        assert pca.dim == 32

    def test_lw_requires_tuples(self, embedded, tmp_path):
        _, db_path, _ = embedded
        with pytest.raises(ValueError):
            stage_whiten(db_path, str(tmp_path / "x.mfpw"), KIND_LW)
