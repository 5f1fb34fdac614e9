"""The three benchmark workloads and the measuring loop around them.

Each workload is a batch job: set-up builds its inputs, then a pass runs
its stages back to back, and passes repeat until the run's measuring
time is used up. Every stage call and every output check is one
operation; one that raises or does not hold counts as failed.

    synth       stage_synth, then read scenes and images back
    finetune    stage_train: 5 epochs, m3/N2, contrastive, val 0.2
    index_eval  embed -> dense mine -> Lw + PCAw -> projected embed ->
                evaluate in Full, Crop_I and Crop_X on seeded query boxes

See NOTES.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

import contextlib
import hashlib
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

from macforge import (
    backbone,
    descriptor,
    images,
    mining,
    pipeline,
    retrieval,
    synthscene,
    training,
    whitening,
)
from macforge.numeric import SeededStream

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Scale:
    """Input sizes. Image and point counts are fixed per cluster, so a
    new seed changes the scene but not the amount of work."""

    clusters: int = 8
    images_per_cluster: int = 24
    points_per_cluster: int = 80
    image_size: int = 96
    epochs: int = 5
    negatives: int = 5
    feature_dim: int = 64


BENCH_SCALE = Scale()
SETUPS = 3  # set-ups per run; setup_s is their median
RMAC_SCALES = 3
VAL_FRACTION = 0.2
SAMPLE_IMAGES = 8
# One embedding thread (times one BLAS thread) stays within any nproc,
# and leaves the workload on the single core the reference kernel times.
EMBED_THREADS = 1


# ---------------------------------------------------------------------------
# Operation accounting
# ---------------------------------------------------------------------------


class StageFailed(RuntimeError):
    """A stage call raised; the ledger has already counted it."""


class Ledger:
    """Counts attempted and failed operations and times stage calls."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def stage(self, times, key, fn, *args, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{key}: {type(exc).__name__}: {exc}")
            raise StageFailed(key) from exc
        times[key] = times.get(key, 0.0) + time.perf_counter() - start
        return result

    def check(self, name, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            self.errors.append(name)
            print(f"check failed: {name}", file=sys.stderr)


@contextlib.contextmanager
def stopwatch(owner, attr, sink):
    """Time each call of owner.attr into sink; restore on exit."""
    original = owner.__dict__[attr]

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((args, time.perf_counter() - start))

    setattr(owner, attr, timed)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(out_dir):
    """SHA-256 of every top-level file; one digest per subdirectory over
    its files' relative paths and hashes."""
    result = {}
    for entry in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, entry)
        if os.path.isfile(path):
            result[entry] = file_sha256(path)
            continue
        h = hashlib.sha256()
        for base, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                full = os.path.join(base, name)
                rel = os.path.relpath(full, path).replace(os.sep, "/")
                h.update(f"{rel} {file_sha256(full)}\n".encode())
        result[entry + "/"] = h.hexdigest()
    return result


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def scene_config(scale, seed):
    return synthscene.SceneConfig(
        clusters=scale.clusters,
        images_per_cluster=(scale.images_per_cluster,) * 2,
        points_per_cluster=(scale.points_per_cluster,) * 2,
        image_size=scale.image_size,
        seed=seed)


def mining_config(scale):
    return mining.MiningConfig(negatives=scale.negatives)


def trunk(feature_dim):
    """tiny_spec's layout with feature_dim maps in the last conv."""
    c = backbone.conv
    return [c(3, feature_dim // 4, 5, stride=2, pad=2), backbone.relu(),
            backbone.maxpool(2, 2),
            c(feature_dim // 4, feature_dim // 2, 3, stride=1, pad=1),
            backbone.relu(), backbone.maxpool(2, 2),
            c(feature_dim // 2, feature_dim, 3, stride=1, pad=1),
            backbone.relu()]


def query_ground_truth(graphs, size, seed):
    """Every image queries the rest of its cluster (itself ignored) with
    a seeded sub-image box covering 1/2 to 4/5 of each side."""
    rng = np.random.default_rng([seed, 0xB0C5])
    gt = {}
    for graph in sorted(graphs, key=lambda g: g.cluster_id):
        ids = sorted(graph.images)
        for query in ids:
            w, h = (int(v) for v in rng.integers(size // 2, 4 * size // 5 + 1,
                                                 size=2))
            x0 = int(rng.integers(0, size - w + 1))
            y0 = int(rng.integers(0, size - h + 1))
            gt[query] = retrieval.QueryGroundTruth(
                frozenset(ids) - {query}, frozenset({query}),
                descriptor.BBox(x0, y0, x0 + w, y0 + h))
    return gt


def cluster_map(graphs):
    return {img: g.cluster_id for g in graphs for img in g.images}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """setup() builds inputs. run_pass() runs the timed stages and
    returns (counts, times): what the pass produced, and the seconds
    spent per stage key. rates() turns one pass's counts and times into
    metric values; check() verifies a pass's outputs."""

    def __init__(self, seed, scale):
        self.seed = seed
        self.scale = scale
        self.cfg = scene_config(scale, seed)

    def setup(self, ledger, work_dir):
        times = {}
        ledger.stage(times, "synth", pipeline.stage_synth, self.cfg, work_dir)
        return {"corpus": work_dir}


class Synth(Workload):
    """Write path: render and write the corpus, read it all back."""

    def run_pass(self, ledger, inputs, out):
        times = {}
        _, n_images, _ = ledger.stage(times, "stage_synth",
                                      pipeline.stage_synth, self.cfg, out)
        graphs = ledger.stage(times, "read", pipeline.load_scenes_dir,
                              os.path.join(out, "scenes"))
        read = ledger.stage(times, "read", pipeline.load_images_dir,
                            os.path.join(out, "images"))
        counts = {"n_images": n_images, "n_read": len(read),
                  "n_scenes": len(graphs)}
        return counts, times

    def rates(self, counts, seconds):
        rate = counts["n_images"] / seconds["stage_synth"]
        return {"items_per_s": rate, "synth_images_per_s": rate}

    def check(self, ledger, inputs, out, counts):
        graphs = synthscene.generate(self.cfg)
        ledger.check("synth: every image and scene read back",
                     lambda: counts["n_read"] == counts["n_images"]
                     and counts["n_scenes"] == len(graphs))
        ledger.check("synth: pass reproduces the set-up corpus",
                     lambda: artifact_hashes(out)
                     == artifact_hashes(inputs["corpus"]))

        def ppm_equals_render():
            rng = np.random.default_rng([self.seed, 0x5A3])
            by_image = {img: g for g in graphs for img in g.images}
            ids = sorted(by_image)
            for j in rng.choice(len(ids), size=min(SAMPLE_IMAGES, len(ids)),
                                replace=False):
                image_id = ids[int(j)]
                rendered = synthscene.render(by_image[image_id], image_id,
                                             size=self.cfg.image_size)
                quantized = np.clip(np.rint(rendered.astype(np.float64)
                                            * images.PPM_MAXVAL),
                                    0, images.PPM_MAXVAL).astype(np.uint8)
                expected = quantized.astype(np.float32) / images.PPM_MAXVAL
                got = images.read_ppm(pipeline.image_path(
                    os.path.join(out, "images"), image_id))
                if not np.array_equal(got, expected):
                    return False
            return True

        ledger.check("synth: PPMs equal render() on a sample",
                     ppm_equals_render)

        def scenes_round_trip():
            # the stored file, generate() saved afresh, and the stored
            # file loaded and saved again must agree byte for byte
            fresh = os.path.join(out, "fresh.json")
            again = os.path.join(out, "again.json")
            try:
                for g in graphs:
                    path = os.path.join(out, "scenes", f"{g.cluster_id}.json")
                    mining.save_scene(fresh, g)
                    mining.save_scene(again, mining.load_scene(path))
                    if not (file_sha256(path) == file_sha256(fresh)
                            == file_sha256(again)):
                        return False
                return True
            finally:
                for scratch in (fresh, again):
                    if os.path.exists(scratch):
                        os.remove(scratch)

        ledger.check("synth: scene files round-trip", scenes_round_trip)


class Finetune(Workload):
    """The paper's core loop on the default 32-d trunk."""

    def run_pass(self, ledger, inputs, out):
        times = {}
        corpus = inputs["corpus"]
        calls = []
        with stopwatch(pipeline, "train", calls):
            result = ledger.stage(
                times, "stage_train", pipeline.stage_train,
                os.path.join(corpus, "scenes"), os.path.join(corpus, "images"),
                out, training.TrainConfig(max_epochs=self.scale.epochs),
                training.LossConfig(), mining_config(self.scale), "m3", "N2",
                "contrastive", VAL_FRACTION, self.seed)
        (source, *_), train_s = calls[0]
        times["train"] = train_s
        counts = {"tuples": len(source.current_tuples()) * self.scale.epochs,
                  "val_map_best": result.best_val_map}
        return counts, times

    def rates(self, counts, seconds):
        rate = counts["tuples"] / seconds["train"]
        return {"items_per_s": rate, "train_tuples_per_s": rate,
                "val_map_best": counts["val_map_best"]}

    def check(self, ledger, inputs, out, counts):
        def validate_reproduces_best():
            corpus = inputs["corpus"]
            graphs = pipeline.load_scenes_dir(os.path.join(corpus, "scenes"))
            imgs = pipeline.load_images_dir(os.path.join(corpus, "images"))
            _, val_graphs = pipeline.split_clusters(graphs, VAL_FRACTION)
            spec, params0, _ = backbone.load_checkpoint(
                os.path.join(out, "init.mfck"))
            initial = {i: training.embed_image(params0, spec, imgs[i])
                       for g in graphs for i in sorted(g.images)}
            val_tuples, _ = mining.build_tuples(
                graphs, initial, mining_config(self.scale), "m3", "N2",
                SeededStream(self.seed).derive("valmine"),
                query_clusters={g.cluster_id for g in val_graphs})
            spec, best, meta = backbone.load_checkpoint(
                os.path.join(out, "best.mfck"))
            val_map = training.validate(best, spec, val_tuples,
                                        imgs.__getitem__)
            return val_map == counts["val_map_best"] == meta["val_map"]

        ledger.check("finetune: validate(best.mfck) reproduces val_map_best",
                     validate_reproduces_best)


class IndexEval(Workload):
    """Offline read path: forward-only, dense mining, K-d whitening."""

    def setup(self, ledger, work_dir):
        inputs = super().setup(ledger, work_dir)
        times = {}
        spec = trunk(self.scale.feature_dim)
        params = backbone.init_params(
            spec, SeededStream(self.seed).derive("bench-checkpoint"))
        inputs["checkpoint"] = os.path.join(work_dir, "trunk.mfck")
        ledger.stage(times, "checkpoint", backbone.save_checkpoint,
                     inputs["checkpoint"], spec, params)
        graphs = pipeline.load_scenes_dir(os.path.join(work_dir, "scenes"))
        inputs["gt"] = os.path.join(work_dir, "query_boxes.json")
        ledger.stage(times, "gt", retrieval.save_ground_truth, inputs["gt"],
                     query_ground_truth(graphs, self.cfg.image_size,
                                        self.seed))
        return inputs

    def run_pass(self, ledger, inputs, out):
        times = {}
        stage = ledger.stage
        os.makedirs(out)
        corpus = inputs["corpus"]
        scenes_dir = os.path.join(corpus, "scenes")
        images_dir = os.path.join(corpus, "images")
        p = {name: os.path.join(out, name) for name in (
            "db.macd", "tuples.mftp", "lw.mfpw", "pcaw.mfpw", "db_lw.macd")}
        n_raw = stage(times, "embed", pipeline.stage_embed,
                      inputs["checkpoint"], images_dir, p["db.macd"],
                      rmac_scales=RMAC_SCALES,
                      threads=EMBED_THREADS)
        tuples, skipped = stage(
            times, "mine", pipeline.stage_mine, scenes_dir, p["db.macd"],
            p["tuples.mftp"], mining_config(self.scale), "m3", "N2",
            self.seed, all_images_as_queries=True)
        lw = stage(times, "whiten", pipeline.stage_whiten, p["db.macd"],
                   p["lw.mfpw"], whitening.KIND_LW,
                   tuples_path=p["tuples.mftp"])
        stage(times, "whiten", pipeline.stage_whiten, p["db.macd"],
              p["pcaw.mfpw"], whitening.KIND_PCAW)
        n_lw = stage(times, "embed", pipeline.stage_embed,
                     inputs["checkpoint"], images_dir, p["db_lw.macd"],
                     rmac_scales=RMAC_SCALES, projection=lw,
                     threads=EMBED_THREADS)

        spec, params, _ = stage(times, "load", backbone.load_checkpoint,
                                inputs["checkpoint"])
        projection = stage(times, "load", whitening.load_projection,
                           p["lw.mfpw"])
        extractor = pipeline.Extractor(spec, params,
                                       rmac_scales=RMAC_SCALES,
                                       projection=projection)
        db = retrieval.DescriptorDB(stage(times, "load",
                                          descriptor.load_descriptors,
                                          p["db_lw.macd"]))
        gt = stage(times, "load", retrieval.load_ground_truth, inputs["gt"])
        imgs = stage(times, "load", pipeline.load_images_dir, images_dir)
        queries = [(q, imgs[q], gt[q].bbox) for q in sorted(gt)]
        maps = {}
        for mode in retrieval.MODES:
            mean_ap, per_query = stage(times, "eval", retrieval.evaluate,
                                       db, queries, gt, mode, extractor)
            stage(times, "load", retrieval.write_eval_csv,
                  os.path.join(out, f"eval_{mode}.csv"), per_query, mean_ap)
            maps[mode] = mean_ap
        counts = {
            "images": n_raw,
            "embedded": n_raw + n_lw,
            "mined": len(tuples) + len(skipped),
            "evaluated": len(queries) * len(retrieval.MODES),
            "map_full": maps[retrieval.MODE_FULL],
            "map_crop_i": maps[retrieval.MODE_CROP_I],
            "map_crop_x": maps[retrieval.MODE_CROP_X],
        }
        return counts, times

    def rates(self, counts, seconds):
        # the headline rate covers the whole read path: the evaluate
        # calls alone last about a second, too short to time steadily
        return {
            "items_per_s": counts["images"] / sum(seconds.values()),
            "embed_images_per_s": counts["embedded"] / seconds["embed"],
            "mine_queries_per_s": counts["mined"] / seconds["mine"],
            "whiten_fit_s": seconds["whiten"],
            "eval_queries_per_s": counts["evaluated"] / seconds["eval"],
            "map_full": counts["map_full"],
            "map_crop_i": counts["map_crop_i"],
            "map_crop_x": counts["map_crop_x"],
        }

    def check(self, ledger, inputs, out, counts):
        corpus = inputs["corpus"]
        graphs = pipeline.load_scenes_dir(os.path.join(corpus, "scenes"))
        cluster_of = cluster_map(graphs)
        tuples = mining.load_tuples(os.path.join(out, "tuples.mftp"))
        raw = descriptor.load_descriptors(os.path.join(out, "db.macd"))

        def map_full_matches_brute_force():
            spec, params, _ = backbone.load_checkpoint(inputs["checkpoint"])
            extractor = pipeline.Extractor(
                spec, params, rmac_scales=RMAC_SCALES,
                projection=whitening.load_projection(
                    os.path.join(out, "lw.mfpw")))
            db = descriptor.load_descriptors(os.path.join(out, "db_lw.macd"))
            ids = sorted(db)
            matrix = np.stack([db[i] for i in ids]).astype(np.float64)
            gt = retrieval.load_ground_truth(inputs["gt"])
            imgs = pipeline.load_images_dir(os.path.join(corpus, "images"))
            total = 0.0
            for q in sorted(gt):
                sims = matrix @ np.asarray(extractor.extract(imgs[q]),
                                           dtype=np.float64)
                order = np.lexsort((np.arange(len(ids)), -sims))
                ranked = [ids[j] for j in order if ids[j] not in gt[q].ignored]
                relevant = np.array([i in gt[q].relevant for i in ranked])
                precision = np.cumsum(relevant) / np.arange(1, len(ranked) + 1)
                total += precision[relevant].sum() / len(gt[q].relevant)
            return abs(total / len(gt) - counts["map_full"]) <= 1e-12

        def tuples_respect_clusters():
            for t in tuples:
                if (cluster_of[t.positive] != cluster_of[t.query]
                        or t.positive == t.query
                        or len(t.negatives) != self.scale.negatives):
                    return False
                neg_clusters = [cluster_of[n] for n in t.negatives]
                if (cluster_of[t.query] in neg_clusters
                        or len(set(neg_clusters)) != len(neg_clusters)):
                    return False
            return bool(tuples)

        def lw_whitens_matching_pairs():
            model = whitening.load_projection(os.path.join(out, "lw.mfpw"))
            diffs = np.array([raw[t.query].astype(np.float64)
                              - raw[t.positive].astype(np.float64)
                              for t in tuples])
            scatter = diffs.T @ diffs
            whitened = model.projection.T @ scatter @ model.projection
            # a descriptor dimension that never varies (a dead feature
            # map, as on some seeds) leaves C_S singular; fit_lw then
            # whitens its range only (rcond 1e-10), so P^T C_S P is the
            # identity on the kept columns and zero on the rest
            kept = np.diag(whitened) > 0.5
            eig = np.linalg.eigvalsh(scatter)
            rank = int(np.count_nonzero(eig > 1e-10 * eig[-1]))
            return (int(kept.sum()) == rank and np.max(np.abs(
                whitened - np.diag(kept.astype(np.float64)))) < 1e-6)

        ledger.check("index_eval: map_full equals a brute-force ranking",
                     map_full_matches_brute_force)
        ledger.check("index_eval: positives in-cluster, negatives outside",
                     tuples_respect_clusters)
        ledger.check("index_eval: Lw whitens its matching pairs",
                     lw_whitens_matching_pairs)


WORKLOADS = {"synth": Synth, "finetune": Finetune, "index_eval": IndexEval}

# workload-specific metrics, printed by name and unit on every run
DETAIL_UNITS = {
    "synth_images_per_s": "img/s",
    "train_tuples_per_s": "tuples/s",
    "val_map_best": "mAP",
    "embed_images_per_s": "img/s",
    "mine_queries_per_s": "queries/s",
    "whiten_fit_s": "s",
    "eval_queries_per_s": "queries/s",
    "map_full": "mAP",
    "map_crop_i": "mAP",
    "map_crop_x": "mAP",
}
QUALITY_LAYER_METRICS = {
    "training.val_map_best": "val_map_best",
    "retrieval.map_full": "map_full",
    "retrieval.map_crop_i": "map_crop_i",
    "retrieval.map_crop_x": "map_crop_x",
}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # do not report an enclosing repository's HEAD
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def src_lines():
    total = 0
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    total += sum(1 for _ in f)
    return total


def environment():
    return {
        "nproc": nproc(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
        "embed_threads": EMBED_THREADS,
        "numpy": np.__version__,
        "blas": blas_build(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# On a shared host the speed of one core drifts by up to 2x, in
# stretches from a second to minutes long, and CPU time drifts with wall
# time. So while an interval is timed, a timer signal runs a fixed
# reference kernel every PROBE_PERIOD_S and times it. The interval is
# scaled by the host's mean speed over it, REFERENCE_NOMINAL_S / kernel
# time, which gives its length on a host where the kernel takes
# REFERENCE_NOMINAL_S. The kernel mixes interpreter loops, numpy calls
# on small arrays and small GEMMs, like the program's inner loops. It is
# not program code, so a change to the program moves the scaled times
# as much as the raw ones. The probe's own time, about 2%, stays in.
PROBE_PERIOD_S = 0.02
REFERENCE_NOMINAL_S = 0.00025  # the kernel inside a pass, fast host
_REF_RNG = np.random.default_rng(0x5EED)
_REF_X = _REF_RNG.standard_normal((400, 72)).astype(np.float32)
_REF_W = _REF_RNG.standard_normal((72, 16)).astype(np.float32)
_REF_PATCH = np.linspace(0.0, 1.0, 49).reshape(7, 7)


def reference_kernel():
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    for _ in range(16):
        alpha = np.exp(-(_REF_PATCH - 0.5) ** 2 / 0.3)
        acc += float((_REF_PATCH[:3, :3] * (1.0 - alpha[:3, :3])).sum())
    for _ in range(4):
        acc += float(np.maximum(_REF_X @ _REF_W, 0.0).sum())
    return acc


def timed_on_reference(fn):
    """Run fn() while sampling host speed. Returns (result, raw seconds,
    factor), where raw x factor is the time on the nominal host."""
    kernel_s = []

    def sample(signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        kernel_s.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        raw = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not kernel_s:  # shorter than one period
        sample()
    factor = statistics.fmean(REFERENCE_NOMINAL_S / t for t in kernel_s)
    return result, raw, factor


# ---------------------------------------------------------------------------
# The measuring loop
# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace, scale=BENCH_SCALE):
    """Set up, run passes for `seconds` and check outputs.

    Returns (info, outcome, tracers): info is the record printed before
    the result line; outcome holds correct, attempted, failed and the
    metric values; tracers are the traced passes' Tracer objects.
    """
    workload = WORKLOADS[name](seed, scale)
    ledger = Ledger()
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=scratch)
    setup_s, setup_raw = [], []
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    factors = []
    times = []
    layer_runs = []
    tracers = []
    counts = hashes = input_hashes = None
    try:
        inputs = None
        for k in range(SETUPS):
            target = os.path.join(work, f"setup{k}")
            built, raw, factor = timed_on_reference(
                lambda: workload.setup(ledger, target))
            setup_raw.append(raw)
            setup_s.append(raw * factor)
            if inputs is None:
                inputs = built
                input_hashes = artifact_hashes(target)
            else:
                shutil.rmtree(target)

        # the first pass also yields the reference artifacts and is the
        # one the output checks inspect; its timing counts like any other
        measured = 0.0
        while (measured < seconds or not walls[False]
               or (trace and not walls[True])):
            traced = bool(trace) and len(walls[False]) > len(walls[True])
            i = len(walls[False]) + len(walls[True]) + 1
            out = os.path.join(work, f"pass{i}")
            tracer = spans.Tracer() if traced else None

            def one_pass():
                with (spans.installed(tracer) if traced
                      else contextlib.nullcontext()):
                    return workload.run_pass(ledger, inputs, out)

            (pass_counts, pass_times), raw, factor = timed_on_reference(
                one_pass)
            measured += raw
            raw_walls[traced].append(raw)
            walls[traced].append(raw * factor)
            factors.append(factor)
            pass_times = {key: value * factor
                          for key, value in pass_times.items()}
            if hashes is None:
                counts = pass_counts
                workload.check(ledger, inputs, out, counts)
                hashes = artifact_hashes(out)
            else:
                ledger.check(f"pass {i} artifacts equal pass 1's"
                             + (" (traced)" if traced else ""),
                             lambda: artifact_hashes(out) == hashes)
            if traced:
                ledger.check("traced spans nest",
                             lambda: spans.check_nesting(tracer.spans))
                layer_runs.append(spans.layer_metrics(tracer, EMBED_THREADS))
                tracers.append(tracer)
            else:
                times.append(pass_times)
            shutil.rmtree(out)
    except StageFailed:
        traceback.print_exc(file=sys.stderr)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        ledger.attempted += 1
        ledger.failed += 1
        ledger.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    detail = {}
    if times:
        values = [workload.rates(counts, t) for t in times]

        def median_of(key):
            return statistics.median(v[key] for v in values)

        if not trace:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "wall_s": statistics.median(walls[False]),
                "peak_rss_mb": peak_rss_mb,
                "items_per_s": median_of("items_per_s"),
            }
        elif layer_runs:
            metrics = {key: statistics.median(r[key] for r in layer_runs)
                       for key in layer_runs[0]}
            for key, source in QUALITY_LAYER_METRICS.items():
                metrics[key] = median_of(source) if source in values[0] else 0.0
            metrics["trace_overhead"] = (statistics.median(walls[True])
                                         / statistics.median(walls[False])
                                         - 1.0)
        detail = {key: {"value": median_of(key), "unit": unit}
                  for key, unit in DETAIL_UNITS.items() if key in values[0]}
    detail["error_rate"] = {
        "value": ledger.failed / max(1, ledger.attempted), "unit": "ratio"}
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(bool(trace)),
        "passes": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "setup_runs_s": setup_s,
        "pass_wall_s": {"untraced": walls[False], "traced": walls[True]},
        "raw_setup_runs_s": setup_raw,
        "raw_pass_wall_s": {"untraced": raw_walls[False],
                            "traced": raw_walls[True]},
        "pass_host_factor": factors,
        "detail": detail,
        "env": environment(),
        "inputs_sha256": input_hashes,
        "artifacts_sha256": hashes,
        "errors": ledger.errors,
    }
    outcome = {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    return info, outcome, tracers
