"""High-level wiring between the library modules.

Everything a pipeline stage needs beyond a single module lives here:
the Extractor (backbone forward + pooling + optional projection, with
the two query-crop modes), embedding with deterministic output, cluster
train/val splitting, benchmark ground truth, and the stage functions
the command-line layer calls. Rendering and embedding map their
per-image work with workers.map_images over a stage's threads, as
retrieval.evaluate maps its queries, and stage_train maps all of its
own over one training.image_workers pool.
"""

import functools
import glob
import os

import numpy as np

from .backbone import (
    CONV,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    tiny_spec,
)
from .descriptor import (
    BBox,
    crop_activations,
    l2n,
    load_descriptors,
    mac,
    receptive_geometry,
    rmac,
    rmac_regions,
    save_descriptors,
)
from .images import read_ppm, resize_max_side, write_ppm
from .ioutil import FormatError
from .mining import (
    TupleMiner,
    build_tuples,
    load_scene,
    load_tuples,
    save_scene,
    save_tuples,
)
from .numeric import DimensionError, SeededStream
from .retrieval import QueryGroundTruth, save_ground_truth
from .synthscene import generate, render
from .training import (
    check_trainable,
    embedded,
    image_workers,
    train,
    write_metrics_csv,
)
from .whitening import (
    KIND_LW,
    KIND_PCAW,
    apply_projection,
    fit_lw,
    fit_pcaw,
    save_projection,
)
from .workers import map_images


class Extractor:
    """Turns images into normalized global descriptors.

    MAC by default; rmac_scales switches to the regional grid. A fitted
    projection is applied per region before aggregation for PCAw and to
    the aggregated descriptor for Lw. extract_region implements the
    activation-space crop used by the Crop_X query mode. Both forward
    the trunk without a backward tape.
    """

    def __init__(self, spec, params, rmac_scales=0, projection=None,
                 out_dim=None, max_side=None):
        if projection is None and out_dim is not None:
            raise ValueError(f"out_dim {out_dim} needs a projection")
        self.spec = spec
        self.params = params
        self.rmac_scales = int(rmac_scales)
        self.projection = projection
        if projection is not None:
            feature_dim = 0
            for layer in spec:
                if layer.kind == CONV:
                    feature_dim = layer.out_maps
            if feature_dim and projection.dim != feature_dim:
                raise DimensionError(
                    f"projection dim {projection.dim} does not match "
                    f"backbone feature dim {feature_dim}")
            self.out_dim = projection.dim if out_dim is None else int(out_dim)
            if not 1 <= self.out_dim <= projection.dim:
                raise DimensionError(
                    f"out_dim {out_dim} out of range 1..{projection.dim}")
        else:
            self.out_dim = None
        self.max_side = max_side
        self.geometry = receptive_geometry(spec)

    def _prepare(self, image):
        image = np.asarray(image, dtype=np.float32)
        if self.max_side is not None:
            image = resize_max_side(image, self.max_side)
        return image

    def _pool(self, activations):
        project = None
        if self.projection is not None:
            project = functools.partial(apply_projection, self.projection,
                                        d=self.out_dim)
        if self.rmac_scales < 1:
            f = l2n(mac(activations))
        else:
            grid = rmac_regions(activations.shape[2], activations.shape[1],
                                self.rmac_scales)
            if project is not None and self.projection.kind == KIND_PCAW:
                return rmac(activations, grid, region_transform=project)
            f = rmac(activations, grid)
        return f if project is None else project(f)

    def extract(self, image):
        out, _ = forward(self.params, self.spec, self._prepare(image),
                         tape=False)
        return self._pool(out)

    def extract_region(self, image, bbox):
        resized = self._prepare(image)
        height, width = np.shape(image)[1:]
        bbox = BBox(*bbox)
        if resized.shape[1:] != (height, width):
            sy = resized.shape[1] / height
            sx = resized.shape[2] / width
            x0 = int(round(bbox.x0 * sx))
            y0 = int(round(bbox.y0 * sy))
            bbox = BBox(x0, y0,
                        max(x0 + 1, int(round(bbox.x1 * sx))),
                        max(y0 + 1, int(round(bbox.y1 * sy))))
        out, _ = forward(self.params, self.spec, resized, tape=False)
        return self._pool(crop_activations(out, bbox, self.geometry))


def embed_images(extractor, images, threads):
    """Embed id -> image maps into id -> descriptor, in sorted-id order,
    by map_images over threads."""
    ids = sorted(images)
    return dict(zip(ids, map_images(lambda i: extractor.extract(images[i]),
                                    ids, threads)))


def split_clusters(graphs, val_fraction):
    """Deterministic split: the last ceil(fraction) clusters by sorted
    cluster id become the held-out set."""
    ordered = sorted(graphs, key=lambda g: g.cluster_id)
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    n_val = int(round(val_fraction * len(ordered)))
    if val_fraction > 0.0:
        n_val = max(1, n_val)
    if n_val >= len(ordered) and val_fraction > 0.0:
        raise ValueError("val_fraction leaves no training clusters")
    if n_val == 0:
        return ordered, []
    return ordered[:-n_val], ordered[-n_val:]


def _graph_of(graphs):
    """image id -> graph, in graph order and sorted ids within a graph."""
    return {image_id: graph for graph in graphs for image_id in graph.ids}


def render_images(graphs, size):
    """image id -> rendered image, rendered by map_images over one
    worker per CPU."""
    graph_of = _graph_of(graphs)
    rendered = map_images(lambda i: render(graph_of[i], i, size=size),
                          graph_of, 0)
    return dict(zip(graph_of, rendered))


def benchmark_ground_truth(graphs, image_size=None):
    """Every image queries for the rest of its cluster; the query
    itself is ignored. Full-image bboxes let crop modes run too."""
    bbox = None if image_size is None else BBox(0, 0, image_size, image_size)
    return {q: QueryGroundTruth(frozenset(g.images) - {q}, frozenset({q}),
                                bbox)
            for g in graphs if len(g.images) > 1 for q in sorted(g.images)}


def load_scenes_dir(scenes_dir):
    paths = sorted(glob.glob(os.path.join(scenes_dir, "*.json")))
    if not paths:
        raise FileNotFoundError(f"no scene files in {scenes_dir!r}")
    return [load_scene(p) for p in paths]


def load_images_dir(images_dir):
    pattern = os.path.join(images_dir, "**", "*.ppm")
    paths = sorted(glob.glob(pattern, recursive=True))
    if not paths:
        raise FileNotFoundError(f"no PPM images under {images_dir!r}")
    images = {}
    for path in paths:
        rel = os.path.relpath(path, images_dir)
        image_id = rel[:-len(".ppm")].replace(os.sep, "/")
        images[image_id] = read_ppm(path)
    return images


def image_path(images_dir, image_id):
    return os.path.join(images_dir, *image_id.split("/")) + ".ppm"


def _render_ppm(graph_of, size, images_dir, image_id):
    # render and write_ppm are looked up here at call time, so a wrapper
    # installed on this module's names applies where the call runs
    write_ppm(image_path(images_dir, image_id),
              render(graph_of[image_id], image_id, size=size))


def stage_synth(scene_cfg, out_dir, threads=0):
    """Generate scenes, render every image to PPM, emit ground truth.

    Layout: <out>/scenes/<cluster>.json, <out>/images/<image-id>.ppm,
    <out>/ground_truth.json. Scenes are generated and saved here; the
    images are rendered and written by map_images over threads, each
    worker writing its own PPMs. Returns (clusters, images, points).
    """
    scenes_dir = os.path.join(out_dir, "scenes")
    images_dir = os.path.join(out_dir, "images")
    # an unusable out_dir fails here, before any cluster is generated
    os.makedirs(scenes_dir, exist_ok=True)
    os.makedirs(images_dir, exist_ok=True)
    graphs = generate(scene_cfg)
    for graph in graphs:
        save_scene(os.path.join(scenes_dir, f"{graph.cluster_id}.json"),
                   graph)
    graph_of = _graph_of(graphs)
    for directory in {os.path.dirname(image_path(images_dir, image_id))
                      for image_id in graph_of}:
        os.makedirs(directory, exist_ok=True)
    map_images(functools.partial(_render_ppm, graph_of,
                                 scene_cfg.image_size, images_dir),
               graph_of, threads)
    save_ground_truth(os.path.join(out_dir, "ground_truth.json"),
                      benchmark_ground_truth(graphs, scene_cfg.image_size))
    return (len(graphs), len(graph_of),
            sum(len(graph.point_ids) for graph in graphs))


def stage_embed(checkpoint_path, images_dir, out_path, rmac_scales=0,
                projection=None, out_dim=None, max_side=None, threads=0):
    """Embed every PPM under images_dir over threads and write the .macd;
    no byte depends on threads. Returns the number of descriptors."""
    spec, params, _ = load_checkpoint(checkpoint_path)
    extractor = Extractor(spec, params, rmac_scales=rmac_scales,
                          projection=projection, out_dim=out_dim,
                          max_side=max_side)
    images = load_images_dir(images_dir)
    descriptors = embed_images(extractor, images, threads)
    save_descriptors(out_path, descriptors)
    return len(descriptors)


def stage_mine(scenes_dir, descriptors_path, out_path, mining_cfg,
               positive_method, negative_variant, seed,
               all_images_as_queries=False):
    graphs = load_scenes_dir(scenes_dir)
    descriptors = load_descriptors(descriptors_path)
    tuples, skipped = build_tuples(graphs, descriptors, mining_cfg,
                                   positive_method, negative_variant,
                                   SeededStream(seed),
                                   all_images_as_queries=all_images_as_queries)
    save_tuples(out_path, tuples)
    return tuples, skipped


def prepare_training(graphs, initial, mining_cfg, positive_method,
                     negative_variant, val_fraction, stream):
    """Split graphs and mine under the initial network: the training
    TupleMiner on stream "mine", the held-out tuples on stream "valmine"
    with queries from held-out clusters and negatives from all. initial
    maps every image id of graphs to its descriptor. Returns (miner,
    val_tuples); a split without tuples is a ValueError that says why."""
    train_graphs, val_graphs = split_clusters(graphs, val_fraction)
    miner = TupleMiner(train_graphs, initial, mining_cfg, positive_method,
                       negative_variant, stream.derive("mine"))
    _check_mined(miner, "training split", len(train_graphs), mining_cfg)
    val = TupleMiner(graphs, initial, mining_cfg, positive_method,
                     negative_variant, stream.derive("valmine"),
                     query_clusters={g.cluster_id for g in val_graphs})
    _check_mined(val, "validation split", len(graphs), mining_cfg)
    return miner, val.tuples


def _check_mined(miner, split, clusters, cfg):
    """A ValueError unless miner has a tuple, saying why it has none."""
    if miner.tuples:
        return
    why = (f"{split} produced no tuples: of {len(miner.skipped)} queries, "
           f"{len(miner.no_positive)} found no positive and "
           f"{len(miner.skipped) - len(miner.no_positive)} too few negatives")
    if miner.negative_variant == "N2" and clusters <= cfg.negatives:
        why += (f"; N2 needs negatives + 1 = {cfg.negatives + 1} clusters, "
                f"the {split} mines from {clusters}")
    raise ValueError(why)


def stage_train(scenes_dir, images_dir, out_dir, train_cfg, loss_cfg,
                mining_cfg, positive_method, negative_variant, loss_kind,
                val_fraction, seed, init_params_from=None, threads=0):
    """Mine tuples on the training clusters, fine-tune, keep the best
    checkpoint by held-out mAP. Every image is capped at
    train_cfg.max_image_side once on load, as the Extractor caps it in
    embed and eval. The initial embedding and train() share one pool
    over threads, forked once, and train() starts from those descriptors
    as its entry cache; no output byte depends on threads. Returns the
    TrainResult."""
    graphs = load_scenes_dir(scenes_dir)
    images = {image_id: resize_max_side(image, train_cfg.max_image_side)
              for image_id, image in load_images_dir(images_dir).items()}
    missing = [i for g in graphs for i in g.ids if i not in images]
    if missing:
        raise FileNotFoundError(f"scene image {missing[0]!r} has no PPM: "
                                f"{image_path(images_dir, missing[0])}")

    stream = SeededStream(seed)
    if init_params_from is not None:
        spec, params, _ = load_checkpoint(init_params_from)
    else:
        spec = tiny_spec()
        params = init_params(spec, stream.derive("init"))
    check_trainable(spec, train_cfg)

    with image_workers(spec, images.__getitem__, threads) as pool:
        # held-out negatives may come from any cluster: embed every image
        ids = list(_graph_of(graphs))
        initial = dict(zip(ids, embedded(pool, params, {}, ids)))
        miner, val_tuples = prepare_training(
            graphs, initial, mining_cfg, positive_method, negative_variant,
            val_fraction, stream)
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(os.path.join(out_dir, "init.mfck"), spec, params,
                        meta={"epoch": 0, "loss": loss_kind})
        result = train(miner, images.__getitem__, val_tuples, spec, params,
                       train_cfg, loss_cfg, stream.derive("train"),
                       loss_kind=loss_kind, workers=pool,
                       entry_cache=initial)
    save_checkpoint(os.path.join(out_dir, "best.mfck"), spec,
                    result.best_params,
                    meta={"epoch": result.best_epoch,
                          "val_map": result.best_val_map,
                          "loss": loss_kind})
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.metrics,
                      note=f"loss={loss_kind}")
    return result


def fit_lw_tuples(descriptors, tuples):
    """Lw from mined tuples: query-positive matching pairs and query-
    negative non-matching pairs in tuple order, the mean over every
    descriptor in sorted-id order. An id missing from descriptors is a
    FormatError."""
    missing = [i for t in tuples for i in (t.query, t.positive, *t.negatives)
               if i not in descriptors]
    if missing:
        raise FormatError(f"tuple image {missing[0]!r} has no descriptor")
    matching = [(descriptors[t.query], descriptors[t.positive])
                for t in tuples]
    nonmatching = [(descriptors[t.query], descriptors[n])
                   for t in tuples for n in t.negatives]
    mean_source = [descriptors[i] for i in sorted(descriptors)]
    return fit_lw(matching, nonmatching, mean_source)


def stage_whiten(descriptors_path, out_path, kind, tuples_path=None):
    """Fit Lw from mined tuples (fit_lw_tuples), which needs tuples_path,
    or PCAw from the descriptor set, which refuses one."""
    if (kind == KIND_LW) != (tuples_path is not None):
        raise ValueError("Lw fitting needs a tuples file, PCAw reads none")
    descriptors = load_descriptors(descriptors_path)
    if kind == KIND_PCAW:
        model = fit_pcaw([descriptors[i] for i in sorted(descriptors)])
    elif kind == KIND_LW:
        model = fit_lw_tuples(descriptors, load_tuples(tuples_path))
    else:
        raise ValueError(f"unknown whitening kind {kind!r}")
    save_projection(out_path, model)
    return model
