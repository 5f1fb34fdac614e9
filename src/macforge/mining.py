"""Training-tuple mining from 3D-reconstruction visibility graphs.

A scene cluster is a bipartite graph between images (with known cameras)
and 3D points. Queries are drawn per cluster; a hard positive comes from
the camera-neighborhood pool by one of three methods (m1 descriptor
distance, m2 co-observation count, m3 random under overlap and scale
constraints); hard negatives are the most similar descriptors from other
clusters, either unrestricted (N1) or at most one per cluster (N2).

All argmin/argmax ties break toward the lower image-id so every selection
is reproducible and oracle-comparable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .ioutil import FormatError
from .numeric import SeededStream
from .retrieval import DescriptorDB, search


class GraphError(ValueError):
    """Visibility graph violates a structural invariant."""


class MiningError(ValueError):
    """Tuple mining cannot proceed for a query."""


class NoPositiveError(MiningError):
    """No feasible positive exists for the query."""


class NoSharedPointsError(MiningError):
    """Scale change is undefined: the image pair co-observes nothing."""


class GeometryError(MiningError):
    """A shared point has non-positive depth in one of the cameras."""


class ShortListError(MiningError):
    """Fewer negative candidates than requested."""


@dataclass(frozen=True)
class Camera:
    """Pinhole camera: rows of `rotation` are the camera axes in world
    coordinates (third row = optical axis), so camera coordinates of a
    world point P are rotation @ (P - center)."""

    center: np.ndarray
    rotation: np.ndarray
    focal: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        rotation = np.asarray(self.rotation, dtype=np.float64)
        if center.shape != (3,) or rotation.shape != (3, 3):
            raise GraphError("camera needs a 3-vector center and 3x3 rotation")
        if not (np.isfinite(center).all() and np.isfinite(rotation).all()
                and math.isfinite(self.focal)):
            raise GraphError("camera center, rotation and focal must be finite")
        if np.max(np.abs(rotation @ rotation.T - np.eye(3))) > 1e-9:
            raise GraphError("camera rotation is not orthonormal")
        if abs(np.linalg.det(rotation) - 1.0) > 1e-9:
            raise GraphError("camera rotation must have determinant +1")
        if not self.focal > 0:
            raise GraphError("camera focal must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "focal", float(self.focal))

    def depth_of(self, point: np.ndarray) -> float:
        return float(self.rotation[2] @ (np.asarray(point) - self.center))


# derived tables are computed from these; reassigning one drops them
_GRAPH_FIELDS = frozenset({"cluster_id", "images", "points", "edges"})


@dataclass
class VisibilityGraph:
    """One reconstructed cluster: images with cameras, points, and the
    image-observes-point edge set.

    Tables derived from the fields (observations, depths, appearance)
    are computed once and kept on the graph until a field is reassigned;
    mutating `images`, `points` or `edges` in place is not tracked, so
    assign a new container instead.
    """

    cluster_id: str
    images: dict  # image-id -> Camera
    points: dict  # point-id -> (3,) world position
    edges: set   # of (image-id, point-id)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _GRAPH_FIELDS:
            self.__dict__.pop("_derived", None)

    def derived(self, key, build):
        """The table `build(self)`, computed on first request per key."""
        tables = self.__dict__.setdefault("_derived", {})
        if key not in tables:
            tables[key] = build(self)
        return tables[key]

    def validate(self) -> None:
        for img, pid in self.edges:
            if img not in self.images:
                raise GraphError(f"edge references unknown image {img!r}")
            if pid not in self.points:
                raise GraphError(f"edge references unknown point {pid!r}")
        for pid, xyz in self.points.items():
            if np.shape(xyz) != (3,) or not np.isfinite(xyz).all():
                raise GraphError(f"point {pid!r} needs 3 finite coordinates")
        observers = {pid: 0 for pid in self.points}
        for _, pid in self.edges:
            observers[pid] += 1
        thin = sorted(pid for pid, n in observers.items() if n < 2)
        if thin:
            raise GraphError(
                f"points observed by fewer than 2 images: {thin[:5]}"
                + ("..." if len(thin) > 5 else ""))

    def observation_map(self) -> dict:
        """image-id -> frozenset of observed point-ids (cached)."""
        return self.derived("observations", _observations)

    def depth_map(self) -> dict:
        """image-id -> {point-id: depth in that camera} over the edges
        (cached)."""
        return self.derived("depths", _depths)


def _observations(g: VisibilityGraph) -> dict:
    sets = {img: set() for img in g.images}
    for img, pid in g.edges:
        sets[img].add(pid)
    return {img: frozenset(s) for img, s in sets.items()}


def _depths(g: VisibilityGraph) -> dict:
    table = {}
    for img, pids in g.observation_map().items():
        cam = g.images[img]
        table[img] = {pid: cam.depth_of(g.points[pid]) for pid in pids}
    return table


@dataclass(frozen=True)
class MiningConfig:
    pool_size: int = 100
    inlier_overlap: float = 0.2
    scale_threshold: float = 1.5
    negatives: int = 5
    candidate_negatives_per_cluster: int = 20

    def __post_init__(self):
        if self.pool_size < 1 or self.negatives < 1:
            raise ValueError("pool_size and negatives must be >= 1")
        if not 0 < self.inlier_overlap <= 1:
            raise ValueError("inlier_overlap must lie in (0, 1]")
        if self.scale_threshold < 1:
            raise ValueError("scale_threshold must be >= 1")
        if self.candidate_negatives_per_cluster < 0:
            raise ValueError("candidate_negatives_per_cluster must be "
                             "non-negative")


@dataclass(frozen=True)
class TrainingTuple:
    query: str
    positive: str
    negatives: tuple

    def __post_init__(self):
        if self.positive == self.query:
            raise MiningError("positive must differ from the query")
        object.__setattr__(self, "negatives", tuple(self.negatives))


def observed_points(g: VisibilityGraph, image_id: str) -> frozenset:
    """Point-ids with an edge to the image."""
    obs = g.observation_map()
    if image_id not in obs:
        raise GraphError(f"unknown image {image_id!r}")
    return obs[image_id]


def candidate_pool(g: VisibilityGraph, query: str, k: int) -> list:
    """The k cluster images with camera centers closest to the query's."""
    if query not in g.images:
        raise GraphError(f"unknown image {query!r}")
    qc = g.images[query].center
    ranked = sorted(
        (float(np.linalg.norm(cam.center - qc)), img)
        for img, cam in g.images.items() if img != query
    )
    return [img for _, img in ranked[:k]]


def positive_m1(query: str, pool: list, descriptors: dict) -> str:
    """Pool member with the smallest descriptor distance to the query."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    dq = np.asarray(descriptors[query], dtype=np.float64)
    best = min(
        (float(np.linalg.norm(np.asarray(descriptors[i], dtype=np.float64) - dq)), i)
        for i in pool
    )
    return best[1]


def positive_m2(query: str, pool: list, g: VisibilityGraph) -> str:
    """Pool member co-observing the most 3D points with the query."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    pq = observed_points(g, query)
    best = min((-len(pq & observed_points(g, i)), i) for i in pool)
    return best[1]


def scale_change(g: VisibilityGraph, i: str, q: str) -> float:
    """Relative scale between two views of their shared points.

    Uses focal length over median shared-point depth as the scale of each
    view; the result is the larger of the ratio and its inverse, so it is
    symmetric and >= 1.
    """
    shared = observed_points(g, i) & observed_points(g, q)
    if not shared:
        raise NoSharedPointsError(f"{i!r} and {q!r} share no points")
    depth_map = g.depth_map()
    scales = {}
    for img in (i, q):
        of_img = depth_map[img]
        depths = sorted(of_img[pid] for pid in shared)
        if depths[0] <= 0:
            raise GeometryError(f"shared point behind camera {img!r}")
        # the middle depth, or the mean of the middle two: np.median's
        # arithmetic, without its per-call overhead
        mid = len(depths) // 2
        median = (depths[mid] if len(depths) % 2
                  else (depths[mid - 1] + depths[mid]) / 2)
        scales[img] = g.images[img].focal / median
    r = scales[i] / scales[q]
    return max(r, 1.0 / r)


def positive_m3(query: str, pool: list, g: VisibilityGraph, cfg: MiningConfig,
                stream: SeededStream) -> str:
    """Uniform draw over pool members with enough co-observed points and a
    bounded scale change; the feasible set is enumerated in ascending
    image-id order."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    pq = observed_points(g, query)
    feasible = []
    for i in sorted(pool):
        shared = pq & observed_points(g, i)
        if not pq or len(shared) / len(pq) < cfg.inlier_overlap:
            continue
        if scale_change(g, i, query) > cfg.scale_threshold:
            continue
        feasible.append(i)
    if not feasible:
        raise NoPositiveError(f"no feasible positive for {query!r}")
    return feasible[int(stream.integers(0, len(feasible)))]


def mine_negatives(query: str, descriptors: dict, cluster_of, n: int,
                   variant: str = "N2") -> list:
    """Most-similar images from other clusters, most similar first.

    N1 takes the top n outright; N2 greedily keeps at most one image per
    cluster. Ties in similarity break toward the lower image-id.
    """
    return _hard_negatives(query, descriptors[query], DescriptorDB(descriptors),
                           cluster_of, n, variant)


def _hard_negatives(query: str, dq, db: DescriptorDB, cluster_of, n: int,
                    variant: str) -> list:
    """The N1/N2 walk down the ranking of db by similarity to dq."""
    if variant not in ("N1", "N2"):
        raise ValueError(f"unknown negative variant {variant!r}")
    chosen = []
    excluded = {cluster_of(query)}
    for img, _ in search(db, dq, len(db)):
        c = cluster_of(img)
        if c in excluded:
            continue
        if variant == "N2":
            excluded.add(c)
        chosen.append(img)
        if len(chosen) == n:
            return chosen
    raise ShortListError(
        f"need {n} negatives for {query!r}, only {len(chosen)} available"
        f" (deficit {n - len(chosen)})")


def choose_queries(g: VisibilityGraph, stream: SeededStream) -> list:
    """Per-cluster query sample: 10% of the cluster (rounded up) for
    clusters of at most 300 images, else 30."""
    ids = sorted(g.images)
    size = len(ids)
    count = math.ceil(0.10 * size) if size <= 300 else 30
    order = stream.permutation(size)
    return sorted(ids[int(j)] for j in order[:count])


def build_tuples(graphs: list, descriptors: dict, cfg: MiningConfig,
                 positive_method: str = "m3", negative_variant: str = "N2",
                 stream: SeededStream | None = None,
                 query_clusters: set | None = None,
                 all_images_as_queries: bool = False):
    """Mine one tuple per feasible query across all clusters.

    Returns (tuples, skipped) where skipped lists (query_id, reason) for
    queries with no feasible positive or too few negative candidates. The
    candidate-negative universe holds, per cluster, a fixed seeded sample
    of candidate_negatives_per_cluster images plus the cluster's queries
    and chosen positives. query_clusters, when given, restricts which
    clusters contribute queries; every cluster still supplies negatives,
    which lets a small held-out split borrow negatives from the rest.
    all_images_as_queries skips the per-cluster query subsample and mines
    a tuple for every image; whitening fits need the denser pair set to
    estimate a stable intraclass scatter, training does not.
    """
    state = _MiningState(graphs, descriptors, cfg, positive_method, stream,
                         query_clusters, all_images_as_queries)
    return state.select(descriptors, negative_variant)


class _MiningState:
    """The descriptor-independent part of one mining run, fixed once
    computed: queries in cluster order, positives, the queries skipped
    for want of a positive, the negative universe and image -> cluster."""

    def __init__(self, graphs, descriptors, cfg, positive_method, stream,
                 query_clusters=None, all_images_as_queries=False):
        if positive_method not in ("m1", "m2", "m3"):
            raise ValueError(f"unknown positive method {positive_method!r}")
        if stream is None:
            stream = SeededStream(0)
        self.negatives = cfg.negatives
        self.cluster_of = {img: g.cluster_id
                           for g in graphs for img in g.images}
        by_cluster = {g.cluster_id: g for g in graphs}
        queries = {
            cid: (sorted(by_cluster[cid].images) if all_images_as_queries
                  else choose_queries(by_cluster[cid],
                                      stream.derive("queries", cid)))
            for cid in sorted(by_cluster) if query_clusters is None
            or cid in query_clusters}
        self.queries = []
        self.positives = {}
        self.skipped = []
        for cid, cluster_queries in queries.items():
            g = by_cluster[cid]
            for q in cluster_queries:
                self.queries.append(q)
                pool = candidate_pool(g, q, cfg.pool_size)
                try:
                    if positive_method == "m1":
                        self.positives[q] = positive_m1(q, pool, descriptors)
                    elif positive_method == "m2":
                        self.positives[q] = positive_m2(q, pool, g)
                    else:
                        self.positives[q] = positive_m3(
                            q, pool, g, cfg, stream.derive("m3", q))
                except NoPositiveError as exc:
                    self.skipped.append((q, str(exc)))
        # a seeded sample per cluster plus every query and positive, so
        # select() reads descriptors of the universe only
        universe = set(self.queries) | set(self.positives.values())
        for g in graphs:
            ids = sorted(g.images)
            take = min(cfg.candidate_negatives_per_cluster, len(ids))
            order = stream.derive("negpool", g.cluster_id).permutation(len(ids))
            universe.update(ids[int(j)] for j in order[:take])
        self.universe = sorted(universe)

    def select(self, descriptors: dict, variant: str):
        """(tuples, skipped): hard negatives for every query with a
        positive, ranked over one DescriptorDB of the universe; a query
        with too few candidates joins the skipped list."""
        skipped = list(self.skipped)
        if not self.positives:
            return [], skipped
        db = DescriptorDB({i: descriptors[i] for i in self.universe})
        tuples = []
        for q in self.queries:
            if q not in self.positives:
                continue
            try:
                negs = _hard_negatives(q, descriptors[q], db,
                                       self.cluster_of.__getitem__,
                                       self.negatives, variant)
            except ShortListError as exc:
                skipped.append((q, str(exc)))
                continue
            tuples.append(TrainingTuple(q, self.positives[q], tuple(negs)))
        return tuples, skipped


class TupleMiner:
    """Owns the fixed mining state across a training run.

    Queries, positives, the skipped queries and the candidate-negative
    universe are computed once at construction, as build_tuples computes
    them, from descriptors, an id -> vector map covering every image of
    graphs; positives never change afterwards. remine() embeds the
    universe with the caller's embedding and re-selects only negatives,
    over the same universe and with the same routine as the first
    selection.
    """

    def __init__(self, graphs, images: dict, cfg: MiningConfig,
                 descriptors: dict, positive_method: str = "m3",
                 negative_variant: str = "N2",
                 stream: SeededStream | None = None):
        self.images = images
        self.negative_variant = negative_variant
        self.state = _MiningState(list(graphs), descriptors, cfg,
                                  positive_method, stream)
        self.tuples, self.skipped = self.state.select(descriptors,
                                                      negative_variant)

    def current_tuples(self) -> list:
        return list(self.tuples)

    def image(self, image_id: str):
        return self.images[image_id]

    def remine(self, embed) -> None:
        """Re-select negatives under a fresh embedding; positives stay."""
        descriptors = {i: embed(self.images[i]) for i in self.state.universe}
        self.tuples, self.skipped = self.state.select(descriptors,
                                                      self.negative_variant)


# ---------------------------------------------------------------------------
# Scene and tuple files
# ---------------------------------------------------------------------------


def save_scene(path, g: VisibilityGraph) -> None:
    doc = {
        "cluster_id": g.cluster_id,
        "images": [
            {"id": img,
             "camera": {
                 "center": [float(v) for v in cam.center],
                 "rotation": [float(v) for v in cam.rotation.reshape(-1)],
                 "focal": float(cam.focal),
             }}
            for img, cam in sorted(g.images.items())
        ],
        "points": [
            {"id": pid, "xyz": [float(v) for v in xyz]}
            for pid, xyz in sorted(g.points.items())
        ],
        "edges": sorted([img, pid] for img, pid in g.edges),
    }
    with open(os.fspath(path), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_scene(path) -> VisibilityGraph:
    try:
        with open(os.fspath(path)) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"scene file is not valid JSON: {exc}") from exc
    try:
        images = {}
        for rec in doc["images"]:
            cam = rec["camera"]
            images[rec["id"]] = Camera(
                np.array(cam["center"], dtype=np.float64),
                np.array(cam["rotation"], dtype=np.float64).reshape(3, 3),
                float(cam["focal"]))
        points = {rec["id"]: np.array(rec["xyz"], dtype=np.float64)
                  for rec in doc["points"]}
        edges = {(img, pid) for img, pid in doc["edges"]}
        g = VisibilityGraph(str(doc["cluster_id"]), images, points, edges)
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise FormatError(f"malformed scene file: {exc}") from exc
    try:
        g.validate()
    except GraphError as exc:
        raise FormatError(f"invalid scene graph: {exc}") from exc
    return g


def save_tuples(path, tuples: list) -> None:
    with open(os.fspath(path), "w") as f:
        for t in tuples:
            json.dump({"q": t.query, "m": t.positive,
                       "negatives": list(t.negatives)}, f, sort_keys=True)
            f.write("\n")


def load_tuples(path) -> list:
    out = []
    with open(os.fspath(path)) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                out.append(TrainingTuple(doc["q"], doc["m"],
                                         tuple(doc["negatives"])))
            except (json.JSONDecodeError, KeyError, TypeError,
                    MiningError) as exc:
                raise FormatError(f"bad tuple on line {lineno}: {exc}") from exc
    return out
