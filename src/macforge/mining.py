"""Training-tuple mining from 3D-reconstruction visibility graphs.

A scene cluster is a bipartite graph between images (with known cameras)
and 3D points. Queries are drawn per cluster; a hard positive comes from
the camera-neighborhood pool by one of three methods (m1 descriptor
similarity, m2 co-observation count, m3 random under overlap and scale
constraints); hard negatives are the most similar descriptors from other
clusters, either unrestricted (N1) or at most one per cluster (N2). m1
and N1/N2 rank by retrieval.search.

All argmin/argmax ties break toward the lower image-id so every selection
is reproducible and oracle-comparable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .ioutil import (
    FormatError,
    is_number,
    load_json,
    numbers,
    read_text,
    write_json,
    write_text,
)
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
    coordinates (third row = optical axis).

    Camera coordinate k of a world point P is r0*d0 + r1*d1 + r2*d2 with
    r = rotation[k] and d = P - center, each operation rounded on its
    own and added left to right (no BLAS call, no fused multiply-add).
    coordinates() computes it over arrays and coordinates_of() over
    Python floats; IEEE 754 rounds both alike, so their bits agree."""

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
        object.__setattr__(self, "_center", tuple(center.tolist()))
        object.__setattr__(self, "_rows", tuple(map(tuple, rotation.tolist())))

    def coordinates(self, points) -> np.ndarray:
        """The (n, 3) camera coordinates of the rows of (n, 3) `points`."""
        d = np.asarray(points, dtype=np.float64) - self.center
        p = d[:, None, :] * self.rotation
        return p[..., 0] + p[..., 1] + p[..., 2]

    def coordinates_of(self, point) -> list:
        """coordinates() of one point, as three Python floats."""
        p0, p1, p2 = np.asarray(point, dtype=np.float64).tolist()
        c0, c1, c2 = self._center
        d0, d1, d2 = p0 - c0, p1 - c1, p2 - c2
        return [r0 * d0 + r1 * d1 + r2 * d2 for r0, r1, r2 in self._rows]

    def depth_of(self, point: np.ndarray) -> float:
        return self.coordinates_of(point)[2]


# derived tables are computed from these; reassigning one drops them
_GRAPH_FIELDS = frozenset({"cluster_id", "images", "points", "edges"})


@dataclass
class VisibilityGraph:
    """One reconstructed cluster: images with cameras, points, and the
    image-observes-point edge set.

    Tables derived from the fields (tables(), depths, appearance) are
    computed once and kept on the graph until a field is reassigned;
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
        observers = Counter(pid for _, pid in self.edges)
        thin = sorted(pid for pid in self.points if observers[pid] < 2)
        if thin:
            raise GraphError(
                f"points observed by fewer than 2 images: {thin[:5]}"
                + ("..." if len(thin) > 5 else ""))

    def tables(self) -> SimpleNamespace:
        """The graph as arrays (cached): image ids[r] (ascending) has row r
        of centers, focals and incidence, whose [r, c] holds when it sees
        point point_ids[c]; row maps an image id to its row."""
        return self.derived("tables", _tables)


def _tables(g: VisibilityGraph) -> SimpleNamespace:
    ids = sorted(g.images)
    row = {img: r for r, img in enumerate(ids)}
    col = {pid: c for c, pid in enumerate(dict.fromkeys(p for _, p in g.edges))}
    incidence = np.zeros((len(ids), len(col)), dtype=bool)
    incidence[[row[i] for i, _ in g.edges], [col[p] for _, p in g.edges]] = True
    cams = [g.images[i] for i in ids]
    return SimpleNamespace(
        ids=ids, row=row, point_ids=list(col), incidence=incidence,
        centers=np.array([c.center for c in cams]).reshape(-1, 3),
        focals=np.array([c.focal for c in cams], dtype=np.float64))


def _depths(g: VisibilityGraph) -> np.ndarray:
    """Depths of the points in the cameras that see them, NaN elsewhere."""
    t = g.tables()
    xyz = np.array([g.points[p] for p in t.point_ids], np.float64).reshape(-1, 3)
    depths = np.full(t.incidence.shape, np.nan)
    for r, img in enumerate(t.ids):
        cols = np.flatnonzero(t.incidence[r])
        depths[r, cols] = g.images[img].coordinates(xyz[cols])[:, 2]
    return depths


def _row(t: SimpleNamespace, image_id) -> int:
    if image_id not in t.row:
        raise GraphError(f"unknown image {image_id!r}")
    return t.row[image_id]


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
    t = g.tables()
    seen = np.flatnonzero(t.incidence[_row(t, image_id)])
    return frozenset(t.point_ids[c] for c in seen)


def candidate_pool(g: VisibilityGraph, query: str, k: int) -> list:
    """The k cluster images with camera centers closest to the query's,
    nearest first; equal distances rank the lower image id first."""
    t = g.tables()
    q = _row(t, query)
    # np.linalg.norm's value, the root of one dot per row: a norm along
    # an axis rounds some distances differently
    dist = np.array([math.sqrt(d.dot(d)) for d in t.centers - t.centers[q]])
    order = np.argsort(dist, kind="stable")
    return [t.ids[r] for r in order[order != q][:k]]


def positive_m1(query: str, pool: list, descriptors: dict) -> str:
    """Pool member whose descriptor is most similar to the query's (inner
    product); equal similarities pick the lower image id."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    db = DescriptorDB({i: descriptors[i] for i in pool})
    return db.ids[search(db, descriptors[query])[0]]


def positive_m2(query: str, pool: list, g: VisibilityGraph) -> str:
    """Pool member co-observing the most 3D points with the query."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    t = g.tables()
    seen = t.incidence[_row(t, query)]
    counts = (t.incidence[[_row(t, i) for i in pool]] & seen).sum(axis=1)
    most = counts.max()
    return min(i for i, n in zip(pool, counts) if n == most)


def scale_change(g: VisibilityGraph, i: str, q: str) -> float:
    """Relative scale between two views of their shared points.

    Uses focal length over median shared-point depth as the scale of each
    view; the result is the larger of the ratio and its inverse, so it is
    symmetric and >= 1.
    """
    t = g.tables()
    ri, rq = np.array([_row(t, i)]), _row(t, q)
    shared = t.incidence[ri] & t.incidence[rq]
    if not shared.any():
        raise NoSharedPointsError(f"{i!r} and {q!r} share no points")
    return float(_scale_changes(g, ri, rq, shared)[0])


def _scale_changes(g: VisibilityGraph, rows, q: int, shared) -> np.ndarray:
    """scale_change of each image row against image row q over that row
    of the (rows, points) mask shared, none empty; a point behind either
    camera raises GeometryError for the first such row, naming its image
    before q's. A median is np.median's: the middle depth or the mean of
    the middle two."""
    t, depths = g.tables(), g.derived("depths", _depths)
    pair = np.stack([rows, np.full_like(rows, q)])  # the rows, then q
    ordered = np.sort(np.where(shared, depths[pair], np.inf), axis=2)
    counts = shared.sum(axis=1)
    mid, at = counts // 2, np.arange(len(rows))
    upper = ordered[:, at, mid]
    lower = ordered[:, at, np.maximum(mid - 1, 0)]
    median = np.where(counts % 2, upper, (lower + upper) / 2)
    behind = ordered[:, :, 0] <= 0
    if behind.any():
        j = int(np.argmax(behind.any(axis=0)))
        img = t.ids[rows[j]] if behind[0, j] else t.ids[q]
        raise GeometryError(f"shared point behind camera {img!r}")
    scale = t.focals[pair] / median
    r = scale[0] / scale[1]
    return np.maximum(r, 1.0 / r)


def positive_m3(query: str, pool: list, g: VisibilityGraph, cfg: MiningConfig,
                stream: SeededStream) -> str:
    """Uniform draw over pool members with enough co-observed points and a
    bounded scale change; the feasible set is enumerated in ascending
    image-id order."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    t, members = g.tables(), sorted(pool)
    q = _row(t, query)
    rows = np.array([_row(t, i) for i in members])
    shared = t.incidence[rows] & t.incidence[q]
    # a query that sees nothing overlaps nothing: inlier_overlap is > 0
    overlap = shared.sum(axis=1) / max(int(t.incidence[q].sum()), 1)
    near = np.flatnonzero(overlap >= cfg.inlier_overlap)
    changes = _scale_changes(g, rows[near], q, shared[near]) if near.size else []
    feasible = [members[j] for j, change in zip(near, changes)
                if change <= cfg.scale_threshold]
    if not feasible:
        raise NoPositiveError(f"no feasible positive for {query!r}")
    return feasible[int(stream.integers(0, len(feasible)))]


def mine_negatives(query: str, dq, db: DescriptorDB, cluster_of, n: int,
                   variant: str) -> list:
    """The db images from clusters other than the query's that are most
    similar to its descriptor dq, most similar first.

    N1 takes the top n outright; N2 greedily keeps at most one image per
    cluster. Ties in similarity break toward the lower image-id.
    """
    if variant not in ("N1", "N2"):
        raise ValueError(f"unknown negative variant {variant!r}")
    chosen = []
    excluded = {cluster_of(query)}
    for row in search(db, dq):
        img = db.ids[row]
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
    miner = TupleMiner(graphs, descriptors, cfg, positive_method,
                       negative_variant, stream, query_clusters,
                       all_images_as_queries)
    return miner.tuples, miner.skipped


class TupleMiner:
    """One mining run: build_tuples' first selection, then re-mining.

    Construction takes build_tuples' arguments, fixes the queries in
    cluster order, their positives, the queries without one, the
    candidate-negative universe and image -> cluster, then selects hard
    negatives into tuples/skipped. remine() asks the caller for the
    descriptors of the universe ids in one call and re-selects only
    negatives, over the same universe with the same routine.
    """

    def __init__(self, graphs, descriptors: dict, cfg: MiningConfig,
                 positive_method="m3", negative_variant="N2", stream=None,
                 query_clusters=None, all_images_as_queries=False):
        if positive_method not in ("m1", "m2", "m3"):
            raise ValueError(f"unknown positive method {positive_method!r}")
        if stream is None:
            stream = SeededStream(0)
        self.negatives = cfg.negatives
        self.negative_variant = negative_variant
        self.cluster_of = {}
        by_cluster = {}
        for g in graphs:
            if by_cluster.setdefault(g.cluster_id, g) is not g:
                raise GraphError(
                    f"cluster id {g.cluster_id!r} names two clusters")
            for img in g.images:
                cid = self.cluster_of.setdefault(img, g.cluster_id)
                if cid != g.cluster_id:
                    raise GraphError(f"image {img!r} is in clusters {cid!r} "
                                     f"and {g.cluster_id!r}")
        missing = [i for i in sorted(self.cluster_of) if i not in descriptors]
        if missing:
            raise FormatError(f"scene image {missing[0]!r} has no descriptor")
        queries = []
        self.positives = {}
        self.no_positive = []
        for cid, g in sorted(by_cluster.items()):
            if query_clusters is not None and cid not in query_clusters:
                continue
            for q in (sorted(g.images) if all_images_as_queries
                      else choose_queries(g, stream.derive("queries", cid))):
                queries.append(q)
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
                    self.no_positive.append((q, str(exc)))
        # a seeded sample per cluster plus every query and positive, so
        # a selection reads descriptors of the universe only
        universe = set(queries) | set(self.positives.values())
        for cid, g in by_cluster.items():
            ids = sorted(g.images)
            take = min(cfg.candidate_negatives_per_cluster, len(ids))
            order = stream.derive("negpool", cid).permutation(len(ids))
            universe.update(ids[int(j)] for j in order[:take])
        self.universe = sorted(universe)
        self._select(descriptors)

    def current_tuples(self) -> list:
        return list(self.tuples)

    def remine(self, describe) -> None:
        """Re-select negatives from describe, a function from a list of
        image ids to their descriptors under the current network, in
        order; positives stay."""
        self._select(dict(zip(self.universe, describe(self.universe))))

    def _select(self, descriptors: dict) -> None:
        """Set tuples and skipped: hard negatives for every query with a
        positive, ranked over one DescriptorDB of the universe; a query
        with too few candidates joins the skipped list."""
        self.tuples = []
        self.skipped = list(self.no_positive)
        if not self.positives:
            return
        db = DescriptorDB({i: descriptors[i] for i in self.universe})
        for q, positive in self.positives.items():
            try:
                negs = mine_negatives(q, descriptors[q], db,
                                      self.cluster_of.__getitem__,
                                      self.negatives, self.negative_variant)
            except ShortListError as exc:
                self.skipped.append((q, str(exc)))
                continue
            self.tuples.append(TrainingTuple(q, positive, negs))


# ---------------------------------------------------------------------------
# Scene and tuple files
# ---------------------------------------------------------------------------


def save_scene(path, g: VisibilityGraph) -> None:
    """Write g as a scene file; a graph that fails g.validate() is a
    GraphError, so every file written here loads."""
    g.validate()
    doc = {
        "cluster_id": g.cluster_id,
        "images": [{"id": img, "camera": {
                        "center": cam.center.tolist(),
                        "rotation": cam.rotation.reshape(-1).tolist(),
                        "focal": cam.focal}}
                   for img, cam in sorted(g.images.items())],
        "points": [{"id": pid, "xyz": np.asarray(xyz, np.float64).tolist()}
                   for pid, xyz in sorted(g.points.items())],
        "edges": sorted([img, pid] for img, pid in g.edges),
    }
    write_json(path, doc, indent=1)


def load_scene(path) -> VisibilityGraph:
    doc = load_json(path, "scene file")
    try:
        images = {}
        for rec in doc["images"]:
            cam, img = rec["camera"], rec["id"]
            if not is_number(cam["focal"]):
                raise ValueError(f"focal of image {img!r} must be a number")
            images[img] = Camera(
                numbers(cam["center"], f"center of image {img!r}"),
                numbers(cam["rotation"], f"rotation of image {img!r}").reshape(3, 3),
                float(cam["focal"]))
        points = {rec["id"]: numbers(rec["xyz"], f"xyz of point {rec['id']!r}")
                  for rec in doc["points"]}
        edges = {(img, pid) for img, pid in doc["edges"]}
        g = VisibilityGraph(str(doc["cluster_id"]), images, points, edges)
    except (KeyError, TypeError, ValueError, OverflowError, GraphError) as exc:
        raise FormatError(f"malformed scene file: {exc}") from exc
    try:
        g.validate()
    except GraphError as exc:
        raise FormatError(f"invalid scene graph: {exc}") from exc
    return g


def save_tuples(path, tuples: list) -> None:
    write_text(path, "".join(
        json.dumps({"q": t.query, "m": t.positive,
                    "negatives": list(t.negatives)}, sort_keys=True) + "\n"
        for t in tuples))


def load_tuples(path) -> list:
    lines = read_text(path, "tuple file").split("\n")
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            q, m, negatives = doc["q"], doc["m"], doc["negatives"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"bad tuple on line {lineno}: {exc}") from exc
        # tuple() of a string would split it into characters
        if not (isinstance(q, str) and isinstance(m, str)
                and isinstance(negatives, list)
                and all(isinstance(n, str) for n in negatives)):
            raise FormatError(f"bad tuple on line {lineno}: q and m must "
                              "be image ids, negatives a list of them")
        try:
            out.append(TrainingTuple(q, m, tuple(negatives)))
        except MiningError as exc:
            raise FormatError(f"bad tuple on line {lineno}: {exc}") from exc
    return out
