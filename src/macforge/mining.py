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

import bisect
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

import numpy as np

from .ioutil import FormatError, load_json, read_text, write_json, write_text
from .numeric import SeededStream
from .retrieval import DescriptorDB, search

POSITIVE_METHODS = ("m1", "m2", "m3")
NEGATIVE_VARIANTS = ("N1", "N2")


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
        center = np.array(self.center, dtype=np.float64)  # copies
        rotation = np.array(self.rotation, dtype=np.float64)
        if center.shape != (3,) or rotation.shape != (3, 3):
            raise GraphError("camera needs a 3-vector center and 3x3 rotation")
        # the checks run on Python floats: a dozen numpy calls on 3x3
        # arrays would cost more than the arithmetic
        c, rows = tuple(center.tolist()), tuple(map(tuple, rotation.tolist()))
        if not all(map(math.isfinite, (*c, *chain(*rows), self.focal))):
            raise GraphError("camera center, rotation and focal must be finite")
        x, y, z = rows
        if max(abs(a[0] * b[0] + a[1] * b[1] + a[2] * b[2] - dot)
               for a, b, dot in ((x, x, 1.0), (y, y, 1.0), (z, z, 1.0),
                                 (x, y, 0.0), (x, z, 0.0), (y, z, 0.0))
               ) > 1e-9:
            raise GraphError("camera rotation is not orthonormal")
        # det = z . (x cross y)
        det = (z[0] * (x[1] * y[2] - x[2] * y[1])
               + z[1] * (x[2] * y[0] - x[0] * y[2])
               + z[2] * (x[0] * y[1] - x[1] * y[0]))
        if abs(det - 1.0) > 1e-9:
            raise GraphError("camera rotation must have determinant +1")
        if not self.focal > 0:
            raise GraphError("camera focal must be positive")
        center.flags.writeable = rotation.flags.writeable = False
        self.__dict__.update(center=center, rotation=rotation,
                             focal=float(self.focal), _center=c, _rows=rows)

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


@dataclass(frozen=True, eq=False)
class VisibilityGraph:
    """One reconstructed cluster as arrays: incidence[r, c] holds when
    image ids[r] (row r of centers and focals) observes point
    point_ids[c] (row c of xyz), ids ascending. Construction checks the
    graph (point ids unique, finite positions, two observers per point)
    and makes every field read-only, so every graph has passed the check
    and a derived() table never goes stale."""

    cluster_id: str
    images: Mapping  # image id -> Camera, ids ascending
    point_ids: tuple
    xyz: np.ndarray  # (points, 3) world positions
    incidence: np.ndarray  # (images, points) bool
    ids: tuple = field(init=False, repr=False)
    centers: np.ndarray = field(init=False, repr=False)
    focals: np.ndarray = field(init=False, repr=False)
    _derived: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        ids, point_ids = tuple(sorted(self.images)), tuple(self.point_ids)
        # copies, so no caller holds a writable view of the graph
        xyz = np.array(self.xyz, dtype=np.float64)
        incidence = np.array(self.incidence, dtype=bool)
        if (xyz.shape != (len(point_ids), 3)
                or incidence.shape != (len(ids), len(point_ids))
                or any(a >= b for a, b in zip(point_ids, point_ids[1:]))):
            raise GraphError("point ids must ascend, each once, and xyz "
                             "and incidence must fit the ids")
        for bad, fault in ((~np.isfinite(xyz).all(axis=1),
                            "need 3 finite coordinates"),
                           (incidence.sum(axis=0) < 2,
                            "have fewer than 2 observers")):
            if bad.any():
                named = [point_ids[c] for c in np.flatnonzero(bad)[:5]]
                raise GraphError(f"points {named} {fault}")
        cams = [self.images[i] for i in ids]
        centers = np.array([c.center for c in cams]).reshape(-1, 3)
        focals = np.array([c.focal for c in cams], dtype=np.float64)
        for a in (xyz, incidence, centers, focals):
            a.flags.writeable = False
        self.__dict__.update(
            images=MappingProxyType(dict(zip(ids, cams))), ids=ids,
            point_ids=point_ids, xyz=xyz, incidence=incidence,
            centers=centers, focals=focals)

    def row(self, image_id) -> int:
        """The row of image_id in incidence, centers and focals."""
        if image_id not in self.images:
            raise GraphError(f"unknown image {image_id!r}")
        return bisect.bisect_left(self.ids, image_id)

    @property
    def edges(self) -> frozenset:
        """The (image id, point id) pairs incidence marks."""
        return self.derived("edges", lambda g: frozenset(
            (g.ids[r], g.point_ids[c])
            for r, c in np.argwhere(g.incidence).tolist()))

    def derived(self, key, build):
        """The table `build(self)`, computed on first request per key."""
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]


def _depths(g: VisibilityGraph) -> np.ndarray:
    """Depths of the points in the cameras that see them, NaN elsewhere;
    coordinates() works row by row, so a depth has a one-point call's bits."""
    depths = [g.images[img].coordinates(g.xyz)[:, 2] for img in g.ids]
    return np.where(g.incidence, np.reshape(depths, g.incidence.shape),
                    np.nan)


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
    seen = np.flatnonzero(g.incidence[g.row(image_id)])
    return frozenset(g.point_ids[c] for c in seen.tolist())


def candidate_pool(g: VisibilityGraph, query: str, k: int) -> list:
    """The k cluster images with camera centers closest to the query's,
    nearest first; equal distances rank the lower image id first."""
    q = g.row(query)
    # np.linalg.norm's value, the root of one dot per row: a norm along
    # an axis rounds some distances differently
    dist = np.array([math.sqrt(d.dot(d)) for d in g.centers - g.centers[q]])
    order = np.argsort(dist, kind="stable")
    return [g.ids[r] for r in order[order != q][:k]]


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
    seen = g.incidence[g.row(query)]
    counts = (g.incidence[[g.row(i) for i in pool]] & seen).sum(axis=1)
    most = counts.max()
    return min(i for i, n in zip(pool, counts) if n == most)


def scale_change(g: VisibilityGraph, i: str, q: str) -> float:
    """Relative scale between two views of their shared points.

    Uses focal length over median shared-point depth as the scale of each
    view; the result is the larger of the ratio and its inverse, so it is
    symmetric and >= 1.
    """
    ri, rq = np.array([g.row(i)]), g.row(q)
    shared = g.incidence[ri] & g.incidence[rq]
    if not shared.any():
        raise NoSharedPointsError(f"{i!r} and {q!r} share no points")
    return float(_scale_changes(g, ri, rq, shared)[0])


def _scale_changes(g: VisibilityGraph, rows, q: int, shared) -> np.ndarray:
    """scale_change of each image row against image row q over that row
    of the (rows, points) mask shared, none empty; a point behind either
    camera raises GeometryError for the first such row, naming its image
    before q's. A median is np.median's: the middle depth or the mean of
    the middle two."""
    depths = g.derived("depths", _depths)
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
        img = g.ids[rows[j]] if behind[0, j] else g.ids[q]
        raise GeometryError(f"shared point behind camera {img!r}")
    scale = g.focals[pair] / median
    r = scale[0] / scale[1]
    return np.maximum(r, 1.0 / r)


def positive_m3(query: str, pool: list, g: VisibilityGraph, cfg: MiningConfig,
                stream: SeededStream) -> str:
    """Uniform draw over pool members with enough co-observed points and a
    bounded scale change; the feasible set is enumerated in ascending
    image-id order."""
    if not pool:
        raise NoPositiveError(f"empty candidate pool for {query!r}")
    members = sorted(pool)
    q = g.row(query)
    rows = np.array([g.row(i) for i in members])
    shared = g.incidence[rows] & g.incidence[q]
    # a query that sees nothing overlaps nothing: inlier_overlap is > 0
    overlap = shared.sum(axis=1) / max(int(g.incidence[q].sum()), 1)
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
    if variant not in NEGATIVE_VARIANTS:
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
    size = len(g.ids)
    count = math.ceil(0.10 * size) if size <= 300 else 30
    order = stream.permutation(size)
    return sorted(g.ids[int(j)] for j in order[:count])


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
        if positive_method not in POSITIVE_METHODS:
            raise ValueError(f"unknown positive method {positive_method!r}")
        if negative_variant not in NEGATIVE_VARIANTS:
            raise ValueError(f"unknown negative variant {negative_variant!r}")
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
            for q in (g.ids if all_images_as_queries
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
            take = min(cfg.candidate_negatives_per_cluster, len(g.ids))
            order = stream.derive("negpool", cid).permutation(len(g.ids))
            universe.update(g.ids[int(j)] for j in order[:take])
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
    """Write g's arrays as a compact scene file: ids ascending, and per
    image the ascending indices into points.ids of the points it
    observes. Every graph passed its checks when it was built, so every
    file written here loads, and loading it and saving again gives the
    same bytes. A graph with an id that is not a string is refused
    before the file is opened, as load_scene would refuse the file."""
    if not set(map(type, (g.cluster_id, *g.ids, *g.point_ids))) <= {str}:
        raise GraphError("a scene file needs string cluster, image and "
                         "point ids")
    doc = {
        "cluster_id": g.cluster_id,
        "images": {
            "ids": list(g.ids),
            "centers": g.centers.tolist(),
            "rotations": np.reshape([c.rotation for c in g.images.values()],
                                    (-1, 9)).tolist(),
            "focals": g.focals.tolist(),
            "points": [np.flatnonzero(row).tolist() for row in g.incidence],
        },
        "points": {"ids": list(g.point_ids), "xyz": g.xyz.tolist()},
    }
    write_json(path, doc)


def load_scene(path) -> VisibilityGraph:
    """The graph of a scene file that save_scene wrote. Each list is
    checked as a whole; only a list that fails is walked to name the
    field and id at fault. A file that gives no valid graph, one in the
    older edge-list layout included, is a FormatError."""
    doc = load_json(path, "scene file")
    if "edges" in doc:
        raise FormatError("scene file has the older edge-list layout; "
                          "synthesise the corpus again with macforge synth")
    try:
        cluster_id, images, points = (doc["cluster_id"], doc["images"],
                                      doc["points"])
        if type(cluster_id) is not str:
            raise ValueError(f"cluster_id {cluster_id!r} must be a string")
        image_ids = _ids(images["ids"], "image")
        point_ids = _ids(points["ids"], "point")
        centers = _floats(images["centers"], image_ids, "center of image",
                          "3 finite coordinates", 3)
        rotations = _floats(images["rotations"], image_ids,
                            "rotation of image", "9 finite numbers", 9)
        focals = _floats(images["focals"], image_ids, "focal of image",
                         "a finite number")
        xyz = _floats(points["xyz"], point_ids, "xyz of point",
                      "3 finite coordinates", 3)
        incidence = _incidence(images["points"], image_ids, len(point_ids))
        cameras = {}
        for img, center, rotation, focal in zip(
                image_ids, centers, rotations.reshape(-1, 3, 3),
                focals.tolist()):
            try:
                cameras[img] = Camera(center, rotation, focal)
            except GraphError as exc:
                raise GraphError(f"image {img!r}: {exc}") from None
        return VisibilityGraph(cluster_id, cameras, point_ids, xyz, incidence)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scene file: {exc}") from exc


def _ids(ids, kind: str) -> list:
    """ids, a JSON list of strings in strictly ascending order; else a
    ValueError naming the first id at fault."""
    if (isinstance(ids, list) and set(map(type, ids)) <= {str}
            and sorted(set(ids)) == ids):
        return ids
    if not isinstance(ids, list):
        raise ValueError(f"{kind} ids must be a list")
    seen = set()
    for k, i in enumerate(ids):
        if type(i) is not str:
            raise ValueError(f"{kind} id {i!r} must be a string")
        if i in seen:
            raise ValueError(f"duplicate {kind} id {i!r}")
        if k and i < ids[k - 1]:
            raise ValueError(f"{kind} ids must ascend: {i!r} follows "
                             f"{ids[k - 1]!r}")
        seen.add(i)
    raise AssertionError("unreachable")


def _floats(values, ids, label: str, want: str, width=0) -> np.ndarray:
    """values, one per id, as float64: a number each, or with width a
    list of width numbers each, shaped (ids, width); else a ValueError
    naming the first id at fault. float() and np.array would also take
    bools and numeric strings, so the types are checked first."""
    if not (isinstance(values, list) and len(values) == len(ids)):
        raise ValueError(f"{label}: need a list of one entry per id")
    rows_ok = not width or (set(map(type, values)) <= {list}
                            and set(map(len, values)) <= {width})
    flat = list(chain.from_iterable(values)) if width and rows_ok else values
    if rows_ok and set(map(type, flat)) <= {int, float}:
        try:
            out = np.array(flat, dtype=np.float64)
        except OverflowError as exc:  # an int beyond float64
            raise ValueError(f"{label}: {exc}") from None
        return out.reshape(-1, width) if width else out
    for i, v in zip(ids, values):
        row = v if width else [v]
        if not (isinstance(row, list) and len(row) == (width or 1)
                and set(map(type, row)) <= {int, float}):
            raise ValueError(f"{label} {i!r} must be {want}")
    raise AssertionError("unreachable")


def _incidence(rows, image_ids, n_points: int) -> np.ndarray:
    """The (images, points) bool matrix whose row k marks rows[k], the
    strictly ascending indices into points.ids that image k observes;
    else a ValueError naming the first image at fault. The flat index
    row * n_points + column ascends over all rows exactly when every
    row ascends, so one comparison checks them all."""
    if not (isinstance(rows, list) and len(rows) == len(image_ids)):
        raise ValueError("points of images: need a list of one entry per "
                         "image id")
    if set(map(type, rows)) <= {list}:
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int}:
            try:
                cols = np.array(flat, dtype=np.int64)
            except OverflowError:
                cols = None  # an index beyond int64, named below
            if cols is not None and ((0 <= cols) & (cols < n_points)).all():
                at = (np.repeat(np.arange(len(rows)) * n_points,
                                list(map(len, rows))) + cols)
                if (np.diff(at) > 0).all():
                    incidence = np.zeros((len(rows), n_points), dtype=bool)
                    incidence.flat[at] = True
                    return incidence
    for img, row in zip(image_ids, rows):
        if not isinstance(row, list):
            raise ValueError(f"points of image {img!r} must be a list")
        for k, c in enumerate(row):
            if type(c) is not int or not 0 <= c < n_points:
                raise ValueError(f"points of image {img!r}: {c!r} is not "
                                 f"a point index in range({n_points})")
            if k and c <= row[k - 1]:
                raise ValueError(f"points of image {img!r} must ascend, "
                                 f"each once: {c} follows {row[k - 1]}")
    raise AssertionError("unreachable")


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
