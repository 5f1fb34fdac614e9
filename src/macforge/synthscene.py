"""Synthetic 3D scenes: clustered point clouds, orbiting pinhole
cameras, visibility graphs, and deterministic blob-splat rendering.

Each cluster is an independent Gaussian point cloud observed by cameras
on randomized orbits that look at the cloud centroid. A visibility edge
(image, point) exists iff the point projects inside the frame with
positive depth and survives an occlusion coin flip. Visibility is
decided per camera over all of the cluster's points at once, and
render() projects all of an image's points at once, both through
Camera.coordinates: its formula is the one project() spells for a
single point, so the edges and splat centres are exactly those of a
per-point project() loop. Appearance (point colors, background
texture) is derived by hashing ids against a fixed constant, which
makes render() a pure function of (graph, image id, size). The id-only
parts (each point's color, the cluster-fixed backdrop waves per size)
are computed once per graph and cached on it, next to its observation
and depth tables. render() builds one table per image of the squared
distances from every pixel centre to every splat centre, plus each
splat's width and window, so its per-splat loop only takes the
exponential and blends.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mining import Camera, GraphError, VisibilityGraph, observed_points
from .numeric import SeededStream

DEFAULT_IMAGE_SIZE = 96

# base seed of the appearance hash; not a tunable
_APPEARANCE_SEED = 0x4D414346


class GenerationError(RuntimeError):
    """A cluster came out empty under the requested configuration."""


@dataclass(frozen=True)
class SceneConfig:
    clusters: int = 20
    images_per_cluster: tuple = (25, 40)
    points_per_cluster: tuple = (150, 300)
    image_size: int = DEFAULT_IMAGE_SIZE
    camera_orbit_radius: tuple = (2.5, 4.0)
    zoom_range: tuple = (0.7, 1.5)
    occlusion_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.clusters < 1:
            raise ValueError("need at least one cluster")
        for name in ("images_per_cluster", "points_per_cluster",
                     "camera_orbit_radius", "zoom_range"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"{name} must be a positive (lo, hi) "
                                 f"range, got ({lo}, {hi})")
        if self.images_per_cluster[0] < 2:
            raise ValueError("clusters need at least 2 images so points "
                             "can have 2 observers")
        if not 0.0 <= self.occlusion_rate <= 1.0:
            raise ValueError("occlusion_rate must be in [0, 1]")
        if self.image_size < 8:
            raise ValueError("image_size must be at least 8")


def look_at(center, target, up=(0.0, 0.0, 1.0)):
    """Rotation whose rows are the camera axes [right; down; forward]."""
    center = np.asarray(center, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - center
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("camera center coincides with its target")
    forward = forward / norm
    up = np.asarray(up, dtype=np.float64)
    if abs(forward @ up) > 0.999 * np.linalg.norm(up):
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(up, forward)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def project(camera, point, size):
    """Pinhole projection to (u, v, depth); principal point = center."""
    x, y, depth = camera.coordinates_of(point)
    if depth <= 0.0:
        return None, None, depth
    return (*_pixels(camera, x, y, depth, size), depth)


def _pixels(camera, x, y, depth, size):
    """(u, v) of camera coordinates ahead, as floats or as arrays."""
    half = size / 2.0
    return camera.focal * x / depth + half, camera.focal * y / depth + half


def _cluster_tag(index):
    return f"c{index:02d}"


def _in_frame(camera, positions, size):
    """project()'s visibility test (positive depth, 0 <= u < size and
    0 <= v < size) for every row of `positions` at once."""
    x, y, depth = camera.coordinates(positions).T
    ahead = depth > 0.0
    u, v = _pixels(camera, x[ahead], y[ahead], depth[ahead], size)
    inside = np.zeros(len(depth), dtype=bool)
    inside[ahead] = (0.0 <= u) & (u < size) & (0.0 <= v) & (v < size)
    return inside


def _cluster_geometry(cfg, tag, stream):
    """The cluster's points (id -> position) and cameras (id -> Camera),
    before any visibility decision."""
    n_points = int(stream.integers(cfg.points_per_cluster[0],
                                   cfg.points_per_cluster[1] + 1))
    n_images = int(stream.integers(cfg.images_per_cluster[0],
                                   cfg.images_per_cluster[1] + 1))
    positions = 0.5 * stream.derive("points").normal(size=(n_points, 3))
    points = {f"{tag}/p{j:04d}": positions[j] for j in range(n_points)}

    images = {}
    for i in range(n_images):
        s = stream.derive("camera", i)
        direction = s.normal(size=3)
        direction = direction / np.linalg.norm(direction)
        radius = float(s.uniform(*cfg.camera_orbit_radius))
        center = radius * direction
        focal = cfg.image_size * float(s.uniform(*cfg.zoom_range))
        images[f"{tag}/i{i:03d}"] = Camera(
            center=center, rotation=look_at(center, np.zeros(3)),
            focal=focal)
    return points, images


def _generate_cluster(cfg, index, stream):
    tag = _cluster_tag(index)
    points, images = _cluster_geometry(cfg, tag, stream)
    # seen[r, c]: image r keeps an edge to point c (ids ascending); the
    # coins are drawn per image in point-id order
    point_ids = sorted(points)
    positions = np.array([points[p] for p in point_ids])
    image_ids = sorted(images)
    seen = np.array([
        _in_frame(images[i], positions, cfg.image_size)
        & (stream.derive("occlusion", i).random(len(point_ids))
           >= cfg.occlusion_rate)
        for i in image_ids])
    kept = np.flatnonzero(seen.sum(axis=0) >= 2)
    if not len(kept):
        raise GenerationError(
            f"cluster {tag} retained no points; loosen the configuration")
    kept_ids = [point_ids[c] for c in kept.tolist()]
    edges = {(image_id, kept_ids[c])
             for image_id, row in zip(image_ids, seen[:, kept])
             for c in np.flatnonzero(row).tolist()}
    points = {p: points[p] for p in kept_ids}
    return VisibilityGraph(cluster_id=tag, images=images, points=points,
                           edges=edges)


def generate(cfg):
    """Build one visibility graph per cluster; point ids are disjoint
    across clusters by construction."""
    root = SeededStream(cfg.seed)
    return [_generate_cluster(cfg, k, root.derive("cluster", k))
            for k in range(cfg.clusters)]


def _appearance(*labels):
    return SeededStream(_APPEARANCE_SEED).derive(*labels)


def _point_colors(graph):
    # every cluster owns a small anchor palette; points jitter around
    # one anchor, so cluster identity is carried by stable colors that
    # persist across viewpoints
    anchors = 0.2 + 0.8 * _appearance("palette", graph.cluster_id).random((3, 3))
    colors = {}
    for point_id in graph.points:
        s = _appearance("color", graph.cluster_id, point_id)
        anchor = anchors[int(s.integers(0, 3))]
        # shaped (3, 1, 1) to broadcast over a splat's patch
        colors[point_id] = np.clip(anchor + s.uniform(-0.08, 0.08, size=3),
                                   0.0, 1.0)[:, None, None]
    return colors


def _waves(coords, freqs, phases):
    return [np.sin(2.0 * math.pi
                   * (freqs[h, 0] * coords[None, :]
                      + freqs[h, 1] * coords[:, None]) + phases[h])
            for h in range(len(phases))]


def _cluster_waves(cluster_id, size):
    s = _appearance("background", cluster_id)
    freqs = s.uniform(0.5, 3.0, size=(3, 2))
    weights = 0.015 + 0.015 * s.random((3, 3))
    phases = s.uniform(0.0, 2.0 * math.pi, size=3)
    coords = (np.arange(size) + 0.5) / size
    return weights, _waves(coords, freqs, phases)


def _background(graph, image_id, size):
    # the background is mostly per-image nuisance (random tint and
    # waves) with only a faint cluster-fixed pattern, so cluster
    # identity lives in the splatted points rather than the backdrop
    cluster_weights, cluster_waves = graph.derived(
        ("backdrop", size), lambda g: _cluster_waves(g.cluster_id, size))
    si = _appearance("image", graph.cluster_id, image_id)
    base = 0.2 + 0.3 * si.random(3)
    image_freqs = si.uniform(1.0, 4.0, size=(2, 2))
    image_weights = 0.05 + 0.06 * si.random((2, 3))
    image_phases = si.uniform(0.0, 2.0 * math.pi, size=2)

    coords = (np.arange(size) + 0.5) / size
    img = np.broadcast_to(base[:, None, None], (3, size, size)).copy()
    # waves are weighted and added one by one, in a fixed order: float
    # addition does not associate, so summing the cluster waves first
    # would change the float64 backdrop the splats are blended into
    weights = list(cluster_weights) + list(image_weights)
    waves = cluster_waves + _waves(coords, image_freqs, image_phases)
    for weight, wave in zip(weights, waves):
        img += weight[:, None, None] * wave[None, :, :]
    return np.clip(img, 0.0, 1.0)


def render(graph, image_id, size=DEFAULT_IMAGE_SIZE):
    """Splat the image's visible points over a procedural background.

    Pure in (graph, image_id, size): repeated calls are bit-identical.
    Point colors and the cluster-fixed backdrop waves are pure in ids,
    so they are computed once per graph and kept on it (see
    VisibilityGraph.derived); a cached table gives the same bits as a
    fresh one. Splats are painted far to near so closer points occlude.
    """
    if image_id not in graph.images:
        raise GraphError(f"unknown image id {image_id!r}")
    camera = graph.images[image_id]
    img = _background(graph, image_id, size)
    colors = graph.derived("point_colors", _point_colors)

    point_ids = sorted(observed_points(graph, image_id))
    positions = np.array([graph.points[p] for p in point_ids],
                         dtype=np.float64).reshape(-1, 3)
    x, y, depth = camera.coordinates(positions).T
    # far to near, equal depths in point-id order; none behind
    order = np.argsort(-depth, kind="stable")
    order = order[depth[order] > 0.0]
    if not len(order):
        return img.astype(np.float32)
    point_ids = [point_ids[k] for k in order.tolist()]
    depth = depth[order]
    u, v = _pixels(camera, x[order], y[order], depth, size)

    # perspective splat width: world radius scaled by focal over depth,
    # clamped so distant points stay visible and near ones stay local
    radius = 0.1
    sigma = np.minimum(np.maximum(radius * camera.focal / depth,
                                  size / 96.0), size / 12.0)
    support = np.ceil(3.0 * sigma)
    # each splat's window, clipped to the frame before the integer cast;
    # an empty window (x0 >= x1 or y0 >= y1) paints nothing
    x0 = np.clip(np.floor(u - support), 0, size).astype(int).tolist()
    x1 = np.clip(np.ceil(u + support) + 1, 0, size).astype(int).tolist()
    y0 = np.clip(np.floor(v - support), 0, size).astype(int).tolist()
    y1 = np.clip(np.ceil(v + support) + 1, 0, size).astype(int).tolist()
    # squared distances from every pixel centre to every splat centre; a
    # window slices its splat's row, the bits a per-window arange gives
    centres = np.arange(size) + 0.5
    dx2 = (centres[None, :] - u[:, None]) ** 2
    dy2 = (centres[None, :] - v[:, None]) ** 2
    # dividing by the negated width is exact: the same exponent as
    # -(dx2 + dy2) / (2 sigma^2), one array pass fewer
    width = -(2.0 * sigma * sigma)
    for k, point_id in enumerate(point_ids):
        if x0[k] >= x1[k] or y0[k] >= y1[k]:
            continue
        xs, ys = slice(x0[k], x1[k]), slice(y0[k], y1[k])
        alpha = np.exp((dx2[k, None, xs] + dy2[k, ys, None]) / width[k])
        # in place, but the same products and sum per pixel as
        # patch * (1 - alpha) + color * alpha
        patch = img[:, ys, xs]
        patch *= 1.0 - alpha
        patch += colors[point_id] * alpha
    return img.astype(np.float32)
