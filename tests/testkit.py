"""Helpers shared by several test files: finite-difference gradients
and their margin filter, visibility graphs from edges or at random,
faults in scene files, random Lw and PCAw projections, traced
allocation peaks and calls in a child interpreter."""

import ast
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np

from macforge.backbone import NetParams, forward
from macforge.mining import Camera, VisibilityGraph
from macforge.whitening import fit_lw, fit_pcaw


def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of a scalar function at x by central finite differences.

    Works in 64-bit regardless of the input dtype. fn is called with a
    temporarily perturbed copy of x and must not retain a reference to it.
    """
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(fn(x))
        flat[i] = orig - h
        lo = float(fn(x))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(analytic, fd, floor=1e-6):
    """Largest elementwise |analytic - fd| / max(|analytic| + |fd|, floor)."""
    denom = np.maximum(np.abs(analytic) + np.abs(fd), floor)
    return float(np.max(np.abs(analytic - fd) / denom))


def margins_ok(spec, params, x, margin=1e-3):
    """Reject instances where a relu kink or a max-pool tie sits near the
    finite-difference step, which would invalidate the oracle. A window
    whose top two are clamped zeros is locally constant, so that tie is
    harmless; any other top two must be `margin` apart."""
    for i, layer in enumerate(spec):
        if i == 0:
            pre = x
        else:
            n_conv = sum(1 for l in spec[:i] if l.kind == "conv")
            prefix = NetParams(params.weights[:n_conv], params.biases[:n_conv])
            pre, _ = forward(prefix, spec[:i], x)
        if layer.kind == "relu" and np.min(np.abs(pre)) < margin:
            return False
        if layer.kind == "maxpool":
            w, s = layer.window, layer.stride
            win = np.lib.stride_tricks.sliding_window_view(
                pre, (w, w), axis=(1, 2))[:, ::s, ::s]
            flat = np.sort(win.reshape(*win.shape[:3], -1))
            if flat.shape[-1] > 1:
                top, second = flat[..., -1], flat[..., -2]
                zeros = (top == 0.0) & (second == 0.0)
                if np.any((top - second < margin) & ~zeros):
                    return False
    return True


def look_at(center, target=(0.0, 0.0, 0.0), up=(0.0, 0.0, 1.0)):
    """Rotation whose rows are camera axes, optical axis toward target."""
    center = np.asarray(center, dtype=np.float64)
    fwd = np.asarray(target, dtype=np.float64) - center
    fwd = fwd / np.linalg.norm(fwd)
    up = np.asarray(up, dtype=np.float64)
    right = np.cross(fwd, up)
    if np.linalg.norm(right) < 1e-9:
        right = np.cross(fwd, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd])


def graph_of_edges(cluster_id, images, points, edges):
    """The VisibilityGraph of (image id, point id) edges over the images
    and points mappings (id -> Camera, id -> position)."""
    ids, point_ids = sorted(images), sorted(points)
    row = {img: r for r, img in enumerate(ids)}
    col = {pid: c for c, pid in enumerate(point_ids)}
    incidence = np.zeros((len(ids), len(point_ids)), dtype=bool)
    for img, pid in edges:
        incidence[row[img], col[pid]] = True
    xyz = np.array([points[p] for p in point_ids], float).reshape(-1, 3)
    return VisibilityGraph(cluster_id, images, point_ids, xyz, incidence)


def random_graph(stream, cluster_id="c0", n_images=8, n_points=30,
                 all_edges=False):
    """Cameras on a sphere looking at the origin, points in the unit ball."""
    images = {}
    for i in range(n_images):
        s = stream.derive("cam", i)
        direction = s.normal(size=3)
        direction = direction / np.linalg.norm(direction)
        center = direction * float(s.uniform(4.0, 8.0))
        images[f"{cluster_id}/i{i:03d}"] = Camera(
            center, look_at(center), float(s.uniform(80.0, 160.0)))
    points = {}
    for p in range(n_points):
        points[p] = stream.derive("pt", p).uniform(-1.0, 1.0, 3)
    ids = sorted(images)
    edges = set()
    for p in range(n_points):
        if all_edges:
            observers = ids
        else:
            s = stream.derive("edge", p)
            count = int(s.integers(2, min(6, n_images) + 1))
            order = s.permutation(n_images)
            observers = [ids[int(j)] for j in order[:count]]
        for img in observers:
            edges.add((img, p))
    return graph_of_edges(cluster_id, images, points, edges)


def positions(g):
    """point id -> world position: the rows of g.xyz by point_ids."""
    return dict(zip(g.point_ids, g.xyz))


def named_points(g):
    """g with point p renamed "p0007" and so on, as a scene file needs
    string ids; the zero padding keeps the points in the same order."""
    name = "p{:04d}".format
    return graph_of_edges(
        g.cluster_id, g.images,
        {name(p): xyz for p, xyz in positions(g).items()},
        {(img, name(p)) for img, p in g.edges})


def repeat_first_id(doc, field):
    """Append to every list of the scene document's "images" or "points"
    the second record's value, under the first record's id; returns
    that id."""
    for key, values in doc[field].items():
        values.append(values[0] if key == "ids" else values[1])
    return doc[field]["ids"][0]


def _set(*path_and_value):
    """An edit that sets doc[path...] to value."""
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def _index_past_the_end(doc):
    doc["images"]["points"][0].append(len(doc["points"]["ids"]))


def _index_twice(doc):
    row = doc["images"]["points"][0]
    row.insert(0, row[0])


def _point_ids_swapped(doc):
    ids = doc["points"]["ids"]
    ids[0], ids[1] = ids[1], ids[0]


def _old_layout(doc):
    """The edge-list layout scene files had before they held arrays."""
    images, points = doc["images"], doc["points"]
    old = {"cluster_id": doc["cluster_id"],
           "images": [{"id": img, "camera": {"center": c, "rotation": r,
                                             "focal": f}}
                      for img, c, r, f in zip(images["ids"],
                                              images["centers"],
                                              images["rotations"],
                                              images["focals"])],
           "points": [{"id": p, "xyz": xyz}
                      for p, xyz in zip(points["ids"], points["xyz"])],
           "edges": [[img, points["ids"][c]]
                     for img, row in zip(images["ids"], images["points"])
                     for c in row]}
    doc.clear()
    doc.update(old)


# fault -> (an edit of a parsed scene document, text the error names);
# json.dumps writes a NaN or an infinity as the literal NaN or Infinity
SCENE_FAULTS = {
    "index-out-of-range": (_index_past_the_end, "is not a point index"),
    "index-repeated": (_index_twice, "must ascend, each once"),
    "point-ids-not-ascending": (_point_ids_swapped, "point ids must ascend"),
    "nan-literal": (_set("points", "xyz", 0, 1, math.nan), "finite"),
    "infinity-literal": (_set("images", "centers", 0, 2, math.inf),
                         "finite"),
    "old-layout": (_old_layout, "synthesise the corpus again"),
    "cluster-id-number": (_set("cluster_id", 5), "cluster_id 5 must be"),
    "cluster-id-bool": (_set("cluster_id", True), "cluster_id True must be"),
    "image-id-number": (_set("images", "ids", 0, 5), "image id 5 must be"),
    "point-id-number": (_set("points", "ids", 0, 7), "point id 7 must be"),
}


def random_pcaw(stream, dim=32):
    vectors = [stream.normal(size=dim) for _ in range(6 * dim)]
    return fit_pcaw(vectors)


def random_lw(stream, dim=32):
    matching = [(stream.normal(size=dim), stream.normal(size=dim))
                for _ in range(6 * dim)]
    nonmatching = [(stream.normal(size=dim), stream.normal(size=dim))
                   for _ in range(6 * dim)]
    return fit_lw(matching, nonmatching, [a for a, _ in matching])


def child_env():
    """The environment for a child interpreter that imports this
    checkout's macforge."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def in_new_interpreter(module, function):
    """module.function() called in a new interpreter started in the test
    directory, its printed result read back as a Python literal.

    A peak traced in the test process moves with every test that ran
    before: the table of interned strings (1.9 MB at 2**17 slots) is
    rebuilt whenever its free slots run out, maybe inside the traced
    window."""
    child = subprocess.run(
        [sys.executable, "-c",
         f"import {module}; print({module}.{function}())"],
        cwd=os.path.dirname(os.path.abspath(__file__)), env=child_env(),
        capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return ast.literal_eval(child.stdout)


def traced_peak(fn, *args):
    """Bytes traced at fn's peak above what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
