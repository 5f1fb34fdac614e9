"""Tests for synthetic scene generation and rendering."""

import math

import numpy as np
import pytest

from macforge.mining import Camera, GraphError, VisibilityGraph, save_scene
from macforge.numeric import SeededStream
from macforge import synthscene
from macforge.synthscene import (
    GenerationError,
    _appearance,
    _background,
    _cluster_geometry,
    _in_frame,
    _pixels,
    SceneConfig,
    generate,
    look_at,
    project,
    render,
)

SMALL = SceneConfig(clusters=3, images_per_cluster=(4, 6),
                    points_per_cluster=(30, 50), image_size=48,
                    seed=123)


class TestSceneConfig:
    def test_defaults_are_valid(self):
        cfg = SceneConfig()
        assert cfg.clusters == 20
        assert cfg.occlusion_rate == 0.2
        assert cfg.zoom_range == (0.7, 1.5)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SceneConfig(clusters=0)
        with pytest.raises(ValueError):
            SceneConfig(images_per_cluster=(1, 5))
        with pytest.raises(ValueError):
            SceneConfig(points_per_cluster=(10, 5))
        with pytest.raises(ValueError):
            SceneConfig(occlusion_rate=1.5)
        with pytest.raises(ValueError):
            SceneConfig(image_size=4)
        with pytest.raises(ValueError):
            SceneConfig(zoom_range=(0.0, 1.0))


class TestLookAt:
    def test_axis_aligned_case_is_identity(self):
        rot = look_at(np.array([0.0, 0.0, -4.0]), np.zeros(3))
        np.testing.assert_allclose(rot, np.eye(3), atol=1e-15)

    def test_rows_are_orthonormal_right_handed(self):
        stream = SeededStream(60)
        for trial in range(20):
            s = stream.derive("t", trial)
            center = s.normal(size=3) * 3
            target = s.derive("t").normal(size=3)
            if np.linalg.norm(center - target) < 1e-3:
                continue
            rot = look_at(center, target)
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(rot) == pytest.approx(1.0)
            # forward row points from center toward target
            fwd = (target - center) / np.linalg.norm(target - center)
            np.testing.assert_allclose(rot[2], fwd, atol=1e-12)

    def test_degenerate_center_rejected(self):
        with pytest.raises(ValueError):
            look_at(np.ones(3), np.ones(3))


class TestProject:
    def camera(self, focal=96.0):
        center = np.array([0.0, 0.0, -4.0])
        return Camera(center=center, rotation=look_at(center, np.zeros(3)),
                      focal=focal)

    def test_optical_axis_hits_center(self):
        u, v, depth = project(self.camera(), np.zeros(3), 96)
        assert (u, v) == (48.0, 48.0)
        assert depth == 4.0

    def test_hand_computed_projection(self):
        u, v, depth = project(self.camera(), np.array([1.0, 0.5, 0.0]), 96)
        assert u == pytest.approx(96.0 * 1.0 / 4.0 + 48.0)
        assert v == pytest.approx(96.0 * 0.5 / 4.0 + 48.0)
        assert depth == 4.0

    def test_behind_camera(self):
        u, v, depth = project(self.camera(), np.array([0.0, 0.0, -8.0]), 96)
        assert u is None and v is None
        assert depth < 0


class TestGenerate:
    def test_counts_and_validity(self):
        graphs = generate(SMALL)
        assert len(graphs) == 3
        for g in graphs:
            g.validate()
            assert 4 <= len(g.images) <= 6
            assert len(g.points) >= 1
            for _, obs in self.observers(g).items():
                assert len(obs) >= 2

    @staticmethod
    def observers(g):
        out = {}
        for image_id, point_id in g.edges:
            out.setdefault(point_id, set()).add(image_id)
        return out

    def test_point_ids_disjoint_across_clusters(self):
        graphs = generate(SMALL)
        seen = set()
        for g in graphs:
            ids = set(g.points)
            assert not ids & seen
            seen |= ids

    def test_edges_geometrically_consistent(self):
        for g in generate(SMALL):
            for image_id, point_id in g.edges:
                u, v, depth = project(g.images[image_id],
                                      g.points[point_id], SMALL.image_size)
                assert depth > 0
                assert 0 <= u < SMALL.image_size
                assert 0 <= v < SMALL.image_size

    def test_zero_occlusion_keeps_every_inframe_point(self):
        cfg = SceneConfig(clusters=1, images_per_cluster=(2, 2),
                          points_per_cluster=(40, 40), image_size=64,
                          occlusion_rate=0.0, seed=7)
        graph = generate(cfg)[0]
        for image_id in graph.images:
            for point_id in graph.points:
                u, v, depth = project(graph.images[image_id],
                                      graph.points[point_id], 64)
                in_frame = depth > 0 and 0 <= u < 64 and 0 <= v < 64
                assert ((image_id, point_id) in graph.edges) == in_frame

    def test_full_occlusion_raises_generation_error(self):
        cfg = SceneConfig(clusters=1, images_per_cluster=(2, 2),
                          points_per_cluster=(10, 10),
                          occlusion_rate=1.0, seed=1)
        with pytest.raises(GenerationError):
            generate(cfg)

    def test_fixed_seed_reproduces_scene_files(self, tmp_path):
        a = generate(SMALL)
        b = generate(SMALL)
        for i, (ga, gb) in enumerate(zip(a, b)):
            pa, pb = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
            save_scene(pa, ga)
            save_scene(pb, gb)
            assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_scene(self):
        a = generate(SMALL)
        b = generate(SceneConfig(clusters=3, images_per_cluster=(4, 6),
                                 points_per_cluster=(30, 50), image_size=48,
                                 seed=124))
        assert set(a[0].edges) != set(b[0].edges) or \
            any(not np.array_equal(a[0].points[p], b[0].points[p])
                for p in a[0].points if p in b[0].points)


BENCH_SCALE = dict(clusters=8, images_per_cluster=(24, 24),
                   points_per_cluster=(80, 80), image_size=96)


def reference_edges(images, points, coins, size, occlusion_rate):
    """generate()'s visibility as a per-point loop: one project() call
    per (camera, point), then the points with at least two observers.
    coins[image_id] holds the image's occlusion draws in point-id order.
    Returns (edges, kept point ids)."""
    edges = set()
    point_ids = sorted(points)
    for image_id in sorted(images):
        camera = images[image_id]
        for j, point_id in enumerate(point_ids):
            u, v, depth = project(camera, points[point_id], size)
            if depth <= 0.0:
                continue
            if not (0.0 <= u < size and 0.0 <= v < size):
                continue
            if coins[image_id][j] < occlusion_rate:
                continue
            edges.add((image_id, point_id))
    observers = {}
    for image_id, point_id in edges:
        observers.setdefault(point_id, set()).add(image_id)
    kept = {p for p, obs in observers.items() if len(obs) >= 2}
    return {(i, p) for i, p in edges if p in kept}, kept


def cluster_inputs(cfg, index):
    """Cluster index's cameras, points and occlusion coins, drawn from
    the streams generate() draws them from."""
    stream = SeededStream(cfg.seed).derive("cluster", index)
    points, images = _cluster_geometry(cfg, f"c{index:02d}", stream)
    coins = {i: stream.derive("occlusion", i).random(len(points))
             for i in images}
    return images, points, coins


def bound_cameras(size=96):
    """Axis-aligned cameras on -z (i000) and +z (i001) looking at the
    origin, whose rotations and projections are exact: at 96 px a point
    (X, Y, 0) lands at v = 24 Y + 48 in both, u = 24 X + 48 in i000 and
    u = 48 - 24 X in i001."""
    cams = {}
    for name, z in (("b/i000", -4.0), ("b/i001", 4.0)):
        center = np.array([0.0, 0.0, z])
        cams[name] = Camera(center=center,
                            rotation=look_at(center, np.zeros(3)),
                            focal=float(size))
    return cams


def orbit_camera(s):
    """A camera 2.5 to 4 from the origin, looking at it."""
    direction = s.normal(size=3)
    center = s.uniform(2.5, 4.0) * direction / np.linalg.norm(direction)
    return Camera(center=center, rotation=look_at(center, np.zeros(3)),
                  focal=96.0 * s.uniform(0.7, 1.5))


def on_side_bounds(camera, s, n, size=96):
    """n points at depths 1 to 6 placed on u = 0 or u = size, which they
    miss by a few ulps after rounding."""
    z = s.uniform(1.0, 6.0, size=n)
    u = s.integers(0, 2, size=n) * float(size)
    cam = np.stack([(u - size / 2.0) * z / camera.focal,
                    s.uniform(-0.3, 0.3, size=n) * z, z], axis=1)
    return cam @ camera.rotation + camera.center


class TestVisibility:
    """Per-camera visibility against the per-point project() loop."""

    @staticmethod
    def assert_matches_loop(cfg):
        for k, graph in enumerate(generate(cfg)):
            images, points, coins = cluster_inputs(cfg, k)
            edges, kept = reference_edges(images, points, coins,
                                          cfg.image_size,
                                          cfg.occlusion_rate)
            assert graph.edges == edges
            assert sorted(graph.points) == sorted(kept)
            for point_id in kept:
                assert graph.points[point_id].tobytes() == \
                    points[point_id].tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_default_scene_edges_equal_loop(self, seed):
        self.assert_matches_loop(SceneConfig(seed=seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_scale_edges_equal_loop(self, seed):
        self.assert_matches_loop(SceneConfig(seed=seed, **BENCH_SCALE))

    def test_points_on_bounds_fall_back(self):
        # u = 0 and v = 0 are inside, u = size and v = size outside, and
        # depth 0 (in the camera's plane, or at its centre) is not ahead
        cams = bound_cameras()
        positions = np.array([
            (-2.0, 0.0, 0.0),    # u = 0 at i000, u = 96 at i001
            (2.0, 0.0, 0.0),     # u = 96 at i000, u = 0 at i001
            (0.0, -2.0, 0.0),    # v = 0 at both
            (0.0, 2.0, 0.0),     # v = 96 at both
            (0.5, 0.5, -4.0),    # depth 0 at i000
            (0.0, 0.0, -4.0),    # i000's centre
            (0.3, -0.2, 0.1),    # well inside both
            (0.0, 0.0, -9.0),    # behind i000
        ])
        inside = {"b/i000": [True, False, True, False, False, False, True,
                             False],
                  "b/i001": [False, True, True, False, True, True, True,
                             True]}
        for image_id, camera in sorted(cams.items()):
            loop = []
            for p in positions:
                u, v, depth = project(camera, p, 96)
                loop.append(bool(depth > 0.0 and 0.0 <= u < 96
                                 and 0.0 <= v < 96))
            assert loop == inside[image_id]
            assert _in_frame(camera, positions, 96).tolist() == loop

    def test_near_bound_points_decided_as_project(self):
        # points placed on u = 0 or u = size through rotated cameras land
        # within a few ulps of the bound, where a coordinate rounded in
        # another order could fall on the other side
        stream = SeededStream(61)
        for trial in range(20):
            s = stream.derive("camera", trial)
            camera = orbit_camera(s)
            positions = on_side_bounds(camera, s, 50)
            expected = []
            for p in positions:
                pu, pv, depth = project(camera, p, 96)
                expected.append(depth > 0.0 and 0.0 <= pu < 96
                                and 0.0 <= pv < 96)
            assert _in_frame(camera, positions, 96).tolist() == expected


class TestCameraCoordinates:
    """Camera.coordinates, row by row, against the one-point references
    Camera.depth_of and project(), bit for bit."""

    @staticmethod
    def assert_rows_match(camera, points, size=96):
        coords = camera.coordinates(points)
        assert coords.shape == (len(points), 3)
        ahead = np.flatnonzero(coords[:, 2] > 0.0)
        u, v = _pixels(camera, *coords[ahead].T, size)
        pixels = dict(zip(ahead.tolist(), zip(u, v)))
        for k in range(len(points)):
            row, point = coords[k], points[k]
            assert row.tobytes() == \
                np.array(camera.coordinates_of(point)).tobytes()
            assert row[2].tobytes() == \
                np.float64(camera.depth_of(point)).tobytes()
            pu, pv, depth = project(camera, point, size)
            assert np.float64(depth).tobytes() == row[2].tobytes()
            if k in pixels:
                assert np.array([pu, pv]).tobytes() == \
                    np.array(pixels[k]).tobytes()
            else:
                assert pu is None and pv is None

    @staticmethod
    def layouts(points):
        """points as a list, a C-contiguous, a strided and a read-only
        array."""
        wide = np.zeros((len(points), 6))
        wide[:, ::2] = points
        strided = wide[:, ::2]
        assert not strided.flags.c_contiguous
        frozen = points.copy()
        frozen.flags.writeable = False
        return [points.tolist(), points, strided, frozen]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 1000])
    def test_random_cameras_and_batch_sizes(self, n):
        stream = SeededStream(62, n)
        for trial in range(3):
            s = stream.derive("trial", trial)
            camera = orbit_camera(s)
            points = 1.5 * s.normal(size=(n, 3))
            for layout in self.layouts(points):
                self.assert_rows_match(camera, layout)

    def test_points_on_side_bounds(self):
        stream = SeededStream(63)
        for trial in range(5):
            s = stream.derive("trial", trial)
            camera = orbit_camera(s)
            self.assert_rows_match(camera, on_side_bounds(camera, s, 200))

    def test_zero_depth_and_camera_centre(self):
        camera = bound_cameras()["b/i000"]
        points = np.array([(0.5, 0.5, -4.0), (-3.0, 2.0, -4.0),
                           (0.0, 0.0, -4.0)])
        assert (camera.coordinates(points)[:, 2] == 0.0).all()
        self.assert_rows_match(camera, points)
        stream = SeededStream(64)
        for trial in range(5):
            camera = orbit_camera(stream.derive("trial", trial))
            centre = camera.center[None, :]
            assert (camera.coordinates(centre) == 0.0).all()
            self.assert_rows_match(camera, centre)

    def test_generate_and_render_make_no_one_point_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("one-point projection called")

        monkeypatch.setattr(synthscene, "project", refuse)
        monkeypatch.setattr(Camera, "coordinates_of", refuse)
        for graph in generate(SMALL):
            for image_id in sorted(graph.images):
                render(graph, image_id, SMALL.image_size)


def behind_camera_graph():
    """The one point sits behind the -z camera, which still has an edge
    to it."""
    return two_camera_graph([(0.0, 0.0, -8.0)])


def two_camera_graph(points, extra_edges=(), size=96):
    """Cameras on +z and -z axis looking at the origin; every point is
    observed by both unless listed in extra_edges overrides."""
    cams = {}
    for name, z in (("i000", -4.0), ("i001", 4.0)):
        center = np.array([0.0, 0.0, z])
        cams[f"t/{name}"] = Camera(center=center,
                                   rotation=look_at(center, np.zeros(3)),
                                   focal=float(size))
    pts = {f"t/p{j:03d}": np.asarray(p, dtype=np.float64)
           for j, p in enumerate(points)}
    edges = set(extra_edges)
    if not edges:
        edges = {(i, p) for i in cams for p in pts}
    return VisibilityGraph(cluster_id="t", images=cams, points=pts,
                           edges=edges)


def reference_background(cluster_id, image_id, size):
    """The float64 backdrop, every wave recomputed on the spot."""
    def add_waves(img, coords, freqs, weights, phases):
        for h in range(len(phases)):
            wave = np.sin(2.0 * math.pi
                          * (freqs[h, 0] * coords[None, :]
                             + freqs[h, 1] * coords[:, None]) + phases[h])
            img += weights[h][:, None, None] * wave[None, :, :]

    s = _appearance("background", cluster_id)
    cluster_freqs = s.uniform(0.5, 3.0, size=(3, 2))
    cluster_weights = 0.015 + 0.015 * s.random((3, 3))
    cluster_phases = s.uniform(0.0, 2.0 * math.pi, size=3)
    si = _appearance("image", cluster_id, image_id)
    base = 0.2 + 0.3 * si.random(3)
    image_freqs = si.uniform(1.0, 4.0, size=(2, 2))
    image_weights = 0.05 + 0.06 * si.random((2, 3))
    image_phases = si.uniform(0.0, 2.0 * math.pi, size=2)
    coords = (np.arange(size) + 0.5) / size
    img = np.broadcast_to(base[:, None, None], (3, size, size)).copy()
    add_waves(img, coords, cluster_freqs, cluster_weights, cluster_phases)
    add_waves(img, coords, image_freqs, image_weights, image_phases)
    return np.clip(img, 0.0, 1.0)


def reference_render(graph, image_id, size):
    """render() as a per-splat loop that recomputes every pure per-id
    quantity on the spot: palette and color per splat, the cluster
    backdrop per image, visible points by a scan of the edge set."""
    def point_color(point_id):
        anchors = 0.2 + 0.8 * _appearance("palette",
                                          graph.cluster_id).random((3, 3))
        s = _appearance("color", graph.cluster_id, point_id)
        anchor = anchors[int(s.integers(0, 3))]
        return np.clip(anchor + s.uniform(-0.08, 0.08, size=3), 0.0, 1.0)

    img = reference_background(graph.cluster_id, image_id, size)
    camera = graph.images[image_id]
    splats = []
    for point_id in sorted(p for i, p in graph.edges if i == image_id):
        u, v, depth = project(camera, graph.points[point_id], size)
        if depth > 0.0:
            splats.append((depth, point_id, u, v))
    splats.sort(key=lambda t: (-t[0], t[1]))
    for depth, point_id, u, v in splats:
        sigma = min(max(0.1 * camera.focal / depth, size / 96.0),
                    size / 12.0)
        support = int(math.ceil(3.0 * sigma))
        x0 = max(0, int(math.floor(u - support)))
        x1 = min(size, int(math.ceil(u + support)) + 1)
        y0 = max(0, int(math.floor(v - support)))
        y1 = min(size, int(math.ceil(v + support)) + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        xs = np.arange(x0, x1) + 0.5
        ys = np.arange(y0, y1) + 0.5
        alpha = np.exp(-((xs[None, :] - u) ** 2 + (ys[:, None] - v) ** 2)
                       / (2.0 * sigma * sigma))
        patch = img[:, y0:y1, x0:x1]
        img[:, y0:y1, x0:x1] = (patch * (1.0 - alpha)
                                + point_color(point_id)[:, None, None]
                                * alpha)
    return img.astype(np.float32)


class TestRender:
    @pytest.mark.parametrize("size", [32, 48, 96])
    def test_bit_equal_to_reference(self, size):
        for seed in range(3):
            cfg = SceneConfig(clusters=2, images_per_cluster=(3, 4),
                              points_per_cluster=(30, 40), image_size=size,
                              seed=200 + seed)
            for g in generate(cfg):
                for image_id in sorted(g.images):
                    np.testing.assert_array_equal(
                        render(g, image_id, size),
                        reference_render(g, image_id, size))

    def test_bit_equal_to_reference_at_362_px(self):
        # the paper's image scale and max_image_side's default
        cfg = SceneConfig(clusters=1, images_per_cluster=(3, 3),
                          points_per_cluster=(40, 40), image_size=362,
                          seed=5)
        graph = generate(cfg)[0]
        for image_id in sorted(graph.images):
            np.testing.assert_array_equal(
                render(graph, image_id, 362),
                reference_render(graph, image_id, 362))

    def test_splats_clipped_at_every_edge_bit_equal_to_reference(self):
        # at 96 px, u = 24 X + 48 and v = 24 Y + 48 from i000, and i001
        # mirrors u: centres just inside and outside each edge and in two
        # corners clip their windows, and one lies too far out to paint
        points = [(-2.0, 0.1, 0.0), (2.0, -0.3, 0.0), (0.2, -2.0, 0.0),
                  (-0.4, 2.0, 0.0), (-2.1, 0.0, 0.0), (0.0, 2.08, 0.0),
                  (-1.98, -1.98, 0.0), (1.99, 1.97, 0.0), (6.0, 0.0, 0.0)]
        graph = two_camera_graph(points)
        for image_id in sorted(graph.images):
            np.testing.assert_array_equal(
                render(graph, image_id),
                reference_render(graph, image_id, 96))

    def test_image_that_sees_no_point_is_its_background(self):
        graph = two_camera_graph(
            [(0.0, 0.0, 0.0)], extra_edges={("t/i001", "t/p000")})
        img = render(graph, "t/i000")
        np.testing.assert_array_equal(img,
                                      reference_render(graph, "t/i000", 96))
        np.testing.assert_array_equal(
            img, _background(graph, "t/i000", 96).astype(np.float32))
        assert not np.array_equal(render(graph, "t/i001"),
                                  _background(graph, "t/i001", 96)
                                  .astype(np.float32))

    def test_cached_backdrop_keeps_float64_bits(self):
        # float64 addition does not associate: the cached cluster waves
        # must be added one by one, as a fresh backdrop adds them
        g = generate(SMALL)[1]
        for image_id in sorted(g.images):
            np.testing.assert_array_equal(
                _background(g, image_id, 48),
                reference_background(g.cluster_id, image_id, 48))

    def test_one_graph_renders_at_several_sizes(self):
        # the backdrop table is per size: a 32-px render must not reuse
        # the 48-px waves, nor the other way round
        g = generate(SMALL)[0]
        image_id = sorted(g.images)[0]
        for size in (48, 32, 48):
            np.testing.assert_array_equal(
                render(g, image_id, size),
                reference_render(g, image_id, size))

    def test_behind_camera_graph_bit_equal_to_reference(self):
        graph = behind_camera_graph()
        for image_id in sorted(graph.images):
            np.testing.assert_array_equal(
                render(graph, image_id),
                reference_render(graph, image_id, 96))

    def test_shape_dtype_range(self):
        graph = generate(SMALL)[0]
        image_id = sorted(graph.images)[0]
        img = render(graph, image_id, size=SMALL.image_size)
        assert img.shape == (3, 48, 48)
        assert img.dtype == np.float32
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_repeat_renders_bit_identical(self):
        graph = generate(SMALL)[1]
        image_id = sorted(graph.images)[2]
        a = render(graph, image_id, size=48)
        b = render(graph, image_id, size=48)
        assert a.tobytes() == b.tobytes()

    def test_unknown_id(self):
        graph = generate(SMALL)[0]
        with pytest.raises(GraphError):
            render(graph, "nope")

    def test_splat_centers_match_projections(self):
        points = [(0.0, 0.0, 0.0), (1.2, 0.0, 0.0), (0.0, -1.44, 0.0)]
        graph = two_camera_graph(points)
        background = render(two_camera_graph([]), "t/i000")
        img = render(graph, "t/i000")
        diff = np.abs(img.astype(np.float64)
                      - background.astype(np.float64)).sum(axis=0)
        camera = graph.images["t/i000"]
        for point_id, position in graph.points.items():
            u, v, _ = project(camera, position, 96)
            x0, y0 = int(u) - 8, int(v) - 8
            window = diff[y0:y0 + 17, x0:x0 + 17] ** 2
            ys = y0 + np.arange(17) + 0.5
            xs = x0 + np.arange(17) + 0.5
            mass = window.sum()
            peak_x = (window.sum(axis=0) @ xs) / mass
            peak_y = (window.sum(axis=1) @ ys) / mass
            assert abs(peak_x - u) <= 0.5, f"{point_id}: {peak_x} vs {u}"
            assert abs(peak_y - v) <= 0.5, f"{point_id}: {peak_y} vs {v}"

    def test_point_behind_camera_not_rendered(self):
        # p sits behind the first camera; a hand-added edge must not
        # paint it there, while the opposite camera does see it
        graph = behind_camera_graph()
        empty = VisibilityGraph(cluster_id="t", images=graph.images,
                                points={}, edges=set())
        np.testing.assert_array_equal(render(graph, "t/i000"),
                                      render(empty, "t/i000"))
        assert not np.array_equal(render(graph, "t/i001"),
                                  render(empty, "t/i001"))

    def test_cluster_palette_separates_saturated_pixels(self):
        # cluster identity lives in the splat palette, not the backdrop:
        # the mean color of the most saturated eighth of pixels must sit
        # closer within a cluster than across clusters
        def palette_stat(img):
            px = img.reshape(-1, 3).astype(np.float64)
            sat = px.max(axis=1) - px.min(axis=1)
            k = max(1, len(px) // 8)
            return px[np.argsort(sat)[-k:]].mean(axis=0)

        margins = []
        for seed in range(10):
            cfg = SceneConfig(clusters=2, images_per_cluster=(4, 5),
                              points_per_cluster=(30, 40), image_size=32,
                              seed=1000 + seed)
            graphs = generate(cfg)
            stats = []
            for ci, g in enumerate(graphs):
                for image_id in sorted(g.images):
                    stats.append((ci, palette_stat(render(g, image_id,
                                                          size=32))))
            intra, inter = [], []
            for a in range(len(stats)):
                for b in range(a + 1, len(stats)):
                    d = float(np.linalg.norm(stats[a][1] - stats[b][1]))
                    (intra if stats[a][0] == stats[b][0]
                     else inter).append(d)
            margins.append(np.mean(inter) - np.mean(intra))
        margins = np.array(margins)
        assert margins.min() > 0.005
        assert margins.mean() > 0.03
