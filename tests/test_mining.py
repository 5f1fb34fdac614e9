"""Tests for visibility-graph tuple mining against brute-force oracles."""

import json
import math

import numpy as np
import pytest
from testkit import random_graph

from macforge.ioutil import FormatError
from macforge.mining import (
    Camera,
    GeometryError,
    GraphError,
    MiningConfig,
    MiningError,
    NoPositiveError,
    NoSharedPointsError,
    ShortListError,
    TrainingTuple,
    TupleMiner,
    VisibilityGraph,
    build_tuples,
    candidate_pool,
    choose_queries,
    load_scene,
    load_tuples,
    mine_negatives,
    observed_points,
    positive_m1,
    positive_m2,
    positive_m3,
    save_scene,
    save_tuples,
    scale_change,
)
from macforge.numeric import SeededStream
from macforge.retrieval import DescriptorDB
from macforge.synthscene import SceneConfig, generate


def identity_camera(center, focal=100.0):
    return Camera(np.asarray(center, dtype=np.float64), np.eye(3), focal)


def random_unit_descriptors(stream, ids, dim=8):
    out = {}
    for i in sorted(ids):
        v = np.abs(stream.derive("d", i).normal(size=dim))
        out[i] = v / np.linalg.norm(v)
    return out


def negatives_of(query, descs, cluster, n, variant):
    """mine_negatives over a DescriptorDB of every entry of descs."""
    return mine_negatives(query, descs[query], DescriptorDB(descs),
                          cluster.__getitem__, n, variant)


def scale_change_oracle(g, i, q):
    """scale_change with every depth recomputed by Camera.depth_of."""
    shared = sorted({p for img, p in g.edges if img == i}
                    & {p for img, p in g.edges if img == q})
    if not shared:
        raise NoSharedPointsError(f"{i!r} and {q!r} share no points")
    scales = {}
    for img in (i, q):
        cam = g.images[img]
        depths = np.array([cam.depth_of(g.points[pid]) for pid in shared])
        if np.min(depths) <= 0:
            raise GeometryError(f"shared point behind camera {img!r}")
        scales[img] = cam.focal / float(np.median(depths))
    r = scales[i] / scales[q]
    return max(r, 1.0 / r)


class LoopMining:
    """candidate_pool, positive_m2, scale_change and positive_m3 as they
    were written before the array tables: per-image observation sets,
    depths from Camera.depth_of, sorted tuples and sorted-depth medians.
    One instance per graph, built from its fields as they are now."""

    def __init__(self, g):
        self.g = g
        self.seen = {img: set() for img in g.images}
        for img, pid in g.edges:
            self.seen[img].add(pid)
        self.depth = {img: {pid: g.images[img].depth_of(g.points[pid])
                            for pid in pids}
                      for img, pids in self.seen.items()}

    def candidate_pool(self, query, k):
        qc = self.g.images[query].center
        ranked = sorted(
            (float(np.linalg.norm(cam.center - qc)), img)
            for img, cam in self.g.images.items() if img != query)
        return [img for _, img in ranked[:k]]

    def positive_m2(self, query, pool):
        if not pool:
            raise NoPositiveError(f"empty candidate pool for {query!r}")
        pq = self.seen[query]
        return min((-len(pq & self.seen[i]), i) for i in pool)[1]

    def scale_change(self, i, q):
        shared = self.seen[i] & self.seen[q]
        if not shared:
            raise NoSharedPointsError(f"{i!r} and {q!r} share no points")
        scales = {}
        for img in (i, q):
            depths = sorted(self.depth[img][pid] for pid in shared)
            if depths[0] <= 0:
                raise GeometryError(f"shared point behind camera {img!r}")
            mid = len(depths) // 2
            median = (depths[mid] if len(depths) % 2
                      else (depths[mid - 1] + depths[mid]) / 2)
            scales[img] = self.g.images[img].focal / median
        r = scales[i] / scales[q]
        return max(r, 1.0 / r)

    def positive_m3(self, query, pool, cfg, stream):
        if not pool:
            raise NoPositiveError(f"empty candidate pool for {query!r}")
        pq = self.seen[query]
        feasible = []
        for i in sorted(pool):
            shared = pq & self.seen[i]
            if not pq or len(shared) / len(pq) < cfg.inlier_overlap:
                continue
            if self.scale_change(i, query) > cfg.scale_threshold:
                continue
            feasible.append(i)
        if not feasible:
            raise NoPositiveError(f"no feasible positive for {query!r}")
        return feasible[int(stream.integers(0, len(feasible)))]


def failure(fn, *args):
    """fn(*args), or the type and message of the MiningError it raised."""
    try:
        return fn(*args)
    except MiningError as exc:
        return type(exc), str(exc)


def outcome(fn, *args):
    """fn(*args), or the type of the MiningError it raised."""
    try:
        return fn(*args)
    except MiningError as exc:
        return type(exc)


def behind_camera_graph():
    """Two cameras sharing two points that sit behind camera "i"."""
    rot = np.eye(3)
    images = {
        "i": Camera(np.array([0.0, 0.0, 5.0]), rot, 100.0),
        "q": Camera(np.array([0.0, 0.0, -2.0]), rot, 100.0),
    }
    points = {0: np.zeros(3), 1: np.array([0.1, 0.1, 0.0])}
    edges = {(img, p) for img in images for p in points}
    return VisibilityGraph("c", images, points, edges)


class TestCameraAndGraph:
    @pytest.mark.parametrize("field", ["center", "rotation", "focal"])
    def test_camera_rejects_non_finite(self, field):
        args = {"center": np.zeros(3), "rotation": np.eye(3),
                "focal": 100.0}
        if field == "focal":
            args["focal"] = math.inf
        else:
            args[field] = args[field].copy()
            args[field].flat[1] = math.nan
        with pytest.raises(GraphError, match="finite"):
            Camera(**args)

    def test_reassigning_a_field_drops_derived_tables(self):
        g = random_graph(SeededStream(54), n_images=3, n_points=6,
                         all_edges=True)
        first = g.tables()
        assert g.tables() is first
        g.edges = set(g.edges)
        assert g.tables() is not first
        a, b = sorted(g.images)[:2]
        assert scale_change(g, a, b) == scale_change_oracle(g, a, b)
        # moved points move the depths behind scale_change
        g.points = {p: xyz * 1.5 for p, xyz in g.points.items()}
        assert scale_change(g, a, b) == scale_change_oracle(g, a, b)

    def test_camera_rejects_non_rotation(self):
        with pytest.raises(GraphError):
            Camera(np.zeros(3), np.eye(3) * 2.0, 100.0)
        with pytest.raises(GraphError):
            Camera(np.zeros(3), np.diag([1.0, 1.0, -1.0]), 100.0)
        with pytest.raises(GraphError):
            Camera(np.zeros(3), np.eye(3), -5.0)

    def test_validate_rejects_thin_points(self):
        g = VisibilityGraph(
            "c", {"a": identity_camera([0, 0, 0]),
                  "b": identity_camera([1, 0, 0])},
            {1: np.zeros(3)}, {("a", 1)})
        with pytest.raises(GraphError):
            g.validate()

    def test_validate_rejects_dangling_edges(self):
        g = VisibilityGraph(
            "c", {"a": identity_camera([0, 0, 0])},
            {1: np.zeros(3)}, {("ghost", 1)})
        with pytest.raises(GraphError):
            g.validate()


class TestObservedPoints:
    def test_no_edges(self):
        g = VisibilityGraph(
            "c", {"a": identity_camera([0, 0, 0]),
                  "b": identity_camera([1, 0, 0])},
            {}, set())
        assert observed_points(g, "a") == frozenset()

    def test_two_image_example(self):
        g = VisibilityGraph(
            "c", {"a": identity_camera([0, 0, 0]),
                  "b": identity_camera([1, 0, 0])},
            {1: np.zeros(3), 2: np.ones(3)},
            {("a", 1), ("a", 2), ("b", 2)})
        assert observed_points(g, "a") == {1, 2}
        assert observed_points(g, "b") == {2}

    def test_matches_edge_scan(self):
        g = random_graph(SeededStream(50))
        for img in g.images:
            want = {p for i, p in g.edges if i == img}
            assert observed_points(g, img) == want

    def test_unknown_image(self):
        g = random_graph(SeededStream(51))
        with pytest.raises(GraphError):
            observed_points(g, "nope")


class TestCandidatePool:
    def test_cluster_of_two(self):
        g = VisibilityGraph(
            "c", {"a": identity_camera([0, 0, 0]),
                  "b": identity_camera([9, 0, 0])},
            {}, set())
        assert candidate_pool(g, "a", 5) == ["b"]

    def test_distance_order(self):
        g = VisibilityGraph(
            "c", {"q": identity_camera([0, 0, 0]),
                  "far": identity_camera([3, 0, 0]),
                  "mid": identity_camera([2, 0, 0]),
                  "near": identity_camera([1, 0, 0])},
            {}, set())
        assert candidate_pool(g, "q", 2) == ["near", "mid"]

    def test_tie_breaks_to_lower_id(self):
        g = VisibilityGraph(
            "c", {"q": identity_camera([0, 0, 0]),
                  "z": identity_camera([1, 0, 0]),
                  "a": identity_camera([0, 1, 0])},
            {}, set())
        assert candidate_pool(g, "q", 2) == ["a", "z"]

    def test_matches_full_sort_oracle(self):
        g = random_graph(SeededStream(52), n_images=12)
        for q in list(g.images)[:4]:
            qc = g.images[q].center
            want = sorted(
                (i for i in g.images if i != q),
                key=lambda i: (float(np.linalg.norm(g.images[i].center - qc)), i))
            assert candidate_pool(g, q, 7) == want[:7]


class TestPositives:
    def test_m1_pool_of_one(self):
        descs = {"q": np.array([1.0, 0.0]), "a": np.array([0.0, 1.0])}
        assert positive_m1("q", ["a"], descs) == "a"

    def test_m1_exact_match_wins(self):
        descs = {"q": np.array([0.6, 0.8]), "a": np.array([0.8, 0.6]),
                 "b": np.array([0.6, 0.8]), "c": np.array([1.0, 0.0])}
        assert positive_m1("q", ["a", "b", "c"], descs) == "b"

    def test_m1_matches_exhaustive_oracle(self):
        stream = SeededStream(53)
        ids = [f"i{k}" for k in range(15)]
        descs = random_unit_descriptors(stream, ids + ["q"])
        pool = ids
        want = min(pool, key=lambda i: (float(np.linalg.norm(descs[i] - descs["q"])), i))
        assert positive_m1("q", pool, descs) == want

    def test_m1_ties_pick_lower_id(self):
        descs = {"q": np.array([0.6, 0.8]), "b": np.array([0.8, 0.6]),
                 "a": np.array([0.8, 0.6]), "c": np.array([1.0, 0.0])}
        assert positive_m1("q", ["c", "b", "a"], descs) == "a"

    def test_m1_zero_descriptor_scores_zero(self):
        # an image with zero MAC has the zero descriptor: at L2 distance 1
        # from a unit query it would beat every unit vector of similarity
        # below 0.5, but it scores 0 against everything
        descs = {"q": np.array([1.0, 0.0]), "a": np.zeros(2),
                 "b": np.array([0.3, math.sqrt(0.91)])}
        assert positive_m1("q", ["a", "b"], descs) == "b"

    def test_m1_empty_pool(self):
        with pytest.raises(NoPositiveError):
            positive_m1("q", [], {"q": np.ones(2)})

    def test_m2_example(self):
        g = VisibilityGraph(
            "c",
            {n: identity_camera([i, 0, 0]) for i, n in enumerate("qAB")},
            {1: np.zeros(3), 2: np.zeros(3), 3: np.zeros(3)},
            {("q", 1), ("q", 2), ("q", 3),
             ("A", 1), ("A", 2), ("B", 1)})
        assert positive_m2("q", ["A", "B"], g) == "A"

    def test_m2_zero_shared_tie(self):
        g = VisibilityGraph(
            "c",
            {n: identity_camera([i, 0, 0]) for i, n in enumerate(["q", "z", "a"])},
            {1: np.zeros(3)}, {("q", 1)})
        assert positive_m2("q", ["z", "a"], g) == "a"

    def test_m2_matches_oracle(self):
        g = random_graph(SeededStream(54), n_images=10)
        ids = sorted(g.images)
        q = ids[0]
        pool = ids[1:]
        pq = {p for i, p in g.edges if i == q}
        want = min(pool,
                   key=lambda i: (-len(pq & {p for j, p in g.edges if j == i}), i))
        assert positive_m2(q, pool, g) == want


class TestScaleChange:
    def _two_view_graph(self, d_i=4.0, d_q=2.0, focal_i=100.0, focal_q=100.0):
        # both cameras on the -z side looking along +z at points near origin
        rot = np.eye(3)
        images = {
            "i": Camera(np.array([0.0, 0.0, -d_i]), rot, focal_i),
            "q": Camera(np.array([0.0, 0.0, -d_q]), rot, focal_q),
        }
        points = {k: np.array([0.1 * k, -0.05 * k, 0.0]) for k in range(5)}
        edges = {(img, p) for img in images for p in points}
        return VisibilityGraph("c", images, points, edges)

    def test_identical_cameras(self):
        g = self._two_view_graph(d_i=3.0, d_q=3.0)
        assert scale_change(g, "i", "q") == pytest.approx(1.0)

    def test_depth_ratio_example(self):
        # equal focals, median depths 2 (q) and 4 (i): r = 0.5, change = 2
        g = self._two_view_graph(d_i=4.0, d_q=2.0)
        assert scale_change(g, "i", "q") == pytest.approx(2.0)

    def test_symmetric(self):
        g = random_graph(SeededStream(55), all_edges=True)
        ids = sorted(g.images)
        for a, b in [(ids[0], ids[1]), (ids[2], ids[5])]:
            assert scale_change(g, a, b) == pytest.approx(scale_change(g, b, a))
            assert scale_change(g, a, b) >= 1.0

    def test_matches_projection_spread_oracle(self):
        for seed in range(8):
            g = random_graph(SeededStream(56, seed), n_images=4, n_points=40,
                             all_edges=True)
            ids = sorted(g.images)
            a, b = ids[0], ids[1]
            shared = sorted(observed_points(g, a) & observed_points(g, b))
            spreads = {}
            for img in (a, b):
                cam = g.images[img]
                uv = []
                for pid in shared:
                    v = cam.rotation @ (g.points[pid] - cam.center)
                    uv.append([cam.focal * v[0] / v[2],
                               cam.focal * v[1] / v[2]])
                uv = np.asarray(uv)
                spreads[img] = float(np.sqrt(np.mean(
                    np.sum((uv - uv.mean(axis=0)) ** 2, axis=1))))
            ratio = spreads[a] / spreads[b]
            oracle = max(ratio, 1.0 / ratio)
            got = scale_change(g, a, b)
            assert abs(got - oracle) <= 0.25 * oracle

    def test_no_shared_points(self):
        g = self._two_view_graph()
        g.edges = {(img, p) for img, p in g.edges if (img == "i") == (p < 2)}
        with pytest.raises(NoSharedPointsError):
            scale_change(g, "i", "q")

    def test_point_behind_camera(self):
        with pytest.raises(GeometryError):
            scale_change(behind_camera_graph(), "i", "q")

    def test_sees_reassigned_edges(self):
        g = self._two_view_graph(d_i=4.0, d_q=2.0)
        assert scale_change(g, "i", "q") == pytest.approx(2.0)
        # a farther camera for "i": median depth 8 against 2
        g.images = {**g.images, "i": identity_camera([0.0, 0.0, -8.0])}
        assert scale_change(g, "i", "q") == pytest.approx(4.0)
        g.edges = {(img, p) for img, p in g.edges if img == "q"}
        with pytest.raises(NoSharedPointsError):
            scale_change(g, "i", "q")

    def test_bit_equal_to_depth_of_oracle(self):
        # every ordered pair of sparse random graphs: the same value to
        # the bit, or the same error
        for seed in range(6):
            g = random_graph(SeededStream(59, seed), n_images=6,
                             n_points=25)
            ids = sorted(g.images)
            for a in ids:
                for b in ids:
                    if a != b:
                        assert outcome(scale_change, g, a, b) == \
                            outcome(scale_change_oracle, g, a, b)
        g = behind_camera_graph()
        for a, b in (("i", "q"), ("q", "i")):
            assert outcome(scale_change, g, a, b) is GeometryError
            assert outcome(scale_change_oracle, g, a, b) is GeometryError


class TestPositiveM3:
    def test_single_feasible_is_deterministic(self):
        g = self._graph_with_known_feasible()
        cfg = MiningConfig(inlier_overlap=0.2, scale_threshold=1.5)
        for seed in range(5):
            assert positive_m3("q", ["near", "far"], g, cfg,
                               SeededStream(seed)) == "near"

    def _graph_with_known_feasible(self):
        rot = np.eye(3)
        images = {
            "q": Camera(np.array([0.0, 0.0, -3.0]), rot, 100.0),
            "near": Camera(np.array([0.1, 0.0, -3.0]), rot, 100.0),
            "far": Camera(np.array([0.0, 0.0, -30.0]), rot, 100.0),
        }
        points = {k: np.array([0.05 * k, 0.02 * k, 0.0]) for k in range(10)}
        edges = {(img, p) for img in images for p in points}
        return VisibilityGraph("c", images, points, edges)

    def test_overlap_threshold_excludes(self):
        # q observes 10 points, candidate shares exactly 1: 0.1 < 0.2
        rot = np.eye(3)
        images = {
            "q": Camera(np.array([0.0, 0.0, -3.0]), rot, 100.0),
            "c": Camera(np.array([0.1, 0.0, -3.0]), rot, 100.0),
        }
        points = {k: np.array([0.05 * k, 0.0, 0.0]) for k in range(10)}
        edges = {("q", k) for k in range(10)} | {("c", 0)}
        g = VisibilityGraph("c", images, points, edges)
        cfg = MiningConfig(inlier_overlap=0.2, scale_threshold=1.5)
        with pytest.raises(NoPositiveError):
            positive_m3("q", ["c"], g, cfg, SeededStream(1))

    def test_always_member_of_feasible_set(self):
        cfg = MiningConfig(pool_size=10, inlier_overlap=0.2,
                           scale_threshold=1.5)
        for seed in range(10):
            g = random_graph(SeededStream(57, seed), n_images=8, n_points=40)
            ids = sorted(g.images)
            q = ids[0]
            pool = candidate_pool(g, q, cfg.pool_size)
            pq = observed_points(g, q)
            feasible = set()
            for i in pool:
                shared = pq & observed_points(g, i)
                if pq and len(shared) / len(pq) >= cfg.inlier_overlap \
                        and scale_change(g, i, q) <= cfg.scale_threshold:
                    feasible.add(i)
            if not feasible:
                with pytest.raises(NoPositiveError):
                    positive_m3(q, pool, g, cfg, SeededStream(seed, 7))
                continue
            for draw in range(20):
                got = positive_m3(q, pool, g, cfg, SeededStream(seed, draw))
                assert got in feasible

    def test_uniform_over_feasible(self):
        g = random_graph(SeededStream(58), n_images=10, n_points=30,
                         all_edges=True)
        # all-edges plus loose thresholds makes every pool member feasible
        cfg = MiningConfig(pool_size=9, inlier_overlap=0.2,
                           scale_threshold=100.0)
        ids = sorted(g.images)
        q = ids[0]
        pool = candidate_pool(g, q, 9)
        counts = {i: 0 for i in pool}
        draws = 3000
        for d in range(draws):
            counts[positive_m3(q, pool, g, cfg, SeededStream(580, d))] += 1
        expect = draws / len(pool)
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        dof = len(pool) - 1
        assert chi2 < dof + 3.0 * math.sqrt(2.0 * dof)


@pytest.fixture(scope="module")
def default_scene():
    """The default 20-cluster scene, generated but not rendered."""
    return generate(SceneConfig())


class TestAgainstLoops:
    """The array tables against LoopMining, to the bit and the message."""

    def test_every_query_of_the_default_scene(self, default_scene):
        cfg = MiningConfig()
        queries = 0
        for g in default_scene:
            loop = LoopMining(g)
            for q in sorted(g.images):
                pool = candidate_pool(g, q, cfg.pool_size)
                assert pool == loop.candidate_pool(q, cfg.pool_size)
                assert positive_m2(q, pool, g) == loop.positive_m2(q, pool)
                assert failure(positive_m3, q, pool, g, cfg,
                               SeededStream(9).derive("m3", q)) == \
                    failure(loop.positive_m3, q, pool, cfg,
                            SeededStream(9).derive("m3", q))
                for i in pool[:3]:
                    assert failure(scale_change, g, i, q) == \
                        failure(loop.scale_change, i, q)
                queries += 1
        assert queries == sum(len(g.images) for g in default_scene)

    def test_pool_and_positives_on_sparse_graphs(self):
        # sparse edges: some pool members share nothing with the query
        cfg = MiningConfig(pool_size=5, inlier_overlap=0.3,
                           scale_threshold=1.3)
        for seed in range(6):
            g = random_graph(SeededStream(80, seed), n_images=9, n_points=25)
            loop = LoopMining(g)
            for q in sorted(g.images):
                pool = candidate_pool(g, q, cfg.pool_size)
                assert pool == loop.candidate_pool(q, cfg.pool_size)
                assert positive_m2(q, pool, g) == loop.positive_m2(q, pool)
                assert failure(positive_m3, q, pool, g, cfg,
                               SeededStream(seed).derive("m3", q)) == \
                    failure(loop.positive_m3, q, pool, cfg,
                            SeededStream(seed).derive("m3", q))
                for i in pool:
                    assert failure(scale_change, g, i, q) == \
                        failure(loop.scale_change, i, q)

    def test_equal_distances_rank_the_lower_id_first(self):
        # "b" and its twin "a" share a center; "c" and "d" sit at the
        # same distance from q along different axes
        images = {"q": identity_camera([0, 0, 0]),
                  "b": identity_camera([0, 0, 2]),
                  "a": identity_camera([0, 0, 2]),
                  "d": identity_camera([3, 0, 0]),
                  "c": identity_camera([0, 3, 0])}
        g = VisibilityGraph("c", images, {}, set())
        assert candidate_pool(g, "q", 4) == ["a", "b", "c", "d"]
        assert candidate_pool(g, "q", 1) == ["a"]
        assert candidate_pool(g, "q", 3) == ["a", "b", "c"]
        assert candidate_pool(g, "b", 1) == ["a"]
        loop = LoopMining(g)
        for q in images:
            for k in range(1, 5):
                assert candidate_pool(g, q, k) == loop.candidate_pool(q, k)

    def test_query_that_observes_no_points(self):
        g = random_graph(SeededStream(81), n_images=6, n_points=20)
        lonely = "c0/i999"
        g.images = {**g.images, lonely: identity_camera([0.5, 0.5, 9.0])}
        loop = LoopMining(g)
        pool = candidate_pool(g, lonely, 4)
        assert observed_points(g, lonely) == frozenset()
        # every member co-observes 0 points: the lowest id wins
        assert positive_m2(lonely, pool, g) == min(pool) == \
            loop.positive_m2(lonely, pool)
        cfg = MiningConfig(inlier_overlap=0.01, scale_threshold=100.0)
        got = failure(positive_m3, lonely, pool, g, cfg, SeededStream(1))
        assert got == failure(loop.positive_m3, lonely, pool, cfg,
                              SeededStream(1))
        assert got[0] is NoPositiveError
        for i in pool:
            assert failure(scale_change, g, i, lonely)[0] is \
                NoSharedPointsError

    def _behind_graph(self, behind):
        """q and three members that all see the same points in front of
        them, except that the cameras named in behind stand past them."""
        images = {n: identity_camera([0.1 * k, 0.0, -3.0 - k])
                  for k, n in enumerate(["q", "a", "b", "c"])}
        for name in behind:
            images[name] = identity_camera([0.0, 0.0, 5.0])
        points = {k: np.array([0.05 * k, 0.02 * k, 0.0]) for k in range(8)}
        edges = {(img, p) for img in images for p in points}
        return VisibilityGraph("c", images, points, edges)

    @pytest.mark.parametrize("behind, first, named", [
        (("b",), "b", "b"), (("q",), "a", "q"), (("a", "q"), "a", "a")])
    def test_point_behind_a_camera(self, behind, first, named):
        # the first sorted member whose overlap passes raises, naming the
        # member before the query
        g = self._behind_graph(behind)
        cfg = MiningConfig(inlier_overlap=0.5, scale_threshold=100.0)
        pool = ["c", "b", "a"]
        got = failure(positive_m3, "q", pool, g, cfg, SeededStream(2))
        want = failure(LoopMining(g).positive_m3, "q", pool, cfg,
                       SeededStream(2))
        assert got == want == (GeometryError,
                               f"shared point behind camera {named!r}")
        assert failure(scale_change, g, first, "q") == got

    def test_reassigned_edges_drop_the_tables(self):
        g = random_graph(SeededStream(82), n_images=7, n_points=30)
        q = sorted(g.images)[0]
        pool = candidate_pool(g, q, 6)
        before = positive_m2(q, pool, g)
        assert before == LoopMining(g).positive_m2(q, pool)
        # q now shares every point with the last pool member only
        last = pool[-1]
        g.edges = {(img, p) for img, p in g.edges
                   if img not in (q, last)} | \
            {(img, p) for img in (q, last) for p in g.points}
        loop = LoopMining(g)
        assert positive_m2(q, pool, g) == loop.positive_m2(q, pool) == last
        assert observed_points(g, q) == frozenset(g.points)
        for i in pool:
            assert failure(scale_change, g, i, q) == \
                failure(loop.scale_change, i, q)


class TestMineNegatives:
    def test_near_duplicates_case(self):
        descs = {
            "q": np.array([1.0, 0.0]),
            "dupA": np.array([0.99, 0.1]),
            "dupB": np.array([0.98, 0.15]),
            "other": np.array([0.5, 0.5]),
        }
        cluster = {"q": "c0", "dupA": "c1", "dupB": "c1", "other": "c2"}
        n1 = negatives_of("q", descs, cluster, 2, "N1")
        n2 = negatives_of("q", descs, cluster, 2, "N2")
        assert n1 == ["dupA", "dupB"]
        assert n2 == ["dupA", "other"]
        assert n1[0] == n2[0]

    def test_distinct_clusters_make_variants_agree(self):
        stream = SeededStream(59)
        ids = [f"i{k}" for k in range(8)]
        descs = random_unit_descriptors(stream, ids + ["q"])
        cluster = {i: i for i in ids}
        cluster["q"] = "qc"
        n1 = negatives_of("q", descs, cluster, 4, "N1")
        n2 = negatives_of("q", descs, cluster, 4, "N2")
        assert n1 == n2

    def test_matches_brute_force(self):
        stream = SeededStream(60)
        ids = [f"i{k:02d}" for k in range(20)]
        descs = random_unit_descriptors(stream, ids + ["q"])
        cluster = {i: f"c{k % 5}" for k, i in enumerate(ids)}
        cluster["q"] = "c0"
        ranked = sorted(
            (i for i in ids if cluster[i] != "c0"),
            key=lambda i: (-float(descs[i] @ descs["q"]), i))
        assert negatives_of("q", descs, cluster, 6, "N1") == ranked[:6]
        greedy, seen = [], set()
        for i in ranked:
            if cluster[i] in seen:
                continue
            seen.add(cluster[i])
            greedy.append(i)
            if len(greedy) == 4:
                break
        assert negatives_of("q", descs, cluster, 4, "N2") == greedy

    def test_excludes_query_cluster(self):
        descs = {"q": np.ones(2), "same": np.ones(2), "other": np.ones(2)}
        cluster = {"q": "c0", "same": "c0", "other": "c1"}
        got = negatives_of("q", descs, cluster, 1, "N1")
        assert got == ["other"]

    def test_short_list_error_reports_deficit(self):
        descs = {"q": np.ones(2), "a": np.ones(2)}
        cluster = {"q": "c0", "a": "c1"}
        with pytest.raises(ShortListError, match="deficit 2"):
            negatives_of("q", descs, cluster, 3, "N1")


class TestChooseQueries:
    def _flat_graph(self, n):
        images = {f"i{k:04d}": identity_camera([k, 0, 0]) for k in range(n)}
        return VisibilityGraph("c", images, {}, set())

    def test_ten_percent(self):
        qs = choose_queries(self._flat_graph(100), SeededStream(61))
        assert len(qs) == 10
        assert len(set(qs)) == 10

    def test_boundary_300(self):
        assert len(choose_queries(self._flat_graph(300), SeededStream(62))) == 30

    def test_large_cluster_capped(self):
        assert len(choose_queries(self._flat_graph(1000), SeededStream(63))) == 30

    def test_ceil_rounding(self):
        assert len(choose_queries(self._flat_graph(11), SeededStream(64))) == 2

    def test_deterministic(self):
        g = self._flat_graph(50)
        assert choose_queries(g, SeededStream(65)) == \
            choose_queries(g, SeededStream(65))


class TestBuildTuples:
    def _clusters(self, stream, n_clusters=3, n_images=8):
        return [random_graph(stream.derive("g", c), cluster_id=f"c{c}",
                             n_images=n_images, all_edges=True)
                for c in range(n_clusters)]

    def test_single_cluster_yields_no_tuples(self):
        stream = SeededStream(66)
        graphs = self._clusters(stream, n_clusters=1)
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(stream, ids)
        cfg = MiningConfig(pool_size=5, negatives=2)
        tuples, skipped = build_tuples(graphs, descs, cfg, "m2", "N1",
                                       SeededStream(1))
        assert tuples == []
        assert skipped and all("deficit" in reason for _, reason in skipped)

    def test_two_clusters_negatives_cross(self):
        stream = SeededStream(67)
        graphs = self._clusters(stream, n_clusters=2)
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(stream, ids)
        cfg = MiningConfig(pool_size=5, negatives=1)
        tuples, _ = build_tuples(graphs, descs, cfg, "m2", "N1", SeededStream(2))
        assert tuples
        cluster_of = {i: g.cluster_id for g in graphs for i in g.images}
        for t in tuples:
            assert cluster_of[t.query] == cluster_of[t.positive]
            assert t.positive != t.query
            for n in t.negatives:
                assert cluster_of[n] != cluster_of[t.query]

    def test_dense_m3_matches_depth_of_oracle(self):
        # sparse graphs, so some pool members share no point with the
        # query: the overlap test must drop them before scale_change
        stream = SeededStream(73)
        graphs = [random_graph(stream.derive("g", c), cluster_id=f"c{c}",
                               n_images=7, n_points=25)
                  for c in range(3)]
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(stream, ids)
        cfg = MiningConfig(pool_size=4, negatives=2, inlier_overlap=0.3,
                           scale_threshold=1.3)
        mined = SeededStream(5)
        tuples, skipped = build_tuples(graphs, descs, cfg, "m3", "N2",
                                       mined, all_images_as_queries=True)
        want, no_positive = {}, set()
        for g in graphs:
            for q in sorted(g.images):
                pq = {p for img, p in g.edges if img == q}
                feasible = [
                    i for i in sorted(candidate_pool(g, q, cfg.pool_size))
                    if len(pq & {p for img, p in g.edges if img == i})
                    / len(pq) >= cfg.inlier_overlap
                    and scale_change_oracle(g, i, q) <= cfg.scale_threshold]
                if not feasible:
                    no_positive.add(q)
                    continue
                draw = mined.derive("m3", q).integers(0, len(feasible))
                want[q] = feasible[int(draw)]
        assert no_positive and want
        assert {q for q, reason in skipped
                if "no feasible positive" in reason} == no_positive
        assert {t.query: t.positive for t in tuples} == want

    def test_dense_m3_raises_geometry_error(self):
        graphs = [behind_camera_graph(),
                  random_graph(SeededStream(74), cluster_id="d")]
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(SeededStream(75), ids)
        with pytest.raises(GeometryError):
            build_tuples(graphs, descs, MiningConfig(negatives=1), "m3",
                         "N2", SeededStream(6), all_images_as_queries=True)

    def test_deterministic_and_positives_fixed(self):
        stream = SeededStream(68)
        graphs = self._clusters(stream)
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(stream, ids)
        cfg = MiningConfig(pool_size=5, negatives=2)
        t1, _ = build_tuples(graphs, descs, cfg, "m3", "N2", SeededStream(3))
        t2, _ = build_tuples(graphs, descs, cfg, "m3", "N2", SeededStream(3))
        assert t1 == t2


class TestTupleMiner:
    @pytest.mark.parametrize("variant", ["N1", "N2"])
    def test_remine_matches_mine_negatives(self, variant):
        stream = SeededStream(72)
        graphs = [random_graph(stream.derive("g", c), cluster_id=f"c{c}",
                               n_images=8, all_edges=True)
                  for c in range(4)]
        ids = [i for g in graphs for i in g.images]
        embed1 = random_unit_descriptors(stream.derive("before"), ids)
        embed2 = random_unit_descriptors(stream.derive("after"), ids)
        cfg = MiningConfig(pool_size=5, negatives=2,
                           candidate_negatives_per_cluster=3)
        miner = TupleMiner(graphs, embed1, cfg, "m2", variant,
                           SeededStream(4))
        before = miner.current_tuples()
        assert before
        miner.remine(embed2.__getitem__)
        after = miner.current_tuples()
        assert [(t.query, t.positive) for t in after] == \
            [(t.query, t.positive) for t in before]
        cluster_of = {i: g.cluster_id for g in graphs for i in g.images}
        cand = {i: embed2[i] for i in miner.universe}
        for t in after:
            assert list(t.negatives) == negatives_of(
                t.query, cand, cluster_of, cfg.negatives, variant)
        assert any(a.negatives != b.negatives
                   for a, b in zip(before, after))

    @staticmethod
    def _renamed(g, cluster_id, rename):
        images = {rename.get(i, i): cam for i, cam in g.images.items()}
        edges = {(rename.get(i, i), p) for i, p in g.edges}
        return VisibilityGraph(cluster_id, images, g.points, edges)

    def test_image_in_two_clusters_is_rejected(self):
        graphs, cfg = random_case()
        graphs[1] = self._renamed(graphs[1], "c1", {"c1/i000": "c0/i000"})
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(SeededStream(79), ids)
        with pytest.raises(GraphError,
                           match="'c0/i000' is in clusters 'c0' and 'c1'"):
            TupleMiner(graphs, descs, cfg)
        with pytest.raises(GraphError, match="'c0/i000'"):
            build_tuples(graphs, descs, cfg, all_images_as_queries=True)

    def test_cluster_id_of_two_clusters_is_rejected(self):
        graphs, cfg = random_case()
        graphs[1] = self._renamed(graphs[1], "c0", {})
        ids = [i for g in graphs for i in g.images]
        descs = random_unit_descriptors(SeededStream(79), ids)
        with pytest.raises(GraphError,
                           match="cluster id 'c0' names two clusters"):
            TupleMiner(graphs, descs, cfg)


def universe_oracle(graphs, cfg, stream):
    """Per cluster: the seeded candidate sample, the sampled queries and
    their m3 positives, written out from the mining rules."""
    universe = set()
    for g in graphs:
        ids = sorted(g.images)
        order = stream.derive("negpool", g.cluster_id).permutation(len(ids))
        universe.update(ids[int(j)]
                        for j in order[:cfg.candidate_negatives_per_cluster])
        for q in choose_queries(g, stream.derive("queries", g.cluster_id)):
            universe.add(q)
            try:
                universe.add(positive_m3(
                    q, candidate_pool(g, q, cfg.pool_size), g, cfg,
                    stream.derive("m3", q)))
            except NoPositiveError:
                pass
    return universe


def random_case():
    stream = SeededStream(76)
    graphs = [random_graph(stream.derive("g", c), cluster_id=f"c{c}",
                           n_images=8, all_edges=True)
              for c in range(4)]
    return graphs, MiningConfig(pool_size=5, negatives=2,
                                candidate_negatives_per_cluster=3)


def skipped_cluster_case():
    # the one sampled query of c00 has no feasible positive and no
    # candidate is sampled, so c00 enters the universe through that
    # query alone; without it an N2 query finds only 2 other clusters
    graphs = generate(SceneConfig(clusters=4, images_per_cluster=(8, 10),
                                  points_per_cluster=(30, 40),
                                  image_size=32, seed=0))
    return graphs, MiningConfig(pool_size=5, negatives=3,
                                candidate_negatives_per_cluster=0,
                                inlier_overlap=0.6)


class TestMiningState:
    """build_tuples is TupleMiner's first selection, and remine() keeps
    its queries, positives, skip list and negative universe."""

    CASES = {"random": random_case, "skipped_cluster": skipped_cluster_case}

    def _setup(self, case):
        graphs, cfg = self.CASES[case]()
        ids = sorted(i for g in graphs for i in g.images)
        descs = random_unit_descriptors(SeededStream(77), ids)
        return graphs, cfg, ids, descs

    @pytest.mark.parametrize("positive", ["m1", "m2", "m3"])
    @pytest.mark.parametrize("variant", ["N1", "N2"])
    @pytest.mark.parametrize("query_clusters", [None, {"c1", "c3"}])
    @pytest.mark.parametrize("all_queries", [False, True])
    def test_first_selection_equals_build_tuples(
            self, positive, variant, query_clusters, all_queries):
        graphs, cfg, _, descs = self._setup("random")
        args = (graphs, descs, cfg, positive, variant, SeededStream(0),
                query_clusters, all_queries)
        built = build_tuples(*args)
        assert built[0]
        miner = TupleMiner(*args)
        assert (miner.current_tuples(), miner.skipped) == built

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("variant", ["N1", "N2"])
    def test_remine_under_initial_descriptors_reproduces_tuples(
            self, case, variant):
        graphs, cfg, ids, descs = self._setup(case)
        built = build_tuples(graphs, descs, cfg, "m3", variant,
                             SeededStream(0))
        assert built[0]
        if case == "skipped_cluster":
            assert [q for q, _ in built[1]] == ["c00/i005"]
        miner = TupleMiner(graphs, descs, cfg, "m3", variant,
                           SeededStream(0))
        assert (miner.current_tuples(), miner.skipped) == built
        miner.remine(descs.__getitem__)
        assert (miner.current_tuples(), miner.skipped) == built

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("variant", ["N1", "N2"])
    def test_remine_ranks_over_the_build_tuples_universe(self, case,
                                                         variant):
        graphs, cfg, ids, descs = self._setup(case)
        universe = universe_oracle(graphs, cfg, SeededStream(0))
        cluster_of = {i: g.cluster_id for g in graphs for i in g.images}

        def oracle(t, vectors):
            return negatives_of(t.query, {i: vectors[i] for i in universe},
                                cluster_of, cfg.negatives, variant)

        built, _ = build_tuples(graphs, descs, cfg, "m3", variant,
                                SeededStream(0))
        assert built
        for t in built:
            assert list(t.negatives) == oracle(t, descs)
        miner = TupleMiner(graphs, descs, cfg, "m3", variant,
                           SeededStream(0))
        fresh = random_unit_descriptors(SeededStream(78), ids)
        miner.remine(fresh.__getitem__)
        after = miner.current_tuples()
        assert [(t.query, t.positive) for t in after] == \
            [(t.query, t.positive) for t in built]
        for t in after:
            assert list(t.negatives) == oracle(t, fresh)


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        g = random_graph(SeededStream(69), n_images=5, n_points=12)
        path = tmp_path / "scene.json"
        save_scene(path, g)
        g2 = load_scene(path)
        assert g2.cluster_id == g.cluster_id
        assert set(g2.images) == set(g.images)
        for img in g.images:
            np.testing.assert_allclose(g2.images[img].center,
                                       g.images[img].center)
            np.testing.assert_allclose(g2.images[img].rotation,
                                       g.images[img].rotation)
            assert g2.images[img].focal == g.images[img].focal
        assert g2.edges == g.edges
        for pid in g.points:
            np.testing.assert_allclose(g2.points[pid], g.points[pid])

    def test_rewrite_byte_identical(self, tmp_path):
        g = random_graph(SeededStream(70), n_images=4, n_points=10)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(p1, g)
        save_scene(p2, g)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            load_scene(path)

    def test_invalid_utf8(self, tmp_path):
        # UnicodeDecodeError is a ValueError but not a JSONDecodeError
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError, match="scene file is not valid UTF-8"):
            load_scene(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"cluster_id": "c"}')
        with pytest.raises(FormatError):
            load_scene(path)

    @pytest.mark.parametrize("field,value", [
        ("rotation", math.nan), ("center", math.nan), ("xyz", math.inf),
        ("focal", math.inf)])
    def test_non_finite_geometry_rejected(self, tmp_path, field, value):
        path = tmp_path / "scene.json"
        save_scene(path, random_graph(SeededStream(76), n_images=3,
                                      n_points=5))
        doc = json.loads(path.read_text())
        if field == "xyz":
            doc["points"][2]["xyz"][1] = value
        elif field == "focal":
            doc["images"][1]["camera"]["focal"] = value
        else:
            doc["images"][1]["camera"][field][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="finite"):
            load_scene(path)

    def test_point_needs_three_coordinates(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(path, random_graph(SeededStream(77), n_images=3,
                                      n_points=5))
        doc = json.loads(path.read_text())
        del doc["points"][0]["xyz"][2]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="3 finite coordinates"):
            load_scene(path)

    def test_invalid_graph_rejected(self, tmp_path):
        g = random_graph(SeededStream(71), n_images=4, n_points=6)
        # orphan a point so only one image observes it
        victim = sorted(g.points)[0]
        keep = [e for e in sorted(g.edges) if e[1] == victim][:1]
        g.edges = {e for e in g.edges if e[1] != victim} | set(keep)
        path = tmp_path / "thin.json"
        save_scene(path, g)
        with pytest.raises(FormatError):
            load_scene(path)


class TestTupleIO:
    def test_roundtrip(self, tmp_path):
        tuples = [
            TrainingTuple("c0/i1", "c0/i2", ("c1/i1", "c2/i3")),
            TrainingTuple("c1/i0", "c1/i4", ("c0/i1", "c2/i0")),
        ]
        path = tmp_path / "tuples.jsonl"
        save_tuples(path, tuples)
        assert load_tuples(path) == tuples

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"q": "a", "m": "b", "negatives": ["c"]}\n{"q": "x"}\n')
        with pytest.raises(FormatError, match="line 2"):
            load_tuples(path)

    def test_positive_equal_query_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"q": "a", "m": "a", "negatives": ["c"]}\n')
        with pytest.raises(FormatError):
            load_tuples(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"q": "a", "m": "b", "negatives": ["c"]}\n'
                         b'{"q": "\xff", "m": "b", "negatives": ["c"]}\n')
        with pytest.raises(FormatError, match="tuple file is not valid UTF-8"):
            load_tuples(path)
