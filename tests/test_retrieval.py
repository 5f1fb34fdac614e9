"""Tests for search, average precision, and the evaluation protocol."""

import multiprocessing
from fractions import Fraction
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from macforge.backbone import ShapeError, init_params, tiny_spec
from macforge.descriptor import BBox, l2n
from macforge.ioutil import FormatError
from macforge.numeric import DimensionError, SeededStream
from macforge.retrieval import (
    MODE_CROP_I,
    MODE_CROP_X,
    MODE_FULL,
    DescriptorDB,
    ProtocolError,
    QueryGroundTruth,
    average_precision,
    evaluate,
    load_ground_truth,
    save_ground_truth,
    search,
    write_eval_csv,
)
from macforge.pipeline import Extractor
from testkit import random_lw, random_pcaw


def unit_rows(stream, n, k):
    m = stream.normal(size=(n, k))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def ranked_ids(db, query):
    return [db.ids[row] for row in search(db, query)]


def sort_oracle(db, query):
    """db.ids by (-similarity, id), on the very values search ranks:
    matrix-vector and row-by-row products differ in the last ulp."""
    sims = dict(zip(db.ids, (db.matrix @ query).tolist()))
    return sorted(db.ids, key=lambda i: (-sims[i], i))


class TestSearch:
    def test_query_in_db_ranks_first(self):
        rows = unit_rows(SeededStream(30), 8, 5)
        db = DescriptorDB({f"img{i}": rows[i] for i in range(8)})
        order = search(db, rows[3])
        # the order is every row once, as an integer array
        assert order.dtype.kind == "i"
        assert sorted(order.tolist()) == list(range(8))
        assert db.ids[order[0]] == "img3"

    def test_one_hot_db(self):
        db = DescriptorDB({f"e{i}": np.eye(4)[i] for i in range(4)})
        assert ranked_ids(db, np.eye(4)[2]) == ["e2", "e0", "e1", "e3"]

    def test_ties_break_by_lower_id(self):
        v = l2n(np.array([1.0, 1.0]))
        db = DescriptorDB({"b": v, "a": v, "c": -v, "a2": v})
        assert ranked_ids(db, v) == ["a", "a2", "b", "c"]

    def test_matches_full_sort_oracle(self):
        stream = SeededStream(31)
        rows = unit_rows(stream, 40, 6)
        # the second half repeats rows of the first, so ties are exact
        rows[20:] = rows[stream.permutation(20)]
        ids = [f"item/{i:02d}" for i in stream.permutation(40)]
        db = DescriptorDB(dict(zip(ids, rows)))
        for trial in range(10):
            q = unit_rows(stream.derive("q", trial), 1, 6)[0]
            assert ranked_ids(db, q) == sort_oracle(db, q)

    def test_errors(self):
        db = DescriptorDB({"a": np.ones(3) / np.sqrt(3)})
        with pytest.raises(DimensionError):
            search(db, np.ones(4))
        with pytest.raises(DimensionError):
            search(db, np.ones((1, 3)))
        with pytest.raises(ValueError):
            DescriptorDB({})
        with pytest.raises(DimensionError):
            DescriptorDB({"a": np.ones(3), "b": np.ones(4)})


def brute_force_ap(ranking, gt):
    kept = [i for i in ranking if i not in gt.ignored]
    total = Fraction(0)
    hits = 0
    for rank, image_id in enumerate(kept, start=1):
        if image_id in gt.relevant:
            hits += 1
            total += Fraction(hits, rank)
    return total / len(gt.relevant)


class TestAveragePrecision:
    def test_worked_example(self):
        gt = QueryGroundTruth(frozenset({"a", "b"}))
        ap = average_precision(["a", "x", "b", "y"], gt)
        assert ap == pytest.approx((1 + 2 / 3) / 2)

    def test_all_relevant_first(self):
        gt = QueryGroundTruth(frozenset({"a", "b", "c"}))
        assert average_precision(["c", "a", "b", "x", "y"], gt) == 1.0

    def test_ignored_items_are_deleted_before_counting(self):
        gt = QueryGroundTruth(frozenset({"a"}), frozenset({"j1", "j2"}))
        assert average_precision(["j1", "j2", "a", "x"], gt) == 1.0
        assert average_precision(["a", "x"], gt) == 1.0

    def test_absent_relevant_contributes_zero(self):
        gt = QueryGroundTruth(frozenset({"a", "b"}))
        assert average_precision(["a"], gt) == pytest.approx(0.5)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ProtocolError):
            average_precision(["a"], QueryGroundTruth(frozenset()))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ProtocolError):
            QueryGroundTruth(frozenset({"a"}), frozenset({"a"}))

    def test_tail_permutation_invariance(self):
        stream = SeededStream(32)
        ids = [f"i{j}" for j in range(12)]
        gt = QueryGroundTruth(frozenset(ids[:3]))
        ranking = [ids[i] for i in stream.permutation(len(ids))]
        last = max(ranking.index(r) for r in gt.relevant)
        base = average_precision(ranking, gt)
        for trial in range(5):
            rest = ranking[last + 1:]
            tail = [rest[i] for i in
                    stream.derive("t", trial).permutation(len(rest))]
            assert average_precision(ranking[:last + 1] + tail, gt) == base

    def test_agrees_with_brute_force_on_random_instances(self):
        stream = SeededStream(33)
        perfect = 0
        for trial in range(1000):
            s = stream.derive("trial", trial)
            n = int(s.integers(2, 30))
            ids = [f"i{j}" for j in range(n)]
            labels = s.integers(0, 3, size=n)  # 0 plain, 1 relevant, 2 ignored
            relevant = frozenset(i for i, l in zip(ids, labels) if l == 1)
            ignored = frozenset(i for i, l in zip(ids, labels) if l == 2)
            if not relevant:
                relevant = frozenset({ids[0]})
                ignored = ignored - relevant
            gt = QueryGroundTruth(relevant, ignored)
            ranking = [ids[i] for i in s.permutation(len(ids))]
            if int(s.integers(0, 4)) == 0:  # sometimes drop a suffix
                ranking = ranking[:max(1, n - 3)]
            got = average_precision(ranking, gt)
            assert 0.0 <= got <= 1.0
            assert got == pytest.approx(float(brute_force_ap(ranking, gt)),
                                        abs=1e-12)
            kept = [i for i in ranking if i not in ignored]
            if got == 1.0:
                perfect += 1
                assert set(kept[:len(relevant)]) == relevant
        assert perfect > 0


class SummingExtractor:
    """Descriptor = normalized channel-sum over pixels; region variant
    restricts the sum to the bbox, so full-image bboxes match exactly."""

    def extract(self, image):
        return l2n(image.reshape(image.shape[0], -1).sum(axis=1))

    def extract_region(self, image, bbox):
        x0, y0, x1, y1 = bbox
        return self.extract(image[:, y0:y1, x0:x1])


def random_image(stream, channels=3, side=6):
    return stream.uniform(0.1, 1.0, size=(channels, side, side))


class TestEvaluate:
    def build_benchmark(self, seed, n_db=12, n_queries=4):
        stream = SeededStream(seed)
        extractor = SummingExtractor()
        images = {f"db{i}": random_image(stream.derive("db", i))
                  for i in range(n_db)}
        db = DescriptorDB({i: extractor.extract(img)
                           for i, img in images.items()})
        queries = []
        gt = {}
        for qi in range(n_queries):
            s = stream.derive("q", qi)
            image = random_image(s)
            qid = f"q{qi}"
            ranked = ranked_ids(db, extractor.extract(image))
            relevant = frozenset(ranked[:3])
            queries.append((qid, image, BBox(0, 0, 6, 6)))
            gt[qid] = QueryGroundTruth(relevant)
        return db, queries, gt, extractor

    def test_nearest_neighbors_as_relevant_gives_perfect_map(self):
        db, queries, gt, extractor = self.build_benchmark(34)
        mean_ap, per_query = evaluate(db, queries, gt, MODE_FULL, extractor)
        assert mean_ap == 1.0
        assert all(ap == 1.0 for _, ap in per_query)

    def test_full_bbox_modes_identical(self):
        db, queries, gt, extractor = self.build_benchmark(35)
        results = {mode: evaluate(db, queries, gt, mode, extractor)
                   for mode in (MODE_FULL, MODE_CROP_I, MODE_CROP_X)}
        base = results[MODE_FULL]
        for mode in (MODE_CROP_I, MODE_CROP_X):
            assert abs(results[mode][0] - base[0]) < 1e-9
            for (qa, apa), (qb, apb) in zip(results[mode][1], base[1]):
                assert qa == qb
                assert abs(apa - apb) < 1e-9

    def test_crop_modes_agree_on_partial_bbox(self):
        # this extractor sums over pixels, so pixel- and grid-cropping
        # coincide for any bbox
        db, queries, gt, extractor = self.build_benchmark(36)
        part = [(q, img, BBox(1, 2, 5, 6)) for q, img, _ in queries]
        got_i = evaluate(db, part, gt, MODE_CROP_I, extractor)
        got_x = evaluate(db, part, gt, MODE_CROP_X, extractor)
        assert got_i == got_x

    def test_matches_independent_pipeline(self):
        db, queries, gt, extractor = self.build_benchmark(37)
        mean_ap, per_query = evaluate(db, queries, gt, MODE_FULL, extractor)
        aps = []
        for qid, image, _ in queries:
            ranking = ranked_ids(db, extractor.extract(image))
            aps.append(average_precision(ranking, gt[qid]))
        assert [ap for _, ap in per_query] == aps
        assert mean_ap == sum(aps) / len(aps)

    def test_map_invariant_to_query_order(self):
        db, queries, gt, extractor = self.build_benchmark(38)
        forward, _ = evaluate(db, queries, gt, MODE_FULL, extractor)
        backward, _ = evaluate(db, queries[::-1], gt, MODE_FULL, extractor)
        assert forward == pytest.approx(backward, abs=1e-15)

    def test_protocol_errors(self):
        db, queries, gt, extractor = self.build_benchmark(39)
        with pytest.raises(ValueError, match="mode"):
            evaluate(db, queries, gt, "Oval", extractor)
        with pytest.raises(ValueError):
            evaluate(db, [], gt, MODE_FULL, extractor)
        with pytest.raises(ProtocolError, match="ground truth"):
            evaluate(db, [("mystery", queries[0][1], None)], gt,
                     MODE_FULL, extractor)
        no_box = [(queries[0][0], queries[0][1], None)]
        for mode in (MODE_CROP_I, MODE_CROP_X):
            with pytest.raises(ProtocolError, match="bbox"):
                evaluate(db, no_box, gt, mode, extractor)
        # a box from the data file that is empty or leaves the image is
        # a protocol error in both crop modes, never a fallback ranking
        for box in (BBox(0, 0, 99, 99), BBox(4, 4, 2, 2)):
            bad = [(queries[0][0], queries[0][1], box)]
            for mode in (MODE_CROP_I, MODE_CROP_X):
                with pytest.raises(ProtocolError, match="bbox"):
                    evaluate(db, bad, gt, mode, extractor)


class TestEvaluateWorkers:
    """evaluate maps each query's extract, search and AP over forked
    workers after checking every query in the caller: the same mAP and
    per-query APs at any worker count, no process at one worker or on a
    protocol error, and no child left behind."""

    EXTRACTORS = {
        "mac": lambda: {},
        "rmac-lw": lambda: {"rmac_scales": 2,
                            "projection": random_lw(SeededStream(43))},
        "rmac-pcaw": lambda: {"rmac_scales": 3, "out_dim": 16,
                              "projection": random_pcaw(SeededStream(44))},
    }
    MODES = (MODE_FULL, MODE_CROP_I, MODE_CROP_X)

    @pytest.fixture
    def starts(self, monkeypatch):
        started = []
        original = ForkProcess.start

        def counting_start(process):
            started.append(process)
            return original(process)

        monkeypatch.setattr(ForkProcess, "start", counting_start)
        return started

    def build(self, config="mac", n_db=10, n_queries=6, seed=50):
        stream = SeededStream(seed)
        spec = tiny_spec()
        extractor = Extractor(spec, init_params(spec, stream.derive("net")),
                              **self.EXTRACTORS[config]())
        ids = [f"d{i}" for i in range(n_db)]
        db = DescriptorDB({i: extractor.extract(
            stream.derive("db", i).random((3, 40, 40)).astype(np.float32))
            for i in ids})
        queries, gt = [], {}
        for k in range(n_queries):
            s = stream.derive("q", k)
            x0, y0 = (int(v) for v in s.integers(0, 12, size=2))
            x1, y1 = (int(v) for v in s.integers(28, 41, size=2))
            qid = f"q{k}"
            queries.append((qid, s.random((3, 40, 40)).astype(np.float32),
                            BBox(x0, y0, x1, y1)))
            chosen = [ids[i] for i in s.permutation(n_db)[:4].tolist()]
            gt[qid] = QueryGroundTruth(frozenset(chosen[:3]),
                                       frozenset(chosen[3:]))
        return db, queries, gt, extractor

    @pytest.mark.parametrize("config", sorted(EXTRACTORS))
    @pytest.mark.parametrize("mode", MODES)
    def test_same_result_at_any_worker_count(self, config, mode):
        db, queries, gt, extractor = self.build(config)
        want = evaluate(db, queries, gt, mode, extractor, threads=1)
        assert 0.0 < want[0] < 1.0
        for threads in (2, 3, 0):
            got = evaluate(db, queries, gt, mode, extractor, threads=threads)
            assert got == want
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads, n_queries, started",
                             [(1, 6, 0), (3, 6, 2), (8, 3, 2)])
    def test_processes_started(self, starts, threads, n_queries, started):
        # one worker is a plain loop; the count is capped at the queries
        db, queries, gt, extractor = self.build(n_queries=n_queries)
        evaluate(db, queries, gt, MODE_CROP_X, extractor, threads=threads)
        assert len(starts) == started
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", MODES)
    def test_protocol_error_on_the_last_query_starts_nothing(self, starts,
                                                             mode):
        db, queries, gt, extractor = self.build()
        # the first query's image is too small to extract, yet the last
        # query's protocol error is what evaluate reports
        tiny = np.ones((3, 4, 4), dtype=np.float32)
        queries[0] = (queries[0][0], tiny, BBox(0, 0, 4, 4))
        last_id, last_image, _ = queries[-1]
        if mode == MODE_FULL:
            queries[-1] = ("unknown", last_image, None)
            match = "no ground truth"
        else:
            queries[-1] = (last_id, last_image, BBox(10, 10, 50, 20))
            match = "bbox"
        with pytest.raises(ProtocolError, match=match):
            evaluate(db, queries, gt, mode, extractor, threads=2)
        assert starts == []
        assert multiprocessing.active_children() == []

    def test_empty_relevant_set_is_checked_before_any_extract(self, starts):
        db, queries, gt, extractor = self.build()
        queries[0] = (queries[0][0], np.ones((3, 4, 4), dtype=np.float32),
                      None)
        gt[queries[-1][0]] = QueryGroundTruth(frozenset())
        with pytest.raises(ProtocolError, match="empty relevant set"):
            evaluate(db, queries, gt, MODE_FULL, extractor, threads=2)
        assert starts == []

    @pytest.mark.parametrize("mode", MODES)
    def test_shape_error_in_a_child_keeps_its_type(self, starts, mode):
        db, queries, gt, extractor = self.build()
        # at two workers the last query is in the child's chunk
        qid = queries[-1][0]
        queries[-1] = (qid, np.ones((3, 4, 4), dtype=np.float32),
                       BBox(0, 0, 4, 4))
        with pytest.raises(ShapeError, match="maxpool window"):
            evaluate(db, queries, gt, mode, extractor, threads=2)
        assert len(starts) == 1
        assert multiprocessing.active_children() == []


class TestGroundTruthFile:
    def sample(self):
        return {
            "q/1": QueryGroundTruth(frozenset({"a", "b"}),
                                    frozenset({"z"}), BBox(0, 1, 8, 9)),
            "q/2": QueryGroundTruth(frozenset({"c"})),
        }

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "gt.json"
        save_ground_truth(path, self.sample())
        back = load_ground_truth(path)
        assert back == self.sample()

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_ground_truth(p1, self.sample())
        save_ground_truth(p2, load_ground_truth(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_files(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            load_ground_truth(path)
        path.write_text("[1,2]")
        with pytest.raises(FormatError):
            load_ground_truth(path)
        path.write_text('{"q": {"relevant": "a"}}')
        with pytest.raises(FormatError):
            load_ground_truth(path)
        path.write_text('{"q": {"relevant": ["a"], "bbox": [1,2]}}')
        with pytest.raises(FormatError, match="bbox"):
            load_ground_truth(path)
        path.write_text('{"q": {"relevant": ["a"], "ignored": ["a"]}}')
        with pytest.raises(FormatError):
            load_ground_truth(path)
        # UnicodeDecodeError is a ValueError but not a JSONDecodeError
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError, match="not valid UTF-8"):
            load_ground_truth(path)


class TestEvalCsv:
    def test_exact_format(self, tmp_path):
        path = tmp_path / "eval.csv"
        write_eval_csv(path, [("q1", 1.0), ("q2", 1 / 3)], 2 / 3)
        assert path.read_text() == (
            "query_id,ap\nq1,1.000000\nq2,0.333333\nmAP,0.666667\n")
