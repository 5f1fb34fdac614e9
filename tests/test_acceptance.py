"""Acceptance suite: nine go/no-go checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; add -s to also see the measured margins behind each verdict.
The three-seed training runs are shared by the later criteria through a
module fixture, so the file takes a few minutes end to end.
"""

import hashlib
import math
import os
import time
import warnings

import numpy as np
import pytest
from testkit import central_difference, random_graph

from macforge.backbone import (
    NetParams,
    backward,
    conv,
    forward,
    init_params,
    maxpool,
    tiny_spec,
)
from macforge.descriptor import l2n, mac, mac_backward
from macforge.mining import (
    MiningConfig,
    NoPositiveError,
    ShortListError,
    build_tuples,
    candidate_pool,
    choose_queries,
    mine_negatives,
    positive_m1,
    positive_m2,
    positive_m3,
)
from macforge.numeric import SeededStream
from macforge.pipeline import (
    Extractor,
    benchmark_ground_truth,
    fit_lw_tuples,
    prepare_training,
    render_images,
    split_clusters,
    stage_embed,
    stage_mine,
    stage_synth,
    stage_train,
    stage_whiten,
)
from macforge.retrieval import (
    MODE_CROP_I,
    MODE_CROP_X,
    MODE_FULL,
    DescriptorDB,
    QueryGroundTruth,
    average_precision,
    evaluate,
    search,
)
from macforge.synthscene import SceneConfig, generate
from macforge.training import (
    LossConfig,
    TrainConfig,
    contrastive_loss,
    embedded,
    image_workers,
    l2n_backward,
    train,
    triplet_loss,
)
from macforge.whitening import KIND_LW, apply_projection, fit_lw, fit_pcaw

SEEDS = (0, 1, 2)
FD_STEP = 1e-5
GRAD_TOL = 1e-4


def _grad_close(analytic, numeric, tol=GRAD_TOL):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.max(np.abs(numeric))), 1e-10)
    return float(np.max(np.abs(analytic - numeric))) <= tol * scale


def _retrieval_map(vectors, gt):
    db = DescriptorDB(vectors)
    aps = []
    for qid in sorted(gt):
        ranking = [db.ids[row] for row in search(db, vectors[qid])]
        aps.append(average_precision(ranking, gt[qid]))
    return float(np.mean(aps))


# ---------------------------------------------------------------------------
# Shared three-seed benchmark runs (criteria 5, 6, 7)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    """Per seed: default scene, a (m3,N2) run and a (m1,N1) run, both for
    5 epochs at the stock optimizer settings, plus held-out mAP before
    and after."""
    spec = tiny_spec()
    runs = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        scene = SceneConfig(seed=seed)
        graphs = generate(scene)
        images = render_images(graphs, scene.image_size)
        train_graphs, val_graphs = split_clusters(graphs, 0.2)
        gt_val = benchmark_ground_truth(val_graphs)
        val_ids = sorted(gt_val)
        stream = SeededStream(seed)
        params0 = init_params(spec, stream.derive("init"))
        # one pool per seed, as stage_train opens one per run: the
        # embeds and both train() runs map over it, and no result
        # depends on its worker count
        with image_workers(spec, images.__getitem__, 0) as pool:
            ids = [i for g in graphs for i in sorted(g.images)]
            all0 = dict(zip(ids, embedded(pool, params0, {}, ids)))
            map0 = _retrieval_map({i: all0[i] for i in val_ids}, gt_val)
            setup_seconds = time.perf_counter() - t0

            record = {"spec": spec, "images": images,
                      "train_graphs": train_graphs, "gt_val": gt_val,
                      "map0": map0, "setup_seconds": setup_seconds}
            for pm, nv in (("m3", "N2"), ("m1", "N1")):
                t1 = time.perf_counter()
                miner, val_tuples = prepare_training(
                    graphs, all0, MiningConfig(), pm, nv, 0.2, stream)
                result = train(miner, images.__getitem__, val_tuples, spec,
                               params0, TrainConfig(max_epochs=5),
                               LossConfig(), stream.derive("train"),
                               loss_kind="contrastive", workers=pool)
                trained = dict(zip(val_ids, embedded(
                    pool, result.best_params, {}, val_ids)))
                record[pm + nv] = {
                    "result": result,
                    "map1": _retrieval_map(trained, gt_val),
                    "positives": {t.query: t.positive
                                  for t in miner.current_tuples()},
                    "seconds": time.perf_counter() - t1,
                }
        runs[seed] = record
    return runs


# ---------------------------------------------------------------------------
# Criterion 3 helpers: independent brute-force oracles
# ---------------------------------------------------------------------------


def _oracle_observed(g, img):
    return {p for i, p in g.edges if i == img}


def _oracle_pool(g, q, k):
    qc = g.images[q].center
    ranked = sorted((float(np.linalg.norm(cam.center - qc)), img)
                    for img, cam in g.images.items() if img != q)
    return [img for _, img in ranked[:k]]


def _oracle_m1(q, pool, descs):
    dq = np.asarray(descs[q], dtype=np.float64)
    return min((float(np.linalg.norm(np.asarray(descs[i], np.float64) - dq)),
                i) for i in pool)[1]


def _oracle_m2(q, pool, g):
    pq = _oracle_observed(g, q)
    return min((-len(pq & _oracle_observed(g, i)), i) for i in pool)[1]


def _oracle_scale(g, a, b, shared):
    scales = {}
    for img in (a, b):
        cam = g.images[img]
        depths = [float((cam.rotation @ (g.points[p] - cam.center))[2])
                  for p in sorted(shared)]
        scales[img] = cam.focal / float(np.median(depths))
    r = scales[a] / scales[b]
    return max(r, 1.0 / r)


def _oracle_feasible(g, q, pool, cfg):
    pq = _oracle_observed(g, q)
    feasible = []
    for i in sorted(pool):
        shared = pq & _oracle_observed(g, i)
        if not pq or len(shared) / len(pq) < cfg.inlier_overlap:
            continue
        if _oracle_scale(g, i, q, shared) > cfg.scale_threshold:
            continue
        feasible.append(i)
    return feasible


def _oracle_negatives(q, descs, cluster_of, n, variant):
    dq = np.asarray(descs[q], dtype=np.float64)
    ranked = sorted(
        (-float(np.asarray(v, np.float64) @ dq), i)
        for i, v in descs.items() if cluster_of(i) != cluster_of(q))
    chosen, seen = [], set()
    for _, img in ranked:
        if variant == "N2":
            c = cluster_of(img)
            if c in seen:
                continue
            seen.add(c)
        chosen.append(img)
        if len(chosen) == n:
            return chosen
    raise ShortListError("oracle short list")


# ---------------------------------------------------------------------------
# The nine criteria
# ---------------------------------------------------------------------------


class TestAcceptance:

    def test_1_gradient_suite(self):
        """Analytic gradients of conv, maxpool, MAC, l2n, and both losses
        match 64-bit central differences on 20+ tie-free instances each."""
        t0 = time.perf_counter()
        instances = 20

        # conv: gradients w.r.t. input, weights, and biases
        shapes = [(1, 0), (1, 1), (2, 1), (2, 2), (1, 2)]
        for inst in range(instances):
            stream = SeededStream(100, inst)
            stride, pad = shapes[inst % len(shapes)]
            spec = [conv(2, 3, 3, stride=stride, pad=pad)]
            x = stream.normal(size=(2, 6, 6))
            w = stream.normal(size=(3, 2, 3, 3)) * 0.5
            b = stream.normal(size=3) * 0.1
            params = NetParams([w], [b])
            y, tape = forward(params, spec, x)
            g_out = stream.normal(size=y.shape)

            grads, dx = backward(params, spec, tape, g_out)

            def val(xx=None, ww=None, bb=None):
                p = NetParams([w if ww is None else ww],
                              [b if bb is None else bb])
                out, _ = forward(p, spec, x if xx is None else xx)
                return float(np.sum(g_out * out))

            assert _grad_close(dx, central_difference(
                lambda v: val(xx=v), x, FD_STEP))
            assert _grad_close(grads.weights[0], central_difference(
                lambda v: val(ww=v), w, FD_STEP))
            assert _grad_close(grads.biases[0], central_difference(
                lambda v: val(bb=v), b, FD_STEP))

        # maxpool: tie-free windows by rejection on the top-two gap
        pools = [(2, 2), (2, 1), (3, 1), (3, 2), (3, 3)]
        for inst in range(instances):
            stream = SeededStream(101, inst)
            window, stride = pools[inst % len(pools)]
            spec = [maxpool(window, stride)]

            def pool_margin(x):
                gap = np.inf
                for c in range(x.shape[0]):
                    for i in range(0, x.shape[1] - window + 1, stride):
                        for j in range(0, x.shape[2] - window + 1, stride):
                            v = np.sort(x[c, i:i + window,
                                           j:j + window].reshape(-1))
                            gap = min(gap, float(v[-1] - v[-2]))
                return gap

            x = stream.uniform(0.0, 1.0, (2, 6, 6))
            while pool_margin(x) < 1e-3:
                x = stream.uniform(0.0, 1.0, (2, 6, 6))
            y, tape = forward(NetParams([], []), spec, x)
            g_out = stream.normal(size=y.shape)
            _, dx = backward(NetParams([], []), spec, tape, g_out)
            assert _grad_close(dx, central_difference(
                lambda v: float(np.sum(
                    g_out * forward(NetParams([], []), spec, v)[0])),
                x, FD_STEP))

        # MAC: unique positive per-map maxima
        for inst in range(instances):
            stream = SeededStream(102, inst)
            x = stream.normal(size=(4, 5, 5))
            while True:
                tops = np.sort(x.reshape(4, -1), axis=1)[:, -2:]
                if np.all(tops[:, 1] - tops[:, 0] > 1e-3) \
                        and np.all(tops[:, 1] > 1e-3):
                    break
                x = stream.normal(size=(4, 5, 5))
            g = stream.normal(size=4)
            assert _grad_close(mac_backward(x, g), central_difference(
                lambda v: float(g @ mac(v)), x, FD_STEP))

        # l2n: away from the zero-vector cutoff
        for inst in range(instances):
            stream = SeededStream(103, inst)
            f = stream.normal(size=16)
            while np.linalg.norm(f) < 0.5:
                f = stream.normal(size=16)
            g = stream.normal(size=16)
            assert _grad_close(l2n_backward(f, g), central_difference(
                lambda v: float(g @ l2n(v)), f, FD_STEP))

        # contrastive: both labels, hinge kept away from its kink
        tau = 0.7
        for inst in range(instances):
            stream = SeededStream(104, inst)
            y = inst % 2
            a = stream.normal(size=8)
            spread = 0.15 if (inst // 2) % 2 == 0 else 0.4
            b = a + spread * stream.normal(size=8)
            while y == 0 and abs(np.linalg.norm(a - b) - tau) < 1e-3:
                b = a + spread * stream.normal(size=8)
            _, ga, gb = contrastive_loss(a, b, y, tau)
            assert _grad_close(ga, central_difference(
                lambda v: contrastive_loss(v, b, y, tau)[0], a, FD_STEP))
            assert _grad_close(gb, central_difference(
                lambda v: contrastive_loss(a, v, y, tau)[0], b, FD_STEP))

        # triplet: alternate active and inactive hinges, away from the kink
        margin = 0.1
        for inst in range(instances):
            stream = SeededStream(105, inst)
            q = stream.normal(size=8)
            near, far = 0.1, 0.5
            sp, sn = (far, near) if inst % 2 == 0 else (near, far)
            while True:
                p = q + sp * stream.normal(size=8)
                n = q + sn * stream.normal(size=8)
                value = margin + float((q - p) @ (q - p)) \
                    - float((q - n) @ (q - n))
                if abs(value) > 1e-3:
                    break
            _, (gq, gp, gn) = triplet_loss(q, p, n, margin)
            assert _grad_close(gq, central_difference(
                lambda v: triplet_loss(v, p, n, margin)[0], q, FD_STEP))
            assert _grad_close(gp, central_difference(
                lambda v: triplet_loss(q, v, n, margin)[0], p, FD_STEP))
            assert _grad_close(gn, central_difference(
                lambda v: triplet_loss(q, p, v, margin)[0], n, FD_STEP))

        elapsed = time.perf_counter() - t0
        print(f"gradient suite: 6 ops x {instances} instances "
              f"in {elapsed:.1f}s")
        assert elapsed < 60.0

    def test_2_whitening_identities(self):
        """The fitted projection whitens the matching scatter to identity
        and diagonalizes the non-matching scatter with non-increasing
        diagonal; the 2-D hand example comes out exactly."""
        t0 = time.perf_counter()
        for k in (16, 64):
            stream = SeededStream(900, k)
            n_pairs = 10 * k
            matching, nonmatching, every = [], [], []
            for _ in range(n_pairs):
                a = stream.normal(size=k)
                b = a + 0.1 * stream.normal(size=k)
                c = stream.normal(size=k)
                d = stream.normal(size=k)
                matching.append((a, b))
                nonmatching.append((c, d))
                every.extend([a, b, c, d])
            model = fit_lw(matching, nonmatching, every)

            c_s = np.zeros((k, k))
            for a, b in matching:
                diff = np.asarray(a) - np.asarray(b)
                c_s += np.outer(diff, diff)
            c_d = np.zeros((k, k))
            for a, b in nonmatching:
                diff = np.asarray(a) - np.asarray(b)
                c_d += np.outer(diff, diff)

            p = model.projection
            white_s = p.T @ c_s @ p
            dev_identity = float(np.max(np.abs(white_s - np.eye(k))))
            assert dev_identity < 1e-8 * max(1.0, float(np.max(np.abs(white_s))))

            white_d = p.T @ c_d @ p
            diag = np.diag(white_d).copy()
            off = white_d - np.diag(diag)
            scale_d = float(np.max(np.abs(white_d)))
            assert float(np.max(np.abs(off))) < 1e-8 * scale_d
            assert np.all(np.diff(diag) <= 1e-8 * scale_d)

        # hand example: matching diffs (2,0),(0,1), non-matching diff (0,3)
        zero = np.zeros(2)
        model = fit_lw([(np.array([2.0, 0.0]), zero),
                        (np.array([0.0, 1.0]), zero)],
                       [(np.array([0.0, 3.0]), zero)], [zero])
        want = np.array([[0.0, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(np.abs(model.projection), want, atol=1e-12)

        elapsed = time.perf_counter() - t0
        print(f"whitening identities: K=16 and K=64 in {elapsed:.1f}s")
        assert elapsed < 10.0

    def test_3_mining_oracle_equivalence(self):
        """Pool, positives, negatives, and query choice match brute-force
        reimplementations on 100 random visibility graphs; the m3 pick is
        uniform over its feasible set."""
        t0 = time.perf_counter()
        graphs = []
        for k in range(100):
            n_images = 4 + (k % 12) * 3  # 4..37 images
            n_points = 20 + (k * 7) % 481  # 20..500 points
            graphs.append(random_graph(SeededStream(3000, k), f"g{k:03d}",
                                       n_images, n_points))

        for k, g in enumerate(graphs):
            ids = sorted(g.images)

            got_q = choose_queries(g, SeededStream(3100, k))
            n = len(ids)
            count = math.ceil(0.10 * n) if n <= 300 else 30
            order = SeededStream(3100, k).permutation(n)
            assert got_q == sorted(ids[int(j)] for j in order[:count])

            descs = {i: l2n(np.abs(SeededStream(3200, k).derive(i).normal(
                size=8))) for i in ids}
            cfg = MiningConfig(pool_size=5 + k % 7, inlier_overlap=0.2,
                               scale_threshold=1.5 + (k % 3))
            for q in ids[:2]:
                pool = candidate_pool(g, q, cfg.pool_size)
                assert pool == _oracle_pool(g, q, cfg.pool_size)
                if not pool:
                    continue
                assert positive_m1(q, pool, descs) == _oracle_m1(
                    q, pool, descs)
                assert positive_m2(q, pool, g) == _oracle_m2(q, pool, g)

                feasible = _oracle_feasible(g, q, pool, cfg)
                if not feasible:
                    with pytest.raises(NoPositiveError):
                        positive_m3(q, pool, g, cfg, SeededStream(3300, k))
                    continue
                draws = 60 if len(feasible) <= 4 else 5
                seen = set()
                for d in range(draws):
                    pick = positive_m3(q, pool, g, cfg,
                                       SeededStream(3300, 100 * k + d))
                    assert pick in feasible
                    seen.add(pick)
                if len(feasible) <= 4:
                    assert seen == set(feasible)

        # negatives: universes of four clusters each
        for base in range(0, 100, 4):
            group = graphs[base:base + 4]
            descs, cluster = {}, {}
            for g in group:
                for i in g.images:
                    descs[i] = l2n(np.abs(
                        SeededStream(3400, base).derive(i).normal(size=8)))
                    cluster[i] = g.cluster_id
            q = sorted(group[0].images)[0]
            db = DescriptorDB(descs)
            for variant in ("N1", "N2"):
                assert mine_negatives(q, descs[q], db, cluster.__getitem__,
                                      3, variant) == _oracle_negatives(
                    q, descs, cluster.__getitem__, 3, variant)

        # uniformity of the m3 pick over a known feasible set
        g = random_graph(SeededStream(3500), "u", 10, 12, all_edges=True)
        cfg = MiningConfig(pool_size=9, inlier_overlap=0.2,
                           scale_threshold=100.0)
        q = sorted(g.images)[0]
        pool = candidate_pool(g, q, 9)
        feasible = _oracle_feasible(g, q, pool, cfg)
        assert feasible == sorted(pool)
        draws = 10_000
        counts = {i: 0 for i in feasible}
        for d in range(draws):
            counts[positive_m3(q, pool, g, cfg, SeededStream(3600, d))] += 1
        expect = draws / len(feasible)
        chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
        dof = len(feasible) - 1
        assert chi2 < dof + 3.0 * math.sqrt(2.0 * dof)

        elapsed = time.perf_counter() - t0
        print(f"mining oracles: 100 graphs plus {draws} uniformity draws "
              f"in {elapsed:.1f}s")
        assert elapsed < 60.0

    def test_4_average_precision_oracle(self):
        """average_precision matches the direct definition on 1000 random
        rankings and reproduces the worked example to 6 decimals."""
        stream = SeededStream(4000)
        universe = [f"x{i:02d}" for i in range(50)]
        for case in range(1000):
            s = stream.derive("case", case)
            order = s.permutation(50)
            length = int(s.integers(5, 51))
            ranking = [universe[int(j)] for j in order[:length]]
            n_rel = int(s.integers(1, 11))
            rel_order = s.permutation(50)
            relevant = {universe[int(j)] for j in rel_order[:n_rel]}
            ignored = set()
            if case % 3 == 0:
                ign_order = s.permutation(50)
                ignored = {universe[int(j)] for j in ign_order[:3]} - relevant

            hits, total, rank = 0, 0.0, 0
            for item in ranking:
                if item in ignored:
                    continue
                rank += 1
                if item in relevant:
                    hits += 1
                    total += hits / rank
            want = total / len(relevant)

            got = average_precision(ranking, QueryGroundTruth(
                frozenset(relevant), frozenset(ignored)))
            assert got == want

        example = average_precision(
            ["a", "b", "c"], QueryGroundTruth(frozenset({"a", "c"})))
        assert abs(example - 0.833333) < 1e-6

    def test_5_end_to_end_learning_signal(self, benchmark_runs):
        """Five epochs of (m3, N2) contrastive fine-tuning at the stock
        settings lift held-out mAP by at least 5 points, median over the
        three seeds, inside the runtime budget."""
        deltas = []
        seconds = 0.0
        for seed in SEEDS:
            record = benchmark_runs[seed]
            delta = 100.0 * (record["m3N2"]["map1"] - record["map0"])
            deltas.append(delta)
            seconds += record["setup_seconds"] + record["m3N2"]["seconds"]
            print(f"seed {seed}: mAP {record['map0']:.4f} -> "
                  f"{record['m3N2']['map1']:.4f} ({delta:+.2f} points)")
        print(f"median improvement {np.median(deltas):+.2f} points, "
              f"{seconds:.0f}s total")
        assert np.median(deltas) >= 5.0
        assert seconds < 600.0

    def test_6_strategy_ordering(self, benchmark_runs):
        """Hard-example training (m3, N2) keeps pace with easy-example
        training (m1, N1): its median final mAP trails by at most one
        point. The positive-choice disagreement is reported, not judged."""
        hard = [benchmark_runs[s]["m3N2"]["map1"] for s in SEEDS]
        easy = [benchmark_runs[s]["m1N1"]["map1"] for s in SEEDS]
        for seed in SEEDS:
            p3 = benchmark_runs[seed]["m3N2"]["positives"]
            p1 = benchmark_runs[seed]["m1N1"]["positives"]
            common = sorted(set(p3) & set(p1))
            frac = np.mean([p3[q] != p1[q] for q in common])
            print(f"seed {seed}: m3 and m1 disagree on "
                  f"{100 * frac:.1f}% of {len(common)} positives")
        gap = 100.0 * (np.median(hard) - np.median(easy))
        print(f"median final mAP: m3N2 {np.median(hard):.4f} vs "
              f"m1N1 {np.median(easy):.4f} ({gap:+.2f} points)")
        assert np.median(hard) >= np.median(easy) - 0.01

    def test_7_whitening_comparison(self, benchmark_runs):
        """Discriminative whitening never trails PCA whitening by more
        than one point, at full dimensionality and at half."""
        k = 32
        for seed in SEEDS:
            record = benchmark_runs[seed]
            spec = record["spec"]
            best = record["m3N2"]["result"].best_params
            images = record["images"]
            train_ids = sorted(i for g in record["train_graphs"]
                               for i in g.images)
            gt = record["gt_val"]
            val_ids = sorted(gt)
            # the fit and held-out sets in one map over a pool, as the
            # fixture embeds
            with image_workers(spec, images.__getitem__, 0) as pool:
                desc = embedded(pool, best, {}, train_ids + val_ids)
            fit_desc = dict(zip(train_ids, desc))
            val_desc = dict(zip(val_ids, desc[len(train_ids):]))
            tuples, _ = build_tuples(
                record["train_graphs"], fit_desc, MiningConfig(),
                "m3", "N2", SeededStream(seed).derive("whiten"),
                all_images_as_queries=True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                lw = fit_lw_tuples(fit_desc, tuples)
                pcaw = fit_pcaw([fit_desc[i] for i in train_ids])

            for d in (k, k // 2):
                maps = {}
                for name, model in (("Lw", lw), ("PCAw", pcaw)):
                    proj = {i: apply_projection(model, v, d)
                            for i, v in val_desc.items()}
                    maps[name] = _retrieval_map(proj, gt)
                gap = 100.0 * (maps["Lw"] - maps["PCAw"])
                print(f"seed {seed} d={d}: Lw {maps['Lw']:.4f} "
                      f"PCAw {maps['PCAw']:.4f} ({gap:+.2f} points)")
                assert maps["Lw"] >= maps["PCAw"] - 0.01

    def test_8_determinism(self, tmp_path):
        """Re-running every pipeline stage with the same config and seed
        reproduces the MACD, MFCK, and MFPW artifacts byte for byte."""
        scene = SceneConfig(clusters=4, images_per_cluster=(4, 5),
                            points_per_cluster=(30, 40), image_size=32,
                            seed=77)
        mining_cfg = MiningConfig(pool_size=10, negatives=2,
                                  candidate_negatives_per_cluster=8)
        train_cfg = TrainConfig(batch_tuples=2, max_epochs=2,
                                remine_per_epoch=1, max_image_side=32)

        def run(root):
            data = os.path.join(root, "data")
            stage_synth(scene, data)
            scenes = os.path.join(data, "scenes")
            images = os.path.join(data, "images")
            run_dir = os.path.join(root, "run")
            stage_train(scenes, images, run_dir, train_cfg, LossConfig(),
                        mining_cfg, "m3", "N2", "contrastive", 0.25, seed=9)
            best = os.path.join(run_dir, "best.mfck")
            macd = os.path.join(root, "descriptors.macd")
            stage_embed(best, images, macd)
            tuples_path = os.path.join(root, "tuples.mftp")
            stage_mine(scenes, macd, tuples_path, mining_cfg, "m3", "N2",
                       seed=9)
            mfpw = os.path.join(root, "projection.mfpw")
            # few tuples at K=32 leave the matching scatter rank-deficient
            with pytest.warns(RuntimeWarning):
                stage_whiten(macd, mfpw, KIND_LW, tuples_path=tuples_path)
            return [macd, best, os.path.join(run_dir, "init.mfck"), mfpw]

        def digest(path):
            with open(path, "rb") as f:
                return hashlib.sha256(f.read()).hexdigest()

        first = [digest(p) for p in run(str(tmp_path / "a"))]
        second = [digest(p) for p in run(str(tmp_path / "b"))]
        assert first == second

    def test_9_degenerate_bbox_equivalence(self):
        """With every query box spanning the whole image, the Full,
        Crop_I, and Crop_X evaluation modes agree to 1e-9."""
        scene = SceneConfig(clusters=3, images_per_cluster=(4, 5),
                            points_per_cluster=(30, 40), image_size=48,
                            seed=21)
        graphs = generate(scene)
        images = render_images(graphs, scene.image_size)
        gt = benchmark_ground_truth(graphs, image_size=scene.image_size)
        spec = tiny_spec()
        extractor = Extractor(spec, init_params(spec, SeededStream(33)))
        db = DescriptorDB({i: extractor.extract(images[i])
                           for i in sorted(images)})
        queries = [(q, images[q], gt[q].bbox) for q in sorted(gt)]
        maps = {}
        for mode in (MODE_FULL, MODE_CROP_I, MODE_CROP_X):
            maps[mode], _ = evaluate(db, queries, gt, mode, extractor)
        print(f"Full {maps[MODE_FULL]:.9f} Crop_I {maps[MODE_CROP_I]:.9f} "
              f"Crop_X {maps[MODE_CROP_X]:.9f}")
        assert abs(maps[MODE_FULL] - maps[MODE_CROP_I]) <= 1e-9
        assert abs(maps[MODE_FULL] - maps[MODE_CROP_X]) <= 1e-9
