"""Tests for losses, SGD, validation ranking, and the training loop."""

import multiprocessing
import os

import numpy as np
import pytest
from testkit import (central_difference, in_new_interpreter, margins_ok,
                     rel_err, traced_peak)

from macforge import pipeline, training
from macforge.backbone import (NetParams, conv, forward, init_params, maxpool,
                               relu, tiny_spec)
from macforge.descriptor import l2n, mac, mac_backward
from macforge.mining import MiningConfig, TrainingTuple
from macforge.numeric import DimensionError, SeededStream
from macforge.pipeline import (prepare_training, render_images, stage_synth,
                               stage_train)
from macforge.synthscene import SceneConfig, generate
from macforge.training import (
    EpochMetrics,
    LossConfig,
    TrainConfig,
    TrainingDivergedError,
    contrastive_loss,
    embed_image,
    image_workers,
    l2n_backward,
    lr_at,
    sgd_step,
    sgd_step_net,
    train,
    triplet_loss,
    validate,
    write_metrics_csv,
)
from macforge.backbone import backward


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestContrastiveLoss:
    def test_matching_identical(self):
        a = unit([1.0, 2.0, 2.0])
        loss, ga, gb = contrastive_loss(a, a.copy(), 1, 0.7)
        assert loss == 0.0
        np.testing.assert_array_equal(ga, 0.0)
        np.testing.assert_array_equal(gb, 0.0)

    def test_nonmatching_outside_margin(self):
        a = unit([1.0, 0.0])
        b = unit([np.cos(1.1), np.sin(1.1)])  # distance ~1.05 > 0.7
        loss, ga, gb = contrastive_loss(a, b, 0, 0.7)
        assert loss == 0.0
        np.testing.assert_array_equal(ga, 0.0)

    def test_nonmatching_inside_margin_value(self):
        # d = 0.5, tau = 0.7 -> loss = 0.5 * 0.2^2 = 0.02
        a = np.array([0.25, 0.0])
        b = np.array([-0.25, 0.0])
        loss, _, _ = contrastive_loss(a, b, 0, 0.7)
        assert loss == pytest.approx(0.02)

    def test_nonmatching_at_zero_distance(self):
        a = unit([3.0, 4.0])
        loss, ga, gb = contrastive_loss(a, a.copy(), 0, 0.7)
        assert loss == pytest.approx(0.5 * 0.7 ** 2)
        np.testing.assert_array_equal(ga, 0.0)
        np.testing.assert_array_equal(gb, 0.0)

    def test_nonnegative_and_zero_conditions(self):
        stream = SeededStream(80)
        for trial in range(30):
            s = stream.derive("t", trial)
            a = unit(s.normal(size=6))
            b = unit(s.normal(size=6))
            y = int(s.integers(0, 2))
            loss, _, _ = contrastive_loss(a, b, y, 0.7)
            assert loss >= 0.0
            d = np.linalg.norm(a - b)
            if loss == 0.0:
                assert (y == 1 and d == 0.0) or (y == 0 and d >= 0.7)

    def test_gradients_match_finite_differences(self):
        stream = SeededStream(81)
        checked = 0
        for trial in range(200):
            s = stream.derive("t", trial)
            a = unit(s.normal(size=5))
            b = unit(s.normal(size=5))
            y = int(s.integers(0, 2))
            d = float(np.linalg.norm(a - b))
            if abs(d - 0.7) < 1e-3 or d < 1e-3:
                continue
            loss, ga, gb = contrastive_loss(a, b, y, 0.7)
            fa = central_difference(
                lambda v: contrastive_loss(v, b, y, 0.7)[0], a)
            fb = central_difference(
                lambda v: contrastive_loss(a, v, y, 0.7)[0], b)
            np.testing.assert_allclose(ga, fa, rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(gb, fb, rtol=1e-4, atol=1e-8)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            contrastive_loss(np.ones(3), np.ones(4), 1, 0.7)


class TestTripletLoss:
    def test_positive_equals_query(self):
        q = unit([1.0, 0.0, 0.0])
        n = unit([0.0, 1.0, 0.0])  # ||q-n||^2 = 2 > margin
        loss, grads = triplet_loss(q, q.copy(), n, 0.1)
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_negative_equals_positive(self):
        q = unit([1.0, 1.0])
        p = unit([1.0, 0.0])
        loss, _ = triplet_loss(q, p, p.copy(), 0.1)
        assert loss == pytest.approx(0.1)

    def test_gradients_match_finite_differences(self):
        stream = SeededStream(82)
        checked = 0
        for trial in range(200):
            s = stream.derive("t", trial)
            q = unit(s.normal(size=4))
            p = unit(s.normal(size=4))
            n = unit(s.normal(size=4))
            margin = 0.1
            hinge = margin + np.sum((q - p) ** 2) - np.sum((q - n) ** 2)
            if abs(hinge) < 1e-3:
                continue
            loss, (gq, gp, gn) = triplet_loss(q, p, n, margin)
            np.testing.assert_allclose(
                gq, central_difference(lambda v: triplet_loss(v, p, n, margin)[0], q),
                rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(
                gp, central_difference(lambda v: triplet_loss(q, v, n, margin)[0], p),
                rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(
                gn, central_difference(lambda v: triplet_loss(q, p, v, margin)[0], n),
                rtol=1e-4, atol=1e-8)
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20


class TestL2nBackward:
    def test_parallel_upstream_vanishes(self):
        f = np.array([3.0, 4.0])
        np.testing.assert_allclose(l2n_backward(f, 2.0 * f), 0.0, atol=1e-12)

    def test_orthogonal_upstream_scaled_by_norm(self):
        f = np.array([2.0, 0.0])  # norm 2
        up = np.array([0.0, 1.0])
        np.testing.assert_allclose(l2n_backward(f, up), up / 2.0)

    def test_zero_norm_gives_zero(self):
        np.testing.assert_array_equal(l2n_backward(np.zeros(3), np.ones(3)), 0.0)

    def test_matches_finite_differences(self):
        stream = SeededStream(83)
        for trial in range(20):
            s = stream.derive("t", trial)
            f = s.normal(size=6) + np.sign(s.normal(size=6)) * 0.1
            up = s.normal(size=6)
            analytic = l2n_backward(f, up)
            fd = central_difference(lambda v: float(l2n(v) @ up), f)
            denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-6)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5


class TestLrSchedule:
    def test_paper_schedule(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(0.001)
        assert lr_at(9, cfg) == pytest.approx(0.001)
        assert lr_at(10, cfg) == pytest.approx(0.0002)
        assert lr_at(29, cfg) == pytest.approx(0.00004)


class TestSgdStep:
    def test_noop(self):
        w = np.array([1.0, -2.0])
        w2, v2 = sgd_step(w, np.zeros(2), np.zeros(2), 0.1, 0.0, 0.0)
        np.testing.assert_array_equal(w2, w)
        np.testing.assert_array_equal(v2, 0.0)

    def test_weight_decay_only(self):
        w = np.array([1.0])
        w2, v2 = sgd_step(w, np.zeros(1), np.zeros(1), 0.1, 0.0, 0.5)
        np.testing.assert_allclose(v2, [-0.05])
        np.testing.assert_allclose(w2, [0.95])

    def test_two_steps_hand_unrolled(self):
        lr, mom, wd = 0.1, 0.9, 0.0
        w = np.array([1.0])
        v = np.array([0.0])
        g1, g2 = np.array([0.5]), np.array([-0.25])
        w, v = sgd_step(w, g1, v, lr, mom, wd)
        # v1 = -0.05, w1 = 0.95
        np.testing.assert_allclose(v, [-0.05])
        np.testing.assert_allclose(w, [0.95])
        w, v = sgd_step(w, g2, v, lr, mom, wd)
        # v2 = 0.9*(-0.05) - 0.1*(-0.25) = -0.02, w2 = 0.93
        np.testing.assert_allclose(v, [-0.02])
        np.testing.assert_allclose(w, [0.93])

    def test_plain_gradient_descent_reduction(self):
        s = SeededStream(84)
        w = s.normal(size=(3, 3))
        g = s.normal(size=(3, 3))
        w2, _ = sgd_step(w, g, np.zeros((3, 3)), 0.05, 0.0, 0.0)
        np.testing.assert_array_equal(w2, w - 0.05 * g)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            sgd_step(np.ones(3), np.ones(4), np.ones(3), 0.1, 0.9, 0.0)

    def test_net_level_decay_and_freeze(self):
        spec_params = NetParams(
            [np.ones((2, 1, 1, 1), np.float32), np.ones((2, 2, 1, 1), np.float32)],
            [np.ones(2, np.float32), np.ones(2, np.float32)])
        grads = spec_params.zeros_like()
        vel = spec_params.zeros_like()
        cfg = TrainConfig(momentum=0.0, weight_decay=0.5,
                          freeze_conv_layers=1)
        new, _ = sgd_step_net(spec_params, grads, vel, 0.1, cfg)
        # frozen layer untouched
        np.testing.assert_array_equal(new.weights[0], 1.0)
        np.testing.assert_array_equal(new.biases[0], 1.0)
        # decayed weights, undecayed biases
        np.testing.assert_allclose(new.weights[1], 0.95)
        np.testing.assert_array_equal(new.biases[1], 1.0)


def make_identity_net(dim=2):
    """1x1-conv net whose descriptor equals the (unit, non-negative) pixel."""
    spec = [conv(dim, dim, 1)]
    w = np.eye(dim, dtype=np.float32).reshape(dim, dim, 1, 1)
    params = NetParams([w], [np.zeros(dim, np.float32)])
    return spec, params


def pixel_image(vec):
    return np.asarray(vec, dtype=np.float32).reshape(-1, 1, 1)


class TestValidate:
    def test_positive_always_first(self):
        spec, params = make_identity_net()
        images = {
            "q": pixel_image([1.0, 0.0]),
            "p": pixel_image([1.0, 0.0]),
            "n1": pixel_image([0.0, 1.0]),
            "n2": pixel_image(unit([0.3, 1.0])),
        }
        tuples = [TrainingTuple("q", "p", ("n1", "n2"))]
        assert validate(params, spec, tuples, images.__getitem__) == 1.0

    def test_positive_ranked_second(self):
        spec, params = make_identity_net()
        images = {
            "q": pixel_image([1.0, 0.0]),
            "p": pixel_image(unit([1.0, 0.5])),
            "n1": pixel_image(unit([1.0, 0.1])),  # more similar than p
            "n2": pixel_image([0.0, 1.0]),
            "n3": pixel_image(unit([0.1, 1.0])),
            "n4": pixel_image(unit([0.2, 1.0])),
            "n5": pixel_image(unit([0.3, 1.0])),
        }
        tuples = [TrainingTuple("q", "p", ("n1", "n2", "n3", "n4", "n5"))]
        assert validate(params, spec, tuples, images.__getitem__) == 0.5

    def test_matches_sort_oracle(self):
        spec, params = make_identity_net()
        stream = SeededStream(85)
        images = {}
        tuples = []
        for t in range(6):
            s = stream.derive("t", t)
            ids = [f"t{t}/q", f"t{t}/p"] + [f"t{t}/n{j}" for j in range(4)]
            for i in ids:
                images[i] = pixel_image(unit(np.abs(s.derive(i).normal(size=2))))
            tuples.append(TrainingTuple(ids[0], ids[1], tuple(ids[2:])))
        got = validate(params, spec, tuples, images.__getitem__)
        total = 0.0
        for t in tuples:
            dq = images[t.query].reshape(-1).astype(np.float64)
            cands = [(t.positive, images[t.positive])] + \
                [(n, images[n]) for n in t.negatives]
            ranked = sorted(cands, key=lambda kv: (
                -float(unit(kv[1].reshape(-1)) @ unit(dq)), kv[0]))
            total += 1.0 / (1 + [k for k, _ in ranked].index(t.positive))
        assert got == pytest.approx(total / len(tuples))

    def test_empty_tuples_rejected(self):
        spec, params = make_identity_net()
        with pytest.raises(ValueError):
            validate(params, spec, [], lambda i: None)

    @pytest.mark.parametrize("where", ["q", "p", "n2"])
    def test_non_finite_descriptor_raises(self, where):
        # a NaN similarity would rank by image id and score a finite mAP
        spec, params = make_identity_net()
        images = {i: pixel_image([1.0, 0.0]) for i in ("q", "p", "n1", "n2")}
        images[where] = pixel_image([np.nan, 0.0])
        tuples = [TrainingTuple("q", "p", ("n1", "n2"))]
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            validate(params, spec, tuples, images.__getitem__)


def _mac_margins_ok(out, margin=1e-3):
    flat = np.sort(out.reshape(out.shape[0], -1), axis=1)
    if np.min(np.abs(flat[:, -1])) < margin:
        return False
    if flat.shape[1] > 1 and np.min(flat[:, -1] - flat[:, -2]) < margin:
        return False
    return True


class TestChainRuleThroughDescriptor:
    def test_contrastive_gradient_through_net(self):
        # gradient of the pair loss w.r.t. trunk parameters, via
        # backbone backward + mac/l2n backward, against finite differences
        spec = [conv(2, 3, 3, pad=1), relu(), maxpool(2, 2), conv(3, 4, 1)]
        tau = 0.7
        stream = SeededStream(86)
        checked = 0
        for trial in range(60):
            s = stream.derive("t", trial)
            from macforge.backbone import init_params
            params = init_params(spec, s.derive("p")).astype(np.float64)
            xa = s.normal(size=(2, 6, 6))
            xb = s.derive("b").normal(size=(2, 6, 6))
            if not (margins_ok(spec, params, xa)
                    and margins_ok(spec, params, xb)):
                continue
            outs = {}
            for name, img in (("a", xa), ("b", xb)):
                out, tape = forward(params, spec, img)
                if not _mac_margins_ok(out):
                    out = None
                outs[name] = (out, tape, img)
            if outs["a"][0] is None or outs["b"][0] is None:
                continue
            y = trial % 2
            da = l2n(mac(outs["a"][0]))
            db = l2n(mac(outs["b"][0]))
            d = float(np.linalg.norm(da - db))
            if abs(d - tau) < 1e-2 or d < 1e-2:
                continue

            loss, ga, gb = contrastive_loss(da, db, y, tau)
            analytic = params.zeros_like()
            for (out, tape, img), gdesc in ((outs["a"], ga), (outs["b"], gb)):
                f = mac(out)
                g_out = mac_backward(out, l2n_backward(f, gdesc))
                pg, _ = backward(params, spec, tape, g_out)
                for i in range(len(analytic.weights)):
                    analytic.weights[i] += pg.weights[i]
                    analytic.biases[i] += pg.biases[i]

            def pair_loss(params_now):
                va = l2n(mac(forward(params_now, spec, xa)[0]))
                vb = l2n(mac(forward(params_now, spec, xb)[0]))
                return contrastive_loss(va, vb, y, tau)[0]

            worst = 0.0
            for li in range(len(params.weights)):
                def f_w(w, li=li):
                    ws = list(params.weights)
                    ws[li] = w
                    return pair_loss(NetParams(ws, params.biases))

                def f_b(b, li=li):
                    bs = list(params.biases)
                    bs[li] = b
                    return pair_loss(NetParams(params.weights, bs))

                fdw = central_difference(f_w, params.weights[li])
                fdb = central_difference(f_b, params.biases[li])
                worst = max(worst, rel_err(analytic.weights[li], fdw, 1e-5),
                            rel_err(analytic.biases[li], fdb, 1e-5))
            assert worst < 1e-3, f"trial {trial}: rel err {worst:.2e}"
            checked += 1
            if checked >= 5:
                break
        assert checked >= 5


class FakeSource:
    """Tuple source with no pixels of its own; remine() optionally swaps
    negatives."""

    def __init__(self, tuples, alternates=None):
        self.tuples = list(tuples)
        self.alternates = alternates
        self.remine_calls = 0

    def current_tuples(self):
        return list(self.tuples)

    def remine(self, describe):
        self.remine_calls += 1
        describe([self.tuples[0].query])  # exercise the callback
        if self.alternates is not None:
            self.tuples = list(self.alternates)


def small_problem(stream, n_tuples=12):
    images = {}
    tuples = []
    for t in range(n_tuples):
        s = stream.derive("tuple", t)
        q = unit(np.abs(s.normal(size=2)))
        p = unit(np.abs(q + 0.2 * s.derive("p").normal(size=2)))
        ids = [f"t{t}/q", f"t{t}/p", f"t{t}/n0", f"t{t}/n1"]
        images[ids[0]] = pixel_image(q)
        images[ids[1]] = pixel_image(p)
        images[ids[2]] = pixel_image(unit(np.abs(s.derive("n0").normal(size=2))))
        images[ids[3]] = pixel_image(unit(np.abs(s.derive("n1").normal(size=2))))
        tuples.append(TrainingTuple(ids[0], ids[1], (ids[2], ids[3])))
    return images, tuples


class TestTrainLoop:
    def test_empty_source_rejected(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(86), n_tuples=2)
        source = FakeSource([])
        with pytest.raises(ValueError, match="no training tuples"):
            train(source, images.__getitem__, tuples, spec, params,
                  TrainConfig(max_epochs=2), LossConfig(), SeededStream(0))
        assert source.remine_calls == 0

    def test_empty_validation_set_rejected_before_training(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(86), n_tuples=4)
        source = FakeSource(tuples)
        with pytest.raises(ValueError, match="validation tuple set is empty"):
            train(source, images.__getitem__, [], spec, params,
                  TrainConfig(max_epochs=2, batch_tuples=2), LossConfig(),
                  SeededStream(0))
        assert source.remine_calls == 0

    def test_pixels_come_from_image_of_not_the_source(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(96), n_tuples=4)
        source = FakeSource(tuples)
        assert not hasattr(source, "image")
        read = []

        def image_of(image_id):
            read.append(image_id)
            return images[image_id]

        cfg = TrainConfig(base_lr=0.01, max_epochs=2, batch_tuples=2,
                          remine_per_epoch=1)
        result = train(source, image_of, tuples, spec, params, cfg,
                       LossConfig(), SeededStream(9))
        assert source.remine_calls == 1
        assert len(result.metrics) == 2
        assert set(read) == set(images)

    def test_zero_lr_is_noop(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(87))
        source = FakeSource(tuples)
        cfg = TrainConfig(base_lr=0.0, max_epochs=1, batch_tuples=4,
                          remine_per_epoch=1)
        result = train(source, images.__getitem__, tuples, spec, params,
                       cfg, LossConfig(), SeededStream(1))
        for a, b in zip(result.best_params.weights, params.weights):
            np.testing.assert_array_equal(a, b)
        base_map = validate(params, spec, tuples, images.__getitem__)
        assert result.metrics[0].val_map == pytest.approx(base_map)
        assert result.best_epoch == 0

    def test_metrics_lr_column_matches_schedule(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(88), n_tuples=6)
        source = FakeSource(tuples)
        cfg = TrainConfig(base_lr=0.01, lr_divisor=2.0, lr_period=2,
                          max_epochs=5, batch_tuples=3, remine_per_epoch=1)
        result = train(source, images.__getitem__, tuples, spec, params,
                       cfg, LossConfig(), SeededStream(2))
        assert len(result.metrics) == 5
        for m in result.metrics:
            assert m.lr == pytest.approx(lr_at(m.epoch, cfg))

    def test_remine_count_per_epoch(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(89), n_tuples=12)
        source = FakeSource(tuples)
        cfg = TrainConfig(max_epochs=2, batch_tuples=4, remine_per_epoch=3)
        train(source, images.__getitem__, tuples, spec, params, cfg,
              LossConfig(), SeededStream(3))
        # 12 tuples / 4 per batch = 3 batches; boundaries {0,1,2} -> 3 per
        # epoch, less the epoch-0 batch-0 one: no SGD step has run yet
        assert source.remine_calls == 5

    def test_deterministic_given_seed(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(90))
        cfg = TrainConfig(base_lr=0.05, max_epochs=3, batch_tuples=4,
                          remine_per_epoch=2)
        r1 = train(FakeSource(tuples), images.__getitem__, tuples, spec,
                   params.copy(), cfg, LossConfig(), SeededStream(4))
        r2 = train(FakeSource(tuples), images.__getitem__, tuples, spec,
                   params.copy(), cfg, LossConfig(), SeededStream(4))
        for a, b in zip(r1.best_params.weights, r2.best_params.weights):
            assert np.array_equal(a, b)
        assert r1.metrics == r2.metrics

    def test_tie_prefers_earliest_epoch(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(91), n_tuples=5)
        source = FakeSource(tuples)
        cfg = TrainConfig(base_lr=0.0, max_epochs=3, batch_tuples=5,
                          remine_per_epoch=1)
        result = train(source, images.__getitem__, tuples, spec, params,
                       cfg, LossConfig(), SeededStream(5))
        assert result.best_epoch == 0

    def test_divergence_guard(self, monkeypatch):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(92), n_tuples=6)
        source = FakeSource(tuples)
        cfg = TrainConfig(base_lr=1e30, max_epochs=2, batch_tuples=3,
                          remine_per_epoch=1)
        events = []  # "taped", "tape-free" per forward, "sgd" per step

        def recording_forward(params, spec, image, *, tape=True):
            events.append("taped" if tape else "tape-free")
            return forward(params, spec, image, tape=tape)

        def counting_sgd(*args):
            events.append("sgd")
            return sgd_step_net(*args)

        monkeypatch.setattr(training, "forward", recording_forward)
        monkeypatch.setattr(training, "sgd_step_net", counting_sgd)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train(source, images.__getitem__, tuples, spec, params,
                      cfg, LossConfig(), SeededStream(6))
        # the diverging batch raised before its gradient pass
        last_step = len(events) - events[::-1].index("sgd")
        assert "taped" in events[:last_step]
        assert "taped" not in events[last_step:]

    def test_triplet_loss_path_runs(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(93), n_tuples=6)
        source = FakeSource(tuples)
        cfg = TrainConfig(base_lr=0.01, max_epochs=2, batch_tuples=3,
                          remine_per_epoch=1)
        result = train(source, images.__getitem__, tuples, spec, params,
                       cfg, LossConfig(), SeededStream(7), loss_kind="triplet")
        assert len(result.metrics) == 2
        assert all(np.isfinite(m.train_loss) for m in result.metrics)

    def test_refreshed_negatives_are_used(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(94), n_tuples=4)
        # alternates swap the two negatives of each tuple
        alternates = [TrainingTuple(t.query, t.positive,
                                    (t.negatives[1], t.negatives[0]))
                      for t in tuples]
        source = FakeSource(tuples, alternates=alternates)
        # the epoch-0 re-mine is skipped, so the one at epoch 1 swaps them
        cfg = TrainConfig(base_lr=0.0, max_epochs=2, batch_tuples=2,
                          remine_per_epoch=1)
        train(source, images.__getitem__, tuples, spec, params, cfg,
              LossConfig(), SeededStream(8))
        assert source.remine_calls == 1
        assert source.tuples == alternates


ONCE_SCENE = SceneConfig(clusters=4, images_per_cluster=(4, 5),
                         points_per_cluster=(30, 40), image_size=24, seed=5)
ONCE_MINING = MiningConfig(pool_size=10, negatives=2,
                           candidate_negatives_per_cluster=8)


def counted_sgd_steps(monkeypatch):
    """A one-item list that counts training's sgd_step_net calls: the
    parameter version."""
    version = [0]

    def counting_sgd(*args):
        version[0] += 1
        return sgd_step_net(*args)

    monkeypatch.setattr(training, "sgd_step_net", counting_sgd)
    return version


class TestEmbeddingOncePerVersion:
    """train() embeds each image at most once per parameter version;
    re-mining and validation never embed before the first SGD step, and
    a batch loss right after a re-mine embeds nothing."""

    @staticmethod
    def mined():
        """(images, spec, stream, entry params, their descriptors, miner,
        held-out tuples) as prepare_training leaves them."""
        graphs = generate(ONCE_SCENE)
        images = render_images(graphs, ONCE_SCENE.image_size)
        spec = tiny_spec()
        stream = SeededStream(5)
        params0 = init_params(spec, stream.derive("init"))
        initial = {i: embed_image(params0, spec, images[i]) for i in images}
        miner, val_tuples = prepare_training(graphs, initial, ONCE_MINING,
                                             "m3", "N2", 0.25, stream)
        return images, spec, stream, params0, initial, miner, val_tuples

    def test_miner_from_prepare_training(self, monkeypatch):
        images, spec, stream, params0, _, miner, val_tuples = self.mined()
        id_of = {id(image): i for i, image in images.items()}
        version = counted_sgd_steps(monkeypatch)
        caller = [None]  # "remine", "validate" or "batch" while one runs
        calls = []  # (caller, version, image id) per embed_image call

        def recording_embed(params, spec, image):
            calls.append((caller[0], version[0], id_of[id(image)]))
            return embed_image(params, spec, image)

        def tagged(name, fn):
            def run(*args):
                caller[0] = name
                try:
                    return fn(*args)
                finally:
                    caller[0] = None
            return run

        # epoch 0 validates after its last step; epoch 1 re-mines there
        epoch0_steps = -(-len(miner.current_tuples()) // 2)
        remines = []
        original_remine = miner.remine

        def recording_remine(describe):
            remines.append(version[0])
            return original_remine(describe)

        batch_embeds = []  # (version, embed_image calls) per loss pass
        original_batch = training._batch_loss

        def recording_batch(*args):
            before = len(calls)
            result = original_batch(*args)
            batch_embeds.append((version[0], len(calls) - before))
            return result

        monkeypatch.setattr(training, "embed_image", recording_embed)
        monkeypatch.setattr(miner, "remine", tagged("remine",
                                                    recording_remine))
        monkeypatch.setattr(training, "validate",
                            tagged("validate", training.validate))
        monkeypatch.setattr(training, "_batch_loss",
                            tagged("batch", recording_batch))
        train(miner, images.__getitem__, val_tuples, spec, params0,
              TrainConfig(batch_tuples=2, max_epochs=2, remine_per_epoch=2),
              LossConfig(), stream.derive("train"))

        embedded = [(v, i) for c, v, i in calls if c != "batch"]
        assert {c for c, _, _ in calls} == {"remine", "validate", "batch"}
        assert epoch0_steps in remines and min(remines) > 0
        assert embedded and min(v for v, _ in embedded) > 0
        assert len(set(embedded)) == len(embedded)
        # validation and the re-mine after it share that version's images
        val_ids = {i for t in val_tuples
                   for i in (t.query, t.positive) + t.negatives}
        universe = set(miner.universe)
        assert val_ids & universe
        assert {i for v, i in embedded if v == epoch0_steps} == \
            val_ids | universe
        # the batch losses share the cache: no pair twice across callers
        every = [(v, i) for _, v, i in calls]
        assert len(set(every)) == len(every)
        # the epoch-0, batch-0 loss embeds under the entry params
        assert batch_embeds[0][0] == 0 and batch_embeds[0][1] > 0
        after_remine = [n for v, n in batch_embeds if v in remines]
        assert after_remine and not any(after_remine)

    def test_entry_cache_is_read_from_a_copy(self, monkeypatch):
        images, spec, stream, params0, initial, miner, val_tuples = \
            self.mined()
        # every other image's entry descriptor
        entry = {i: initial[i] for i in sorted(initial)[::2]}
        snapshot = dict(entry)
        id_of = {id(image): i for i, image in images.items()}
        version = counted_sgd_steps(monkeypatch)
        calls = []  # (version, image id) per embed_image call

        def recording_embed(params, spec, image):
            calls.append((version[0], id_of[id(image)]))
            return embed_image(params, spec, image)

        monkeypatch.setattr(training, "embed_image", recording_embed)
        train(miner, images.__getitem__, val_tuples, spec, params0,
              TrainConfig(batch_tuples=2, max_epochs=1), LossConfig(),
              stream.derive("train"), entry_cache=entry)
        # the first loss pass embeds only what the entry cache lacks, into
        # train's own copy
        first = {i for v, i in calls if v == 0}
        assert first and not first & set(entry)
        assert entry.keys() == snapshot.keys()
        assert all(entry[i] is snapshot[i] for i in entry)

    def test_stage_train_embeds_each_version_once(self, tmp_path,
                                                  monkeypatch):
        # stage_train's initial embedding is version 0, and train() starts
        # from it: no (version, id) pair repeats across the two
        out = tmp_path / "synth"
        stage_synth(ONCE_SCENE, str(out), threads=1)
        version = counted_sgd_steps(monkeypatch)
        in_train = [False]
        calls = []  # (inside train, version, image id) per embed

        original_work = training._image_work

        def recording_work(spec, image_of, payload, image_id):
            if payload[1] is None:
                calls.append((in_train[0], version[0], image_id))
            return original_work(spec, image_of, payload, image_id)

        def tagged_train(*args, **kwargs):
            in_train[0] = True
            try:
                return train(*args, **kwargs)
            finally:
                in_train[0] = False

        monkeypatch.setattr(training, "_image_work", recording_work)
        monkeypatch.setattr(pipeline, "train", tagged_train)
        stage_train(str(out / "scenes"), str(out / "images"),
                    str(tmp_path / "run"),
                    TrainConfig(batch_tuples=2, max_epochs=2,
                                remine_per_epoch=2, max_image_side=24),
                    LossConfig(), ONCE_MINING, "m3", "N2", "contrastive",
                    0.25, seed=5, threads=1)

        initial = [(v, i) for inside, v, i in calls if not inside]
        trained = [(v, i) for inside, v, i in calls if inside]
        ids = [i for g in pipeline.load_scenes_dir(str(out / "scenes"))
               for i in g.images]
        assert {v for v, _ in initial} == {0}
        assert sorted(i for _, i in initial) == sorted(ids)
        assert trained and min(v for v, _ in trained) > 0
        every = initial + trained
        assert len(set(every)) == len(every)


@pytest.fixture(scope="module")
def tiny_scene():
    """A 4-cluster scene at 24 px, the tiny_spec trunk and its initial
    descriptors."""
    graphs = generate(SceneConfig(clusters=4, images_per_cluster=(4, 5),
                                  points_per_cluster=(30, 40),
                                  image_size=24, seed=5))
    images = render_images(graphs, 24)
    spec = tiny_spec()
    params0 = init_params(spec, SeededStream(5).derive("init"))
    initial = {i: embed_image(params0, spec, images[i]) for i in images}
    return graphs, images, spec, params0, initial


def train_tiny(tiny_scene, loss_kind, freeze, threads=1):
    """train() on tiny_scene: m3/N2 tuples, 3 epochs, 2 re-mines each,
    over an image_workers pool over threads."""
    graphs, images, spec, params0, initial = tiny_scene
    stream = SeededStream(6)
    miner, val_tuples = prepare_training(
        graphs, initial,
        MiningConfig(pool_size=10, negatives=2,
                     candidate_negatives_per_cluster=8),
        "m3", "N2", 0.25, stream)
    # no weight decay: a layer moves only through its gradients
    cfg = TrainConfig(base_lr=0.01, weight_decay=0.0, batch_tuples=2,
                      max_epochs=3, remine_per_epoch=2,
                      freeze_conv_layers=freeze)
    with image_workers(spec, images.__getitem__, threads) as pool:
        return train(miner, images.__getitem__, val_tuples, spec, params0,
                     cfg, LossConfig(), stream.derive("train"),
                     loss_kind=loss_kind, workers=pool)


def assert_same_result(a, b):
    """Two TrainResults agree byte for byte."""
    for x, y in zip(a.best_params.weights + a.best_params.biases,
                    b.best_params.weights + b.best_params.biases):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.best_epoch == b.best_epoch
    assert a.best_val_map == b.best_val_map
    assert a.metrics == b.metrics


class TestBackwardStopInTrain:
    """Stopping each batch backward after conv freeze_conv_layers changes
    no byte of what train() returns."""

    @pytest.mark.parametrize("freeze", [0, 1, 2])
    @pytest.mark.parametrize("loss_kind", ["contrastive", "triplet"])
    def test_matches_full_walk(self, tiny_scene, loss_kind, freeze,
                               monkeypatch):
        calls = []

        def full_walk(params, spec, tape, output_grad, *, lowest_conv=None):
            calls.append(lowest_conv)
            return backward(params, spec, tape, output_grad)

        stopped = train_tiny(tiny_scene, loss_kind, freeze)
        monkeypatch.setattr(training, "backward", full_walk)
        full = train_tiny(tiny_scene, loss_kind, freeze)
        assert calls and set(calls) == {freeze}
        assert_same_result(stopped, full)
        # the frozen layers keep the entry weights; the others moved
        params0 = tiny_scene[3]
        for i, (w, w0) in enumerate(zip(stopped.best_params.weights,
                                        params0.weights)):
            assert np.array_equal(w, w0) == (i < freeze)

    def test_freezing_every_conv_is_rejected(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(95), n_tuples=2)
        source = FakeSource(tuples)
        with pytest.raises(ValueError, match="the network has 1"):
            train(source, images.__getitem__, tuples, spec, params,
                  TrainConfig(max_epochs=1, freeze_conv_layers=1),
                  LossConfig(), SeededStream(0))
        assert source.remine_calls == 0


class TestTapeFreeForwardsInTrain:
    """Re-mining, validation, the batch losses and the initial embedding
    forward without a tape, the gradient pass with one; forcing every
    forward of train() onto the taped path changes no byte of what it
    returns."""

    def test_matches_taped_forwards(self, tiny_scene, monkeypatch):
        tape_free = train_tiny(tiny_scene, "contrastive", 0)
        asked = []

        def taped(params, spec, image, *, tape=True):
            asked.append(tape)
            return forward(params, spec, image)

        monkeypatch.setattr(training, "forward", taped)
        graphs, images, spec, params0, initial = tiny_scene
        for image_id, vector in initial.items():
            assert embed_image(params0, spec, images[image_id]).tobytes() \
                == vector.tobytes()
        assert set(asked) == {False}
        assert_same_result(tape_free, train_tiny(tiny_scene, "contrastive", 0))
        assert set(asked) == {False, True}


def batch_gradients(params, spec, batch, image_of, cache, loss_cfg,
                    loss_kind, lowest_conv):
    """train()'s two passes over one batch: the loss pass, then the
    gradient pass, both in this process. Returns (mean_loss, grads)."""
    with image_workers(spec, image_of) as workers:
        loss, desc_grads = training._batch_loss(params, batch, cache,
                                                loss_cfg, loss_kind, workers)
        return loss, training._param_gradients(params, desc_grads,
                                               lowest_conv, workers)


def reference_batch_gradients(params, spec, batch, image_of, loss_cfg,
                              loss_kind, lowest_conv):
    """The one-pass batch routine: every image forwarded once with a tape,
    all tapes kept until the last backward."""
    acts = {}

    def ensure(image_id):
        if image_id not in acts:
            out, tape = forward(params, spec, image_of(image_id))
            f = mac(out)
            acts[image_id] = (out, tape, f, l2n(f))
        return acts[image_id]

    desc_grads = {}

    def add_grad(image_id, g):
        if image_id in desc_grads:
            desc_grads[image_id] = desc_grads[image_id] + g
        else:
            desc_grads[image_id] = g

    total = 0.0
    n_pairs = 0
    for t in batch:
        dq = ensure(t.query)[3]
        if loss_kind == "contrastive":
            pairs = [(t.positive, 1)] + [(n, 0) for n in t.negatives]
            for other, label in pairs:
                do = ensure(other)[3]
                loss, ga, gb = contrastive_loss(dq, do, label, loss_cfg.tau)
                total += loss
                n_pairs += 1
                add_grad(t.query, ga)
                add_grad(other, gb)
        else:
            dp = ensure(t.positive)[3]
            for neg in t.negatives:
                dn = ensure(neg)[3]
                loss, (gq, gp, gn) = triplet_loss(dq, dp, dn,
                                                  loss_cfg.triplet_margin)
                total += loss
                n_pairs += 1
                add_grad(t.query, gq)
                add_grad(t.positive, gp)
                add_grad(neg, gn)

    grads = params.zeros_like()
    inv = 1.0 / n_pairs
    for image_id in sorted(desc_grads):
        out, tape, f, _ = acts[image_id]
        g_f = l2n_backward(f, desc_grads[image_id] * inv)
        g_out = mac_backward(out, g_f)
        pg, _ = backward(params, spec, tape, g_out.astype(out.dtype),
                         lowest_conv=lowest_conv)
        for i in range(lowest_conv, len(grads.weights)):
            grads.weights[i] += pg.weights[i]
            grads.biases[i] += pg.biases[i]
    return total * inv, grads


def overlapping_batch(ids):
    """Three tuples over ids[:9]: ids[0] is one tuple's query and another's
    negative, ids[2] the reverse, and ids[3] is a negative of all three."""
    a, b, c, d, e, f, g, h, k = ids[:9]
    return [TrainingTuple(a, b, (c, d, e)),
            TrainingTuple(c, f, (d, a, g)),
            TrainingTuple(h, k, (d, e))]


class TestTwoPassBatchGradients:
    """The loss pass over cached descriptors and the one-image-at-a-time
    gradient pass give the one-pass routine's loss and gradient bytes."""

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("lowest_conv", [0, 1, 2])
    @pytest.mark.parametrize("loss_kind", ["contrastive", "triplet"])
    def test_matches_reference(self, tiny_scene, loss_kind, lowest_conv,
                               warm):
        _, images, spec, params0, _ = tiny_scene
        params = params0.copy()
        batch = overlapping_batch(sorted(images))
        loss_cfg = LossConfig(tau=1.5, triplet_margin=0.5)
        ids = {i for t in batch for i in (t.query, t.positive) + t.negatives}
        cache = {i: embed_image(params, spec, images[i])
                 for i in ids} if warm else {}
        warm_bytes = {i: v.tobytes() for i, v in cache.items()}
        loss, grads = batch_gradients(
            params, spec, batch, images.__getitem__, cache, loss_cfg,
            loss_kind, lowest_conv)
        ref_loss, ref_grads = reference_batch_gradients(
            params, spec, batch, images.__getitem__, loss_cfg, loss_kind,
            lowest_conv)
        assert loss > 0 and loss == ref_loss
        for x, y in zip(grads.weights + grads.biases,
                        ref_grads.weights + ref_grads.biases):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        assert grads.weights[lowest_conv].any()
        assert set(cache) == ids
        assert all(cache[i].tobytes() == b for i, b in warm_bytes.items())


def random_images(n, side, seed):
    rng = np.random.default_rng(seed)
    return {f"im{j:02d}": rng.random((3, side, side), dtype=np.float32)
            for j in range(n)}


def wide_batch(ids):
    """Two tuples of a query, a positive and five negatives each, over 14
    distinct images."""
    return [TrainingTuple(ids[0], ids[1], tuple(ids[2:7])),
            TrainingTuple(ids[7], ids[8], tuple(ids[9:14]))]


def tape_bytes(tape):
    """Bytes of the distinct arrays one tape holds."""
    arrays = {id(a): a for entry in tape for a in entry[3:]
              if isinstance(a, np.ndarray)}
    return sum(a.nbytes for a in arrays.values())


def tape_peaks():
    """(bytes of one tape, traced peak of batch_gradients, traced peak of
    reference_batch_gradients) on a 14-image contrastive batch."""
    spec = tiny_spec()
    params = init_params(spec, SeededStream(5).derive("init"))
    images = random_images(14, 96, 2)
    batch = wide_batch(sorted(images))
    one_tape = tape_bytes(forward(params, spec, images["im00"])[1])
    loss_cfg = LossConfig()
    peak = traced_peak(batch_gradients, params, spec, batch,
                       images.__getitem__, {}, loss_cfg, "contrastive", 0)
    ref_peak = traced_peak(reference_batch_gradients, params, spec, batch,
                           images.__getitem__, loss_cfg, "contrastive", 0)
    return one_tape, peak, ref_peak


class TestOneTapeAlive:
    """A batch keeps at most one backward tape alive: each taped forward
    is followed by its backward before the next one starts."""

    def test_forward_backward_interleave(self, monkeypatch):
        spec = tiny_spec()
        params = init_params(spec, SeededStream(5).derive("init"))
        images = random_images(14, 32, 1)
        batch = wide_batch(sorted(images))
        events = []

        def recording_forward(params, spec, image, *, tape=True):
            out, t = forward(params, spec, image, tape=tape)
            if tape:
                events.append(("forward", id(t)))
            return out, t

        def recording_backward(params, spec, tape, output_grad, **kwargs):
            events.append(("backward", id(tape)))
            return backward(params, spec, tape, output_grad, **kwargs)

        monkeypatch.setattr(training, "forward", recording_forward)
        monkeypatch.setattr(training, "backward", recording_backward)
        batch_gradients(params, spec, batch, images.__getitem__, {},
                        LossConfig(), "contrastive", 0)
        assert [kind for kind, _ in events] == \
            ["forward", "backward"] * len(images)
        for (_, taped), (_, walked) in zip(events[::2], events[1::2]):
            assert taped == walked

    def test_peak_under_three_tapes(self):
        # traced in a new interpreter: a rebuild of the interned-string
        # table inside the traced window would count as 1.75 tapes
        one_tape, peak, ref_peak = in_new_interpreter("test_training",
                                                      "tape_peaks")
        assert one_tape > 1_000_000
        assert peak < 3 * one_tape
        # the bound has teeth: the one-pass routine keeps all 14 tapes
        assert ref_peak > 3 * one_tape


class WorkerFailed(Exception):
    pass


class TestTrainWorkers:
    """train() maps its per-image work over the one set of forked workers
    its caller's pool holds and returns the same bytes at every worker
    count; no worker outlives the pool."""

    @pytest.mark.parametrize("freeze", [0, 1])
    @pytest.mark.parametrize("loss_kind", ["contrastive", "triplet"])
    def test_same_result_at_any_worker_count(self, tiny_scene, loss_kind,
                                             freeze, monkeypatch):
        serial = train_tiny(tiny_scene, loss_kind, freeze)
        children = []  # the live children's pids at each SGD step

        def recording_sgd(*args):
            children.append(sorted(p.pid for p in
                                   multiprocessing.active_children()))
            return sgd_step_net(*args)

        monkeypatch.setattr(training, "sgd_step_net", recording_sgd)
        for workers in (2, 3):
            children.clear()
            assert_same_result(serial, train_tiny(tiny_scene, loss_kind,
                                                  freeze, workers))
            # forked once per pool: the same workers - 1 children serve
            # every step
            assert len(children[0]) == workers - 1
            assert all(pids == children[0] for pids in children)
            assert multiprocessing.active_children() == []

    def test_divergence_in_the_caller_leaves_no_worker(self):
        spec, params = make_identity_net()
        images, tuples = small_problem(SeededStream(92), n_tuples=6)
        cfg = TrainConfig(base_lr=1e30, max_epochs=2, batch_tuples=3,
                          remine_per_epoch=1)
        with np.errstate(over="ignore", invalid="ignore"), \
                image_workers(spec, images.__getitem__, 3) as pool:
            with pytest.raises(TrainingDivergedError, match="epoch"):
                train(FakeSource(tuples), images.__getitem__, tuples, spec,
                      params, cfg, LossConfig(), SeededStream(6),
                      workers=pool)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stage", ["embed", "gradient"])
    def test_exception_in_a_worker_reaches_the_caller(self, tiny_scene,
                                                      stage, monkeypatch):
        caller = os.getpid()
        original = (training.embed_image if stage == "embed"
                    else training._image_gradients)

        def fail_in_a_child(*args):
            if os.getpid() != caller:
                raise WorkerFailed(f"{stage} in a child")
            return original(*args)

        name = "embed_image" if stage == "embed" else "_image_gradients"
        monkeypatch.setattr(training, name, fail_in_a_child)
        with pytest.raises(WorkerFailed, match=f"{stage} in a child"):
            train_tiny(tiny_scene, "contrastive", 0, threads=2)
        assert multiprocessing.active_children() == []


class TestMetricsCsv:
    def test_format(self, tmp_path):
        rows = [EpochMetrics(0, 0.001, 0.25, 0.5),
                EpochMetrics(1, 0.001, 0.125, 0.75)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_map"
        assert lines[1] == "0,0.001,0.25,0.5"
        assert len(lines) == 3
