"""In-memory span tracing installed from outside the program.

A Tracer wraps public functions of the macforge modules on the names
their callers look up (``training.forward``, ``pipeline.rmac``,
``whitening.sym_eig``, ...). Each wrapped call records one span: name,
start, end and parent span. Spans stay in memory; the benchmark turns
them into per-layer metrics when the traced pass ends.

Functions called on the order of 1e5 times per run (``Camera.depth_of``,
``l2n``, ``similarity``) are deliberately not wrapped; their cost shows
up as self time of their callers.
"""

import contextlib
import functools
import os
import statistics
import threading
import time

from macforge import (
    backbone,
    mining,
    numeric,
    pipeline,
    retrieval,
    training,
    whitening,
)


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans and counters from wrapped calls.

    Spans opened on a worker thread with no open span of their own take
    the main thread's innermost open span as parent: the embedding pool
    runs while the main thread waits inside ``pipeline.embed_images``.
    """

    def __init__(self):
        self.spans = []
        self.counters = {}
        self.samples = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def sample(self, key, value):
        with self._lock:
            self.samples.setdefault(key, []).append(value)

    def peak(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name, fn, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(name, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_exit is not None:
                on_exit(self, span, args, result)
            return result
        return wrapper


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries
# ---------------------------------------------------------------------------

_FLOP_CACHE = {}


def conv_gflop(spec, in_shape):
    """Forward GFLOP of the conv layers: 2 * out_maps * out_h * out_w *
    in_maps * k^2 each, with shapes from backbone.output_shapes."""
    key = (tuple(spec), tuple(in_shape))
    if key not in _FLOP_CACHE:
        shapes = backbone.output_shapes(spec, tuple(in_shape))
        flops = 0
        for layer, (maps, h, w) in zip(spec, shapes):
            if layer.kind == backbone.CONV:
                flops += 2 * maps * h * w * layer.in_maps * layer.kernel ** 2
        _FLOP_CACHE[key] = flops / 1e9
    return _FLOP_CACHE[key]


def _after_forward(tracer, span, args, result):
    _, spec, image = args[:3]
    tracer.add("backbone.forward.gflop_computed",
               conv_gflop(spec, image.shape))


def _after_backward(tracer, span, args, result):
    # backward computes a weight GEMM and an input GEMM per conv layer,
    # each the size of the forward GEMM; the input gradient has the
    # input's shape
    tracer.add("backbone.backward.gflop_computed",
               2.0 * conv_gflop(args[1], result[1].shape))


def _after_write_ppm(tracer, span, args, result):
    tracer.add("images.write_ppm.bytes", os.path.getsize(args[0]))


def _after_render(tracer, span, args, result):
    tracer.sample("synthscene.render.ms", 1e3 * span.duration)


def _after_search(tracer, span, args, result):
    tracer.sample("retrieval.search.ms", 1e3 * span.duration)


def _after_sym_eig(tracer, span, args, result):
    tracer.peak("numeric.sym_eig.dim", len(result[0]))


SKIP_REASONS = (
    ("no feasible positive", "no_feasible_positive"),
    ("empty candidate pool", "empty_pool"),
    ("negatives for", "short_negatives"),
)


def skip_reason(text):
    """Group a build_tuples skip message by its exception text."""
    for fragment, slug in SKIP_REASONS:
        if fragment in text:
            return slug
    return "other"


def _after_build_tuples(tracer, span, args, result):
    tuples, skipped = result
    tracer.add("mining.build_tuples.queries", len(tuples) + len(skipped))
    tracer.add("mining.build_tuples.tuples", len(tuples))
    for _, reason in skipped:
        tracer.add("mining.build_tuples.skipped." + skip_reason(reason))


def _after_contrastive(tracer, span, args, result):
    if not args[2]:
        tracer.add("training.negative_pairs")
        if result[0] > 0:
            tracer.add("training.negative_pairs_inside_margin")


# (owner, attribute, span name, on_exit): the owner is the module or
# class whose attribute the calling code looks up at call time
WRAPPED = [
    (pipeline, "generate", "synthscene.generate", None),
    (pipeline, "render", "synthscene.render", _after_render),
    (pipeline, "write_ppm", "images.write_ppm", _after_write_ppm),
    (pipeline, "read_ppm", "images.read_ppm", None),
    (pipeline, "forward", "backbone.forward", _after_forward),
    (training, "forward", "backbone.forward", _after_forward),
    (training, "backward", "backbone.backward", _after_backward),
    (pipeline, "rmac", "descriptor.rmac", None),
    (pipeline, "crop_activations", "descriptor.crop_activations", None),
    (pipeline, "save_descriptors", "descriptor.save_descriptors", None),
    (pipeline, "build_tuples", "mining.build_tuples", _after_build_tuples),
    (mining, "build_tuples", "mining.build_tuples", _after_build_tuples),
    (mining, "scale_change", "mining.scale_change", None),
    (mining, "candidate_pool", "mining.candidate_pool", None),
    (mining, "mine_negatives", "mining.mine_negatives", None),
    (mining.TupleMiner, "__init__", "mining.TupleMiner.init", None),
    (mining.TupleMiner, "remine", "mining.TupleMiner.remine", None),
    (pipeline, "train", "training.train", None),
    (training, "contrastive_loss", "training.contrastive_loss",
     _after_contrastive),
    (training, "sgd_step_net", "training.sgd_step_net", None),
    (training, "validate", "training.validate", None),
    (pipeline, "fit_lw", "whitening.fit_lw", None),
    (pipeline, "fit_pcaw", "whitening.fit_pcaw", None),
    (pipeline, "apply_projection", "whitening.apply_projection", None),
    (whitening, "apply_projection", "whitening.apply_projection", None),
    (whitening, "sym_eig", "numeric.sym_eig", _after_sym_eig),
    (numeric, "sym_eig", "numeric.sym_eig", _after_sym_eig),
    (whitening, "inv_sqrt_psd", "numeric.inv_sqrt_psd", None),
    (retrieval, "search", "retrieval.search", _after_search),
    (retrieval, "average_precision", "retrieval.average_precision", None),
    (retrieval, "evaluate", "retrieval.evaluate", None),
    (pipeline.Extractor, "extract", "pipeline.Extractor.extract", None),
    (pipeline.Extractor, "extract_region", "pipeline.Extractor.extract_region",
     None),
    (pipeline, "embed_images", "pipeline.embed_images", None),
    (pipeline, "load_images_dir", "pipeline.load_images_dir", None),
    (pipeline, "stage_synth", "pipeline.stage_synth", None),
    (pipeline, "stage_embed", "pipeline.stage_embed", None),
    (pipeline, "stage_mine", "pipeline.stage_mine", None),
    (pipeline, "stage_train", "pipeline.stage_train", None),
    (pipeline, "stage_whiten", "pipeline.stage_whiten", None),
]


@contextlib.contextmanager
def installed(tracer):
    """Wrap every WRAPPED name for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, on_exit in WRAPPED:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_exit))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Spans -> per-layer metrics
# ---------------------------------------------------------------------------


def check_nesting(spans):
    """Every span lies inside its parent's interval."""
    return all(s.parent is None
               or (s.parent.start <= s.start and s.end <= s.parent.end)
               for s in spans)


def self_times(spans):
    """span -> duration minus the part of it covered by child spans.

    Children of one parent may overlap when they ran on worker threads,
    so the covered part is the union of their intervals.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for start, end in sorted(children.get(id(s), ())):
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        # children lie inside the parent, so only rounding can push
        # the difference below zero
        out[id(s)] = max(0.0, s.duration - covered)
    return out


# the innermost ancestor span named here decides which caller a forward
# pass serves; inside train() but outside remine/validate is a batch
FORWARD_CALLERS = {
    "mining.TupleMiner.remine": "remine",
    "training.validate": "validate",
    "mining.TupleMiner.init": "miner_init",
    "pipeline.Extractor.extract": "extract",
    "pipeline.Extractor.extract_region": "extract",
    "training.train": "batch",
    "pipeline.stage_train": "val_init",
}


def forward_caller(span):
    node = span.parent
    while node is not None:
        if node.name in FORWARD_CALLERS:
            return FORWARD_CALLERS[node.name]
        node = node.parent
    return None


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[q - 1])


def layer_metrics(tracer, embed_threads):
    """Every per-layer metric of the benchmark, 0 where a layer idled."""
    spans = tracer.spans
    busy = self_times(spans)
    calls = {}
    self_s = {}
    total_s = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + busy[id(s)]
        total_s[s.name] = total_s.get(s.name, 0.0) + s.duration
    count = tracer.counters.get

    def n(name):
        return calls.get(name, 0)

    def b(name):
        return self_s.get(name, 0.0)

    m = {}
    m["synthscene.generate.busy_s"] = b("synthscene.generate")
    m["synthscene.render.calls"] = n("synthscene.render")
    m["synthscene.render.busy_s"] = b("synthscene.render")
    m["synthscene.render.ms_p50"] = _percentile(
        tracer.samples.get("synthscene.render.ms", []), 50)
    m["images.write_ppm.busy_s"] = b("images.write_ppm")
    m["images.write_ppm.bytes"] = count("images.write_ppm.bytes", 0)
    m["images.read_ppm.calls"] = n("images.read_ppm")
    m["images.read_ppm.busy_s"] = b("images.read_ppm")

    for op in ("forward", "backward"):
        m[f"backbone.{op}.calls"] = n(f"backbone.{op}")
        m[f"backbone.{op}.busy_s"] = b(f"backbone.{op}")
        m[f"backbone.{op}.gflop_computed"] = count(
            f"backbone.{op}.gflop_computed", 0.0)
    by_caller = dict.fromkeys(
        ("batch", "remine", "validate", "miner_init", "val_init", "extract"),
        0)
    phase_forward = 0.0
    for s in spans:
        if s.name == "backbone.forward":
            caller = forward_caller(s)
            if caller in by_caller:
                by_caller[caller] += 1
            if caller == "batch":
                phase_forward += s.duration
    for caller, value in by_caller.items():
        m[f"backbone.forward.calls_by_caller.{caller}"] = value

    for name in ("descriptor.rmac", "descriptor.crop_activations"):
        m[f"{name}.calls"] = n(name)
        m[f"{name}.busy_s"] = b(name)
    m["descriptor.save_descriptors.busy_s"] = b("descriptor.save_descriptors")

    queries = count("mining.build_tuples.queries", 0)
    tuples = count("mining.build_tuples.tuples", 0)
    m["mining.build_tuples.busy_s"] = b("mining.build_tuples")
    m["mining.build_tuples.queries"] = queries
    m["mining.build_tuples.tuples"] = tuples
    for slug in [s for _, s in SKIP_REASONS] + ["other"]:
        key = f"mining.build_tuples.skipped.{slug}"
        m[key] = count(key, 0)
    m["mining.tuple_yield"] = tuples / queries if queries else 0.0
    m["mining.scale_change.calls"] = n("mining.scale_change")
    m["mining.scale_change.busy_s"] = b("mining.scale_change")
    m["mining.candidate_pool.busy_s"] = b("mining.candidate_pool")
    m["mining.mine_negatives.calls"] = n("mining.mine_negatives")
    m["mining.mine_negatives.busy_s"] = b("mining.mine_negatives")
    m["mining.TupleMiner.init.busy_s"] = b("mining.TupleMiner.init")
    m["mining.TupleMiner.remine.calls"] = n("mining.TupleMiner.remine")
    m["mining.TupleMiner.remine.busy_s"] = b("mining.TupleMiner.remine")

    m["training.train.busy_s"] = b("training.train")
    m["training.phase.batch_forward_s"] = phase_forward
    m["training.phase.batch_backward_s"] = total_s.get("backbone.backward",
                                                       0.0)
    m["training.phase.sgd_s"] = total_s.get("training.sgd_step_net", 0.0)
    m["training.phase.remine_s"] = total_s.get("mining.TupleMiner.remine",
                                               0.0)
    m["training.phase.validate_s"] = total_s.get("training.validate", 0.0)
    m["training.contrastive_loss.calls"] = n("training.contrastive_loss")
    negatives = count("training.negative_pairs", 0)
    m["training.neg_inside_margin_share"] = (
        count("training.negative_pairs_inside_margin", 0) / negatives
        if negatives else 0.0)

    m["whitening.fit_lw.busy_s"] = b("whitening.fit_lw")
    m["whitening.fit_pcaw.busy_s"] = b("whitening.fit_pcaw")
    m["whitening.apply_projection.calls"] = n("whitening.apply_projection")
    m["whitening.apply_projection.busy_s"] = b("whitening.apply_projection")
    m["numeric.sym_eig.calls"] = n("numeric.sym_eig")
    m["numeric.sym_eig.busy_s"] = b("numeric.sym_eig")
    m["numeric.sym_eig.dim"] = count("numeric.sym_eig.dim", 0)
    m["numeric.inv_sqrt_psd.busy_s"] = b("numeric.inv_sqrt_psd")

    search_ms = tracer.samples.get("retrieval.search.ms", [])
    m["retrieval.search.calls"] = n("retrieval.search")
    m["retrieval.search.busy_s"] = b("retrieval.search")
    m["retrieval.search.ms_p50"] = _percentile(search_ms, 50)
    m["retrieval.search.ms_p99"] = _percentile(search_ms, 99)
    m["retrieval.average_precision.busy_s"] = b("retrieval.average_precision")
    m["retrieval.evaluate.busy_s"] = b("retrieval.evaluate")

    for method in ("extract", "extract_region"):
        name = f"pipeline.Extractor.{method}"
        m[f"{name}.calls"] = n(name)
        m[f"{name}.busy_s"] = b(name)
    embed_wall = total_s.get("pipeline.embed_images", 0.0)
    extract_in_pool = sum(
        s.duration for s in spans
        if s.name == "pipeline.Extractor.extract" and s.parent is not None
        and s.parent.name == "pipeline.embed_images")
    m["pipeline.embed_images.parallel_eff"] = (
        extract_in_pool / (embed_wall * embed_threads) if embed_wall else 0.0)
    m["pipeline.load_images_dir.busy_s"] = b("pipeline.load_images_dir")
    for stage in ("synth", "embed", "mine", "train", "whiten"):
        m[f"pipeline.stage_{stage}.busy_s"] = b(f"pipeline.stage_{stage}")
    return m
