"""Every artifact format round-trips: whatever a writer accepts, its
reader loads, and writing back what was read gives the same bytes. The
non-finite values a reader refuses, its writer refuses before it opens
a file, and write_ppm refuses a pixel it cannot quantize the same way."""

import numpy as np
import pytest
from testkit import named_points, random_graph

from macforge.backbone import init_params, load_checkpoint, save_checkpoint, tiny_spec
from macforge.descriptor import BBox, load_descriptors, save_descriptors
from macforge.images import read_ppm, write_ppm
from macforge.ioutil import FormatError
from macforge.mining import (
    TrainingTuple,
    load_scene,
    load_tuples,
    save_scene,
    save_tuples,
)
from macforge.numeric import SeededStream
from macforge.retrieval import (
    QueryGroundTruth,
    load_ground_truth,
    save_ground_truth,
)
from macforge.whitening import fit_pcaw, load_projection, save_projection

# non-ASCII image ids, for every format that stores ids
IDS = ["c0/i000", "cé/ï001", "cß/图002", "c0/i003"]


def descriptors():
    s = SeededStream(91)
    return {i: s.derive(i).normal(size=8).astype(np.float32) for i in IDS}


def checkpoint():
    spec = tiny_spec()
    return spec, init_params(spec, SeededStream(92)), {"epoch": 3,
                                                       "note": "réglé"}


def projection():
    s = SeededStream(93)
    return fit_pcaw([s.derive(j).normal(size=6) for j in range(40)])


def tuples():
    return [TrainingTuple(IDS[0], IDS[1], (IDS[2],)),
            TrainingTuple(IDS[1], IDS[0], (IDS[2], IDS[3]))]


def ground_truth():
    return {IDS[0]: QueryGroundTruth(frozenset(IDS[1:3]), frozenset(IDS[:1]),
                                     BBox(0, 0, 8, 6)),
            IDS[2]: QueryGroundTruth(frozenset(IDS[3:]))}


# format -> (writer, reader, a value the writer accepts)
FORMATS = {
    "macd": (save_descriptors, load_descriptors, descriptors),
    "mfck": (lambda path, ckpt: save_checkpoint(path, *ckpt),
             load_checkpoint, checkpoint),
    "mfpw": (save_projection, load_projection, projection),
    "scene": (save_scene, load_scene,
              lambda: named_points(random_graph(SeededStream(94),
                                                cluster_id="cé"))),
    "tuples": (save_tuples, load_tuples, tuples),
    "ground truth": (save_ground_truth, load_ground_truth, ground_truth),
    "ppm": (write_ppm, read_ppm,
            lambda: SeededStream(95).uniform(0.0, 1.0, (3, 5, 7))),
}


def artifact_bytes(path):
    """The bytes of the file at path and of its JSON sidecar, if any."""
    sidecar = path.with_name(path.name + ".json")
    return path.read_bytes(), sidecar.exists() and sidecar.read_bytes()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_reader_loads_what_writer_wrote_and_rewrite_is_identical(tmp_path,
                                                                 fmt):
    write, read, accepted = FORMATS[fmt]
    first, again = tmp_path / "first", tmp_path / "again"
    write(first, accepted())
    write(again, read(first))
    assert artifact_bytes(again) == artifact_bytes(first)


def nan_descriptor():
    d = descriptors()
    d[IDS[2]][3] = np.nan
    return d


def checkpoint_with(where, value):
    def make():
        spec, params, meta = checkpoint()
        params = params.astype(np.float64)
        getattr(params, where)[-1][0] = value
        return spec, params, meta
    return make


def nan_projection():
    # the model refuses a NaN when it is built, not when its arrays change
    model = projection()
    model.mean[0] = np.nan
    return model


@pytest.mark.parametrize("fmt, refused", [
    ("macd", nan_descriptor),
    ("macd", lambda: {IDS[1]: np.array([1e39, 0.0])}),  # inf in float32
    ("mfck", checkpoint_with("weights", np.inf)),
    ("mfck", checkpoint_with("biases", np.nan)),
    ("mfck", checkpoint_with("weights", 1e300)),  # inf in float32
    ("mfpw", nan_projection),
    ("ppm", lambda: np.full((3, 2, 2), np.nan)),
    ("ppm", lambda: np.full((3, 2, 2), -np.inf)),
], ids=["macd-nan", "macd-overflow", "mfck-inf-weight", "mfck-nan-bias",
        "mfck-overflow", "mfpw-nan", "ppm-nan", "ppm-inf"])
def test_writer_refuses_non_finite_before_opening_a_file(tmp_path, fmt,
                                                         refused):
    write = FORMATS[fmt][0]
    with np.errstate(over="ignore"), \
            pytest.raises(FormatError, match="non-finite"):
        write(tmp_path / "refused", refused())
    assert list(tmp_path.iterdir()) == []
