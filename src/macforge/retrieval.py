"""Ranked retrieval over descriptor databases and mAP evaluation.

Retrieval is exhaustive inner-product search with deterministic
tie-breaking. Evaluation supports three query modes: Full (whole
image), Crop_I (crop pixels, then extract), and Crop_X (extract on the
full image, then crop the activation grid before pooling). evaluate
checks every query against the protocol, then maps each query's
extract, search and AP over forked workers (workers.map_images).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .descriptor import BBox
from .ioutil import FormatError, load_json, write_json, write_text
from .numeric import DimensionError
from .workers import map_images, worker_count

MODE_FULL = "Full"
MODE_CROP_I = "Crop_I"
MODE_CROP_X = "Crop_X"
MODES = (MODE_FULL, MODE_CROP_I, MODE_CROP_X)


class ProtocolError(ValueError):
    """Evaluation request violates the benchmark protocol."""


@dataclass(frozen=True)
class QueryGroundTruth:
    """Relevance labels for one query; ignored ids are deleted from
    rankings before precision is counted."""

    relevant: frozenset
    ignored: frozenset = frozenset()
    bbox: Optional[BBox] = None

    def __post_init__(self):
        relevant = frozenset(self.relevant)
        ignored = frozenset(self.ignored)
        if relevant & ignored:
            raise ProtocolError("relevant and ignored sets overlap: "
                                f"{sorted(relevant & ignored)}")
        bbox = None if self.bbox is None else BBox(*self.bbox)
        object.__setattr__(self, "relevant", relevant)
        object.__setattr__(self, "ignored", ignored)
        object.__setattr__(self, "bbox", bbox)


class DescriptorDB:
    """Immutable id -> descriptor store with a stacked matrix.

    Ids are kept in ascending order so a stable sort on similarity
    breaks ties by lower id for free.
    """

    def __init__(self, descriptors):
        if not descriptors:
            raise ValueError("descriptor database must be non-empty")
        self.ids = sorted(descriptors)
        rows = []
        dim = None
        for image_id in self.ids:
            vec = np.asarray(descriptors[image_id], dtype=np.float64)
            if vec.ndim != 1:
                raise DimensionError(f"descriptor {image_id!r} is not 1-D")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DimensionError(
                    f"descriptor {image_id!r} has dim {vec.shape[0]}, "
                    f"expected {dim}")
            rows.append(vec)
        self.matrix = np.stack(rows)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __len__(self):
        return len(self.ids)


def search(db, query):
    """Rows of db.matrix by inner product with query, best first; ties
    rank the lower row, i.e. the lower id, first. db.ids[row] names a
    row."""
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (db.dim,):
        raise DimensionError(f"query has shape {q.shape}, "
                             f"database dim is {db.dim}")
    return np.argsort(-(db.matrix @ q), kind="stable")


def average_precision(ranking, gt):
    """Rank-based AP after deleting ignored ids from the ranking.

    Relevant ids absent from the ranking contribute zero precision.
    """
    if not gt.relevant:
        raise ProtocolError("query has an empty relevant set")
    hits = 0
    total = 0.0
    rank = 0
    for image_id in ranking:
        if image_id in gt.ignored:
            continue
        rank += 1
        if image_id in gt.relevant:
            hits += 1
            total += hits / rank
    return total / len(gt.relevant)


def _checked_bbox(query_id, image, bbox, gt, mode):
    """The query's bbox as a BBox (None in Full mode) once its protocol
    checks pass: a ground-truth entry with a relevant set, and in the
    crop modes a bbox inside the image."""
    if query_id not in gt:
        raise ProtocolError(f"no ground truth for query {query_id!r}")
    if not gt[query_id].relevant:
        raise ProtocolError(f"query {query_id!r} has an empty relevant set")
    if mode == MODE_FULL:
        return None
    if bbox is None:
        raise ProtocolError(
            f"mode {mode} requires a bbox for query {query_id!r}")
    bbox = BBox(*bbox)
    x0, y0, x1, y1 = bbox
    height, width = image.shape[1], image.shape[2]
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        raise ProtocolError(
            f"bbox {tuple(bbox)} of query {query_id!r} is empty "
            f"or outside its {width}x{height} image")
    return bbox


def evaluate(db, queries, gt, mode, extractor, threads=0):
    """Rank the database for each query and average the per-query APs.

    queries: list of (query_id, image, bbox-or-None); the extractor
    must provide extract(image) and extract_region(image, bbox). Every
    query's protocol checks run first, in query order and before any
    extract: a query without ground truth or with an empty relevant
    set, or in the crop modes a missing, empty or out-of-image bbox, is
    a ProtocolError even when an earlier query would fail to extract.
    Each query's extract, search and AP then run by one map_images over
    worker_count(threads) processes, which inherit db, gt, the extractor
    and the images through the fork and send back one AP each. The APs
    are summed in query order, so no result depends on the worker
    count. Returns (mAP, list of (query_id, ap) in query order).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not queries:
        raise ValueError("no queries to evaluate")
    boxes = [_checked_bbox(query_id, image, bbox, gt, mode)
             for query_id, image, bbox in queries]

    def query_ap(k):
        query_id, image, _ = queries[k]
        if mode == MODE_FULL:
            descriptor = extractor.extract(image)
        elif mode == MODE_CROP_I:
            x0, y0, x1, y1 = boxes[k]
            descriptor = extractor.extract(image[:, y0:y1, x0:x1])
        else:
            descriptor = extractor.extract_region(image, boxes[k])
        ranking = [db.ids[row] for row in search(db, descriptor).tolist()]
        return average_precision(ranking, gt[query_id])

    aps = map_images(query_ap, range(len(queries)), worker_count(threads))
    per_query = [(query_id, ap) for (query_id, _, _), ap in zip(queries, aps)]
    mean_ap = sum(aps) / len(aps)
    return mean_ap, per_query


def save_ground_truth(path, gt):
    payload = {}
    for query_id, entry in gt.items():
        record = {"relevant": sorted(entry.relevant),
                  "ignored": sorted(entry.ignored)}
        if entry.bbox is not None:
            record["bbox"] = list(entry.bbox)
        payload[query_id] = record
    write_json(path, payload, indent=1)


def load_ground_truth(path):
    payload = load_json(path, "ground truth")
    gt = {}
    for query_id, record in payload.items():
        if not isinstance(record, dict):
            raise FormatError(f"entry for {query_id!r} must be an object")
        for key in ("relevant", "ignored"):
            value = record.get(key, [])
            if not (isinstance(value, list)
                    and all(isinstance(i, str) for i in value)):
                raise FormatError(f"{key} of {query_id!r} must be a "
                                  "list of image ids")
        bbox = record.get("bbox")
        if bbox is not None:
            # JSON true/false load as bool, which is an int subclass
            if not (isinstance(bbox, list) and len(bbox) == 4
                    and all(isinstance(v, int) and not isinstance(v, bool)
                            for v in bbox)):
                raise FormatError(f"bbox of {query_id!r} must be four "
                                  "integers")
            bbox = BBox(*bbox)
        try:
            gt[query_id] = QueryGroundTruth(
                frozenset(record.get("relevant", [])),
                frozenset(record.get("ignored", [])), bbox)
        except ProtocolError as exc:
            raise FormatError(f"entry for {query_id!r}: {exc}") from None
    return gt


def write_eval_csv(path, per_query, mean_ap):
    lines = ["query_id,ap"]
    lines.extend(f"{query_id},{ap:.6f}" for query_id, ap in per_query)
    lines.append(f"mAP,{mean_ap:.6f}")
    write_text(path, "\n".join(lines) + "\n")
