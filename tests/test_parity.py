"""Golden-hash parity gate: CLI `train` on a small scene writes the same
bytes as the version that recorded tests/golden/parity.json.

The gate covers the synthesized scene (scene JSON, PPMs, ground truth)
and, for seeds 0-2, the `best.mfck` checkpoint, its JSON sidecar and
`metrics.csv` of two training runs: m3/N2 with the contrastive loss, and
m1/N1 with the triplet loss and the first conv layer frozen. It also
covers mining: the MAC `.macd` that `embed` writes from seed 0's m3/N2
checkpoint and, for seeds 0-2, the tuple files `mine` writes from it for
every positive method and negative variant, once with the per-cluster
query sample and once with every image as a query. From the same
checkpoint it covers the R-MAC `.macd`, the Lw (from seed 0's m3/N2
tuples) and PCAw `.mfpw` fitted on it, the projected `.macd` files
(Lw after aggregation, PCAw per region, and a reduced dimension), and
the `eval` CSVs in the Full, Crop_I and Crop_X modes on a ground truth
with sub-image boxes that the gate writes itself. A last slice copies
the scene with one image duplicated under a new id (same camera, edges
and pixels), so every ranking meets exact ties: it covers the MAC
`.macd` of the copy, its dense m2/m3 x N1/N2 tuple files at a pool
of one image, its dense m1/N1 tuple file at a pool of two, and its Full
`eval` CSV. A second copy gives the twin the
pixels of a held-out image instead, so validation during `train` ranks
a positive against a negative of equal similarity: it covers seed 0's
m1/N1 training run on that copy. The golden
file also records the numpy version and BLAS build it was made under,
so a mismatch on another build can be told from a changed program.

A change that moves these bytes on purpose reruns
`PYTHONPATH=src python tests/golden/regen.py` and lists the moved
artifacts in CHANGES.md.
"""

import hashlib
import json
import os
import shutil
import warnings

import numpy as np

from macforge.cli import EXIT_OK, main
from macforge.mining import load_scene, save_scene
from macforge.pipeline import image_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "parity.json")

# the scene, mining and schedule of test_acceptance's test_8_determinism
SCENE_SEED = 77
SCENE_ARGS = ["--set", "clusters=4", "--set", "images_min=4",
              "--set", "images_max=5", "--set", "points_min=30",
              "--set", "points_max=40", "--set", "image_size=32"]
TRAIN_ARGS = ["--set", "pool_size=10", "--set", "negatives=2",
              "--set", "candidate_negatives_per_cluster=8",
              "--set", "batch_tuples=2", "--set", "max_epochs=2",
              "--set", "remine_per_epoch=1", "--set", "max_image_side=32",
              "--set", "val_fraction=0.25"]
RUNS = {
    "m3-N2-contrastive": ["--positive", "m3", "--negative", "N2",
                          "--loss", "contrastive"],
    "m1-N1-triplet-freeze1": ["--positive", "m1", "--negative", "N1",
                              "--loss", "triplet",
                              "--set", "freeze_conv_layers=1"],
}
SEEDS = (0, 1, 2)
TRAIN_ARTIFACTS = ("best.mfck", "best.mfck.json", "metrics.csv")
MINE_ARGS = ["--set", "pool_size=10", "--set", "negatives=2",
             "--set", "candidate_negatives_per_cluster=8"]
MINE_RUNS = [(positive, negative, queries)
             for positive in ("m1", "m2", "m3")
             for negative in ("N1", "N2")
             for queries in ("sample", "all")]
# projected embeds: name -> (embed flags, projection file); Lw applies
# after aggregation, PCAw per R-MAC region
PROJECTED_EMBEDS = {
    "rmac-lw": (["--rmac"], "lw"),
    "rmac-pcaw-dim16": (["--rmac", "--dim", "16"], "pcaw"),
    "mac-lw-dim16": (["--dim", "16"], "lw"),
}
# eval runs: name -> (database, extractor flags, projection or None),
# each in every query mode
EVAL_RUNS = {
    "mac": ("mine/db.macd", [], None),
    "rmac-lw": ("embed/rmac-lw.macd", ["--rmac"], "lw"),
    "rmac-pcaw-dim16": ("embed/rmac-pcaw-dim16.macd",
                        ["--rmac", "--dim", "16"], "pcaw"),
}
EVAL_MODES = ("Full", "Crop_I", "Crop_X")
# the tie slice: TIE_SOURCE gets a twin under TIE_TWIN. The pair sits at
# equal distance from every other camera of the cluster, and TIE_SOURCE
# is the nearest camera of c00/i001 and c00/i002, so a pool of 1 holds
# whichever of the pair the tie-break ranks first
TIE_SOURCE = "c00/i003"
TIE_TWIN = "c00/i003-twin"
TIE_MINE_ARGS = ["--set", "negatives=2",
                 "--set", "candidate_negatives_per_cluster=8",
                 "--set", "mine_all_queries=True"]
# (positive, negative, pool size): m1 ranks by descriptor, so it meets
# the tie only at a pool of two, where the pools of c00/i001 and
# c00/i002 hold TIE_SOURCE and TIE_TWIN with equal descriptors
TIE_MINE_RUNS = [(positive, negative, 1) for positive in ("m2", "m3")
                 for negative in ("N1", "N2")] + [("m1", "N1", 2)]
# the validation tie slice: TIE_TWIN takes the pixels of VAL_TIE_PIXELS,
# the positive of the one held-out tuple (query c03/i000) under m1. N1
# then mines the twin as a negative of that tuple, tied with the
# positive. A twin with its own pixels never reaches validation, and a
# twin inside the held-out cluster ties only with a positive, as
# negatives come from other clusters
VAL_TIE_PIXELS = "c03/i001"
VAL_TIE_RUN = "m1-N1-triplet-freeze1"


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_sha(root):
    """One digest over every file under root: relative paths in sorted
    order, each followed by the SHA-256 of its bytes."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digest.update(f"{rel}\0{file_sha(path)}\n".encode())
    return digest.hexdigest()


def environment():
    """The numpy version and BLAS build the artifacts are computed under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas.get('version', '?')}"}


def write_crop_ground_truth(data, path):
    """The synthesized ground truth with each query's full-image box
    replaced by a sub-image box that differs from query to query."""
    with open(os.path.join(data, "ground_truth.json"), encoding="utf-8") as f:
        gt = json.load(f)
    for j, query_id in enumerate(sorted(gt)):
        x0, y0 = 2 + (3 * j) % 9, 1 + (5 * j) % 9
        gt[query_id]["bbox"] = [x0, y0, x0 + 12 + (7 * j) % 9,
                                y0 + 14 + j % 5]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(gt, f, sort_keys=True)


def parity_hashes(root):
    """Run synth once, train for every seed and run, then embed once and
    mine for every seed and mining run, then embed R-MAC, whiten, embed
    projected and eval in every mode under root; returns artifact
    name -> SHA-256."""
    data = os.path.join(root, "data")
    code = main(["synth", "--out", data, "--seed", str(SCENE_SEED),
                 *SCENE_ARGS])
    assert code == EXIT_OK, f"synth exited {code}"
    hashes = {"synth/data": tree_sha(data)}
    for seed in SEEDS:
        for run, run_args in RUNS.items():
            out = os.path.join(root, f"seed{seed}", run)
            code = main(["train", "--scenes", os.path.join(data, "scenes"),
                         "--images", os.path.join(data, "images"),
                         "--out", out, "--seed", str(seed),
                         *TRAIN_ARGS, *run_args])
            assert code == EXIT_OK, f"train seed {seed} {run} exited {code}"
            for artifact in TRAIN_ARTIFACTS:
                hashes[f"seed{seed}/{run}/{artifact}"] = file_sha(
                    os.path.join(out, artifact))
    for seed in SEEDS:
        os.makedirs(os.path.join(root, "mine", f"seed{seed}"))
    db = os.path.join(root, "mine", "db.macd")
    code = main(["embed", "--images", os.path.join(data, "images"),
                 "--checkpoint", os.path.join(root, "seed0",
                                              "m3-N2-contrastive",
                                              "best.mfck"),
                 "--out", db])
    assert code == EXIT_OK, f"embed exited {code}"
    hashes["mine/db.macd"] = file_sha(db)
    for seed in SEEDS:
        for positive, negative, queries in MINE_RUNS:
            name = f"mine/seed{seed}/{positive}-{negative}-{queries}.mftp"
            out = os.path.join(root, name)
            code = main(["mine", "--scenes", os.path.join(data, "scenes"),
                         "--descriptors", db, "--out", out,
                         "--seed", str(seed), "--positive", positive,
                         "--negative", negative, *MINE_ARGS,
                         "--set", f"mine_all_queries={queries == 'all'}"])
            assert code == EXIT_OK, f"mine {name} exited {code}"
            hashes[name] = file_sha(out)
    hashes.update(projection_hashes(root, data))
    hashes.update(tie_hashes(root, data))
    return hashes


def projection_hashes(root, data):
    """R-MAC embed, Lw and PCAw whiten, projected embeds and eval, all
    from seed 0's m3/N2 checkpoint; returns artifact name -> SHA-256."""
    hashes = {}
    images = os.path.join(data, "images")
    checkpoint = os.path.join(root, "seed0", "m3-N2-contrastive", "best.mfck")
    for sub in ("embed", "whiten", "eval"):
        os.makedirs(os.path.join(root, sub))

    def run(name, argv):
        code = main(argv)
        assert code == EXIT_OK, f"{name} exited {code}"
        hashes[name] = file_sha(os.path.join(root, name))

    def embed(name, flags):
        run(name, ["embed", "--images", images, "--checkpoint", checkpoint,
                   "--out", os.path.join(root, name), *flags])

    embed("embed/rmac.macd", ["--rmac"])
    rmac_db = os.path.join(root, "embed", "rmac.macd")
    tuples = os.path.join(root, "mine", "seed0", "m3-N2-all.mftp")
    with warnings.catch_warnings():
        # few tuples at K=32 leave the matching scatter rank-deficient
        warnings.simplefilter("ignore", RuntimeWarning)
        run("whiten/lw.mfpw", ["whiten", "--descriptors", rmac_db,
                               "--tuples", tuples, "--kind", "lw",
                               "--out", os.path.join(root, "whiten/lw.mfpw")])
    run("whiten/pcaw.mfpw", ["whiten", "--descriptors", rmac_db,
                             "--kind", "pcaw",
                             "--out", os.path.join(root, "whiten/pcaw.mfpw")])

    def projection(kind):
        return os.path.join(root, "whiten", f"{kind}.mfpw")

    for name, (flags, kind) in PROJECTED_EMBEDS.items():
        embed(f"embed/{name}.macd",
              [*flags, "--projection", projection(kind)])
    gt = os.path.join(root, "eval", "ground_truth.json")
    write_crop_ground_truth(data, gt)
    for name, (db, flags, kind) in EVAL_RUNS.items():
        if kind is not None:
            flags = [*flags, "--projection", projection(kind)]
        for mode in EVAL_MODES:
            csv = f"eval/{name}-{mode}.csv"
            run(csv, ["eval", "--db", os.path.join(root, db),
                      "--checkpoint", checkpoint, "--images", images,
                      "--gt", gt, "--mode", mode, *flags,
                      "--out", os.path.join(root, csv)])
    return hashes


def write_twin_scene(data, out, pixels=TIE_SOURCE):
    """Copy the scenes and images of data to out, with TIE_SOURCE
    duplicated as TIE_TWIN: same camera, same edges, and the PPM of
    pixels (by default TIE_SOURCE's own)."""
    cluster = TIE_SOURCE.split("/")[0]
    shutil.copytree(os.path.join(data, "scenes"), os.path.join(out, "scenes"))
    shutil.copytree(os.path.join(data, "images"), os.path.join(out, "images"))
    scene = os.path.join(out, "scenes", f"{cluster}.json")
    g = load_scene(scene)
    g.images = {**g.images, TIE_TWIN: g.images[TIE_SOURCE]}
    g.edges = g.edges | {(TIE_TWIN, pid) for img, pid in g.edges
                         if img == TIE_SOURCE}
    save_scene(scene, g)
    shutil.copyfile(image_path(os.path.join(out, "images"), pixels),
                    image_path(os.path.join(out, "images"), TIE_TWIN))


def tie_hashes(root, data):
    """MAC embed, dense mining and Full eval on the twin scene, from
    seed 0's m3/N2 checkpoint, and a training run on the validation tie
    scene; returns artifact name -> SHA-256."""
    hashes = {}
    ties = os.path.join(root, "ties")
    write_twin_scene(data, os.path.join(ties, "data"))
    images = os.path.join(ties, "data", "images")
    checkpoint = os.path.join(root, "seed0", "m3-N2-contrastive", "best.mfck")
    db = os.path.join(ties, "db.macd")

    def run(name, argv):
        code = main(argv)
        assert code == EXIT_OK, f"{name} exited {code}"
        hashes[name] = file_sha(os.path.join(root, name))

    run("ties/db.macd", ["embed", "--images", images,
                         "--checkpoint", checkpoint, "--out", db])
    for positive, negative, pool in TIE_MINE_RUNS:
        suffix = "" if pool == 1 else f"-pool{pool}"
        name = f"ties/{positive}-{negative}-all{suffix}.mftp"
        run(name, ["mine", "--scenes", os.path.join(ties, "data", "scenes"),
                   "--descriptors", db, "--out", os.path.join(root, name),
                   "--seed", "0", "--positive", positive,
                   "--negative", negative, "--set", f"pool_size={pool}",
                   *TIE_MINE_ARGS])
    run("ties/eval-Full.csv", [
        "eval", "--db", db, "--checkpoint", checkpoint, "--images", images,
        "--gt", os.path.join(data, "ground_truth.json"), "--mode", "Full",
        "--out", os.path.join(root, "ties", "eval-Full.csv")])
    val_data = os.path.join(root, "val-ties", "data")
    write_twin_scene(data, val_data, pixels=VAL_TIE_PIXELS)
    out = os.path.join(root, "val-ties", VAL_TIE_RUN)
    code = main(["train", "--scenes", os.path.join(val_data, "scenes"),
                 "--images", os.path.join(val_data, "images"),
                 "--out", out, "--seed", "0", *TRAIN_ARGS,
                 *RUNS[VAL_TIE_RUN]])
    assert code == EXIT_OK, f"train on the validation tie scene exited {code}"
    for artifact in TRAIN_ARTIFACTS:
        hashes[f"val-ties/{VAL_TIE_RUN}/{artifact}"] = file_sha(
            os.path.join(out, artifact))
    return hashes


def test_artifacts_match_golden(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    got = parity_hashes(str(tmp_path))
    assert sorted(got) == sorted(golden["sha256"]), "artifact set changed"
    moved = [name for name in sorted(got) if got[name] != golden["sha256"][name]]
    assert not moved, (
        f"artifacts differ from {GOLDEN}: {', '.join(moved)} "
        f"(recorded under {golden['environment']}, "
        f"running under {environment()})")
