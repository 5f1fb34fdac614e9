"""Golden-hash parity gate: CLI `train` on a small scene writes the same
bytes as the version that recorded tests/golden/parity.json.

The gate covers the synthesized scene (scene JSON, PPMs, ground truth)
and, for seeds 0-2, the `best.mfck` checkpoint, its JSON sidecar and
`metrics.csv` of two training runs: m3/N2 with the contrastive loss, and
m1/N1 with the triplet loss and the first conv layer frozen. The golden
file also records the numpy version and BLAS build it was made under,
so a mismatch on another build can be told from a changed program.

A change that moves these bytes on purpose reruns
`PYTHONPATH=src python tests/golden/regen.py` and lists the moved
artifacts in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np

from macforge.cli import EXIT_OK, main

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


def parity_hashes(root):
    """Run synth once and train for every seed and run under root;
    returns artifact name -> SHA-256."""
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
