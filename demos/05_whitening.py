"""Post-process descriptors: learned discriminative whitening vs PCA.

PCA whitening looks only at the global covariance of the descriptors.
The learned variant (Lw) instead whitens the scatter of matching pairs
and decorrelates the scatter of non-matching pairs, so the same mined
tuples that supervise the network also supervise the projection. Both
reduce dimensionality by keeping leading columns.

Whitening is fitted on the fine-tuned network, so this demo first runs
the stock training recipe on the default corpus, then mines one tuple
per training image to get a dense pair set for the fit.

Run from the repository root (about a minute):

    python demos/05_whitening.py
"""

import numpy as np

from macforge.backbone import init_params, tiny_spec
from macforge.mining import MiningConfig, build_tuples
from macforge.numeric import SeededStream
from macforge.pipeline import (
    benchmark_ground_truth,
    fit_lw_tuples,
    prepare_training,
    render_images,
    split_clusters,
)
from macforge.retrieval import DescriptorDB, average_precision, search
from macforge.synthscene import SceneConfig, generate
from macforge.training import LossConfig, TrainConfig, embed_image, train
from macforge.whitening import apply_projection, fit_pcaw


def retrieval_map(vectors, gt):
    db = DescriptorDB(vectors)
    aps = []
    for qid in sorted(gt):
        ranking = [db.ids[row] for row in search(db, vectors[qid])]
        aps.append(average_precision(ranking, gt[qid]))
    return float(np.mean(aps))


def main():
    scene = SceneConfig(seed=0)
    print(f"default corpus: {scene.clusters} clusters, "
          f"{scene.image_size}px images")
    graphs = generate(scene)
    images = render_images(graphs, scene.image_size)
    train_graphs, val_graphs = split_clusters(graphs, 0.2)

    spec = tiny_spec()
    stream = SeededStream(0)
    params0 = init_params(spec, stream.derive("init"))

    mining_cfg = MiningConfig()
    all0 = {i: embed_image(params0, spec, images[i])
            for g in graphs for i in g.images}
    miner, val_tuples = prepare_training(graphs, all0, mining_cfg, "m3",
                                         "N2", 0.2, stream)
    result = train(miner, images.__getitem__, val_tuples, spec, params0,
                   TrainConfig(max_epochs=5), LossConfig(),
                   stream.derive("train"), loss_kind="contrastive")
    best = result.best_params
    print(f"trained 5 epochs, best epoch {result.best_epoch}")

    descriptors = {i: embed_image(best, spec, images[i])
                   for g in graphs for i in g.images}
    train_ids = sorted(i for g in train_graphs for i in g.images)
    train_desc = {i: descriptors[i] for i in train_ids}

    # every training image queries once; the 10% benchmark subsample
    # would leave the 32x32 matching scatter starved of pairs
    tuples, _ = build_tuples(train_graphs, train_desc, mining_cfg, "m3",
                             "N2", stream.derive("whitenmine"),
                             all_images_as_queries=True)
    print(f"fitting on {len(tuples)} matching and "
          f"{sum(len(t.negatives) for t in tuples)} non-matching pairs "
          f"from {len(train_ids)} training images")

    lw = fit_lw_tuples(train_desc, tuples)
    pcaw = fit_pcaw([descriptors[i] for i in train_ids])
    top = np.asarray(lw.spectrum[:5], dtype=np.float64)
    print(f"leading Lw spectrum values: {np.array2string(top, precision=3)}")
    print("columns are ordered by how much non-matching scatter they "
          "keep, so truncation drops the least discriminative directions\n")

    gt = benchmark_ground_truth(val_graphs)
    raw = {i: descriptors[i] for i in sorted(gt)}
    print(f"{'descriptor':<12}{'dim':>4}{'held-out mAP':>14}")
    print(f"{'raw MAC':<12}{32:>4}{retrieval_map(raw, gt):>14.4f}")
    for d in (32, 16):
        for name, model in (("PCAw", pcaw), ("Lw", lw)):
            proj = {i: apply_projection(model, v, d)
                    for i, v in raw.items()}
            print(f"{name:<12}{d:>4}{retrieval_map(proj, gt):>14.4f}")
    print("\nhalving the dimensionality costs Lw about a point while "
          "PCAw falls apart; the pair supervision is what orders the "
          "columns by retrieval value")


if __name__ == "__main__":
    main()
