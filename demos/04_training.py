"""Fine-tune the backbone with a siamese contrastive loss, no labels.

Supervision comes entirely from the 3D geometry of the synthetic
corpus: matching pairs are (query, mined positive), non-matching pairs
are (query, mined negative). Negatives are re-mined during the epoch so
they stay hard as the network moves. Model selection is retrieval mAP
on held-out clusters, never the loss.

Run from the repository root (a few seconds):

    python demos/04_training.py
"""

import numpy as np

from macforge.backbone import init_params, tiny_spec
from macforge.mining import MiningConfig
from macforge.numeric import SeededStream
from macforge.pipeline import (
    benchmark_ground_truth,
    prepare_training,
    render_images,
    split_clusters,
)
from macforge.retrieval import DescriptorDB, average_precision, search
from macforge.synthscene import SceneConfig, generate
from macforge.training import LossConfig, TrainConfig, embed_image, train


def retrieval_map(vectors, gt):
    db = DescriptorDB(vectors)
    aps = []
    for qid in sorted(gt):
        ranking = [db.ids[row] for row in search(db, vectors[qid])]
        aps.append(average_precision(ranking, gt[qid]))
    return float(np.mean(aps))


def main():
    scene = SceneConfig(clusters=10, images_per_cluster=(10, 14),
                        points_per_cluster=(60, 100), image_size=48,
                        seed=5)
    graphs = generate(scene)
    images = render_images(graphs, scene.image_size)
    train_graphs, val_graphs = split_clusters(graphs, 0.3)
    print(f"{len(train_graphs)} training clusters, "
          f"{len(val_graphs)} held out for model selection")

    spec = tiny_spec()
    stream = SeededStream(5)
    params0 = init_params(spec, stream.derive("init"))

    gt_val = benchmark_ground_truth(val_graphs)
    all0 = {i: embed_image(params0, spec, images[i])
            for g in graphs for i in g.images}
    map0 = retrieval_map({i: all0[i] for i in sorted(gt_val)}, gt_val)
    print(f"held-out mAP before training: {map0:.4f}\n")

    # training tuples come from the training clusters; validation tuples
    # draw queries from held-out clusters but may use the whole corpus as
    # negatives
    mining_cfg = MiningConfig(pool_size=8, negatives=3,
                              candidate_negatives_per_cluster=8)
    miner, val_tuples = prepare_training(graphs, all0, mining_cfg, "m3",
                                         "N2", 0.3, stream)
    print(f"mined {len(miner.current_tuples())} training tuples "
          f"({len(miner.skipped)} queries skipped)")

    cfg = TrainConfig(batch_tuples=2, max_epochs=6, remine_per_epoch=2,
                      max_image_side=48)
    result = train(miner, images.__getitem__, val_tuples, spec, params0,
                   cfg, LossConfig(), stream.derive("train"),
                   loss_kind="contrastive")

    print(f"\n{'epoch':>5}{'lr':>10}{'train loss':>12}{'val mAP':>9}")
    for m in result.metrics:
        print(f"{m.epoch:>5}{m.lr:>10.5f}{m.train_loss:>12.5f}"
              f"{m.val_map:>9.4f}")
    print(f"\nbest epoch by held-out tuple mAP: {result.best_epoch}")

    trained = {i: embed_image(result.best_params, spec, images[i])
               for i in sorted(gt_val)}
    map1 = retrieval_map(trained, gt_val)
    print(f"held-out mAP after training:  {map1:.4f} "
          f"({100 * (map1 - map0):+.2f} points)")


if __name__ == "__main__":
    main()
