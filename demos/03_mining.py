"""Mining training tuples from 3D geometry instead of labels.

A tuple is (query, positive, negatives...). The positive comes from the
query's own cluster, chosen by one of three rules: m1 trusts the current
descriptor (nearest neighbor), m2 trusts geometry (most co-observed
points), m3 draws uniformly from the geometrically feasible pool. The
negatives are the most similar images from other clusters, either the
plain top n (N1) or at most one per cluster (N2).

Run from the repository root:

    python demos/03_mining.py
"""

from macforge.backbone import init_params, tiny_spec
from macforge.mining import (
    MiningConfig,
    build_tuples,
    candidate_pool,
    choose_queries,
    mine_negatives,
    observed_points,
    positive_m1,
    positive_m2,
    positive_m3,
    scale_change,
)
from macforge.numeric import SeededStream
from macforge.pipeline import render_images
from macforge.retrieval import DescriptorDB
from macforge.synthscene import SceneConfig, generate
from macforge.training import embed_image


def main():
    scene = SceneConfig(clusters=5, images_per_cluster=(8, 12),
                        points_per_cluster=(60, 100), image_size=48,
                        seed=3)
    graphs = generate(scene)
    images = render_images(graphs, scene.image_size)

    spec = tiny_spec()
    params = init_params(spec, SeededStream(3))
    descriptors = {i: embed_image(params, spec, images[i])
                   for g in graphs for i in g.images}
    cluster_of = {i: g.cluster_id for g in graphs for i in g.images}

    cfg = MiningConfig(pool_size=6, negatives=3,
                       candidate_negatives_per_cluster=8)
    g = graphs[0]
    queries = choose_queries(g, SeededStream(3).derive("queries"))
    q = queries[0]
    print(f"cluster {g.cluster_id!r} samples queries {queries}, "
          f"working with {q!r}\n")

    pool = candidate_pool(g, q, cfg.pool_size)
    print(f"candidate pool = the {cfg.pool_size} nearest cameras:")
    pq = observed_points(g, q)
    for i in pool:
        shared = pq & observed_points(g, i)
        print(f"  {i}: co-observes {len(shared):>3} points "
              f"({len(shared) / len(pq):.0%} of the query's), "
              f"scale change {scale_change(g, i, q):.2f}")

    m1 = positive_m1(q, pool, descriptors)
    m2 = positive_m2(q, pool, g)
    m3 = positive_m3(q, pool, g, cfg, SeededStream(3).derive("m3"))
    print(f"\nm1 (most similar descriptor) picks {m1!r}")
    print(f"m2 (most co-observed points) picks {m2!r}")
    print(f"m3 (uniform over feasible)   picks {m3!r}")
    print("m1 picks what the net already matches, so it teaches little; "
          "m3 keeps hard viewpoint changes in play\n")

    db = DescriptorDB(descriptors)
    n1 = mine_negatives(q, descriptors[q], db, cluster_of.__getitem__,
                        cfg.negatives, "N1")
    n2 = mine_negatives(q, descriptors[q], db, cluster_of.__getitem__,
                        cfg.negatives, "N2")
    print(f"N1 negatives {n1}")
    print(f"   clusters  {[cluster_of[i] for i in n1]}")
    print(f"N2 negatives {n2}")
    print(f"   clusters  {[cluster_of[i] for i in n2]} (all distinct)\n")

    tuples, skipped = build_tuples(graphs, descriptors, cfg, "m3", "N2",
                                   SeededStream(3).derive("tuples"))
    print(f"build_tuples mined {len(tuples)} tuples across "
          f"{len(graphs)} clusters, skipped {len(skipped)}")
    t = tuples[0]
    print(f"first tuple: query {t.query!r} positive {t.positive!r} "
          f"negatives {list(t.negatives)}")


if __name__ == "__main__":
    main()
