"""Generate a synthetic multi-scene corpus and inspect what is inside.

Each cluster is one rigid 3D point cloud photographed by a ring of
pinhole cameras orbiting it. The renderer splats exactly the points the
visibility graph says a camera sees, so image appearance and 3D
ground truth agree by construction. That agreement is what the mining
stages later rely on.

Run from the repository root:

    python demos/01_synthesize_scenes.py
"""

import os
import tempfile

import numpy as np

from macforge.images import write_ppm
from macforge.mining import scale_change
from macforge.synthscene import SceneConfig, generate, render


def main():
    cfg = SceneConfig(clusters=6, images_per_cluster=(8, 12),
                      points_per_cluster=(60, 100), image_size=64, seed=7)
    print(f"generating {cfg.clusters} clusters "
          f"(seed {cfg.seed}, {cfg.image_size}px images)\n")
    graphs = generate(cfg)

    print(f"{'cluster':<12}{'images':>8}{'points':>8}{'edges':>8}"
          f"{'obs/image':>11}")
    for g in graphs:
        # the graph is an image x point incidence matrix, rows in
        # g.ids order and columns in g.point_ids order
        edges = int(g.incidence.sum())
        print(f"{g.cluster_id:<12}{len(g.ids):>8}{len(g.point_ids):>8}"
              f"{edges:>8}{edges / len(g.ids):>11.1f}")

    g = graphs[0]
    ids = g.ids
    a, b = ids[0], ids[1]
    seen_a = g.incidence[g.row(a)]
    shared = seen_a & g.incidence[g.row(b)]
    print(f"\nimages {a!r} and {b!r} co-observe {shared.sum()} of "
          f"{seen_a.sum()} points seen by the first")
    print(f"their relative scale change is {scale_change(g, a, b):.3f} "
          f"(1.0 would mean identical viewing scale)")

    # occlusion makes the graph realistic: not every orbit position sees
    # every point, so overlap decays with camera separation
    far = ids[len(ids) // 2]
    far_shared = seen_a & g.incidence[g.row(far)]
    print(f"a camera half an orbit away co-observes only "
          f"{far_shared.sum()} points")

    out = tempfile.mkdtemp(prefix="macforge_demo_")
    for image_id in ids[:3]:
        pixels = render(g, image_id, size=cfg.image_size)
        assert pixels.shape == (3, cfg.image_size, cfg.image_size)
        assert 0.0 <= float(np.min(pixels)) and float(np.max(pixels)) <= 1.0
        path = os.path.join(out, image_id.replace("/", "_") + ".ppm")
        write_ppm(path, pixels)
        print(f"rendered {path}")
    print("\nopen the PPMs in any viewer; same-cluster images share a "
          "palette, different clusters do not")


if __name__ == "__main__":
    main()
