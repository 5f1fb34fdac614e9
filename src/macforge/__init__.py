"""macforge: unsupervised fine-tuning of convolutional descriptors for
image retrieval on synthetic multi-view scenes.

The library covers the full loop: a small trainable convolutional
trunk, MAC and regional-MAC pooling, contrastive or triplet training
with hard-example mining from 3D visibility graphs, discriminative and
PCA whitening, and mAP evaluation with pixel- or activation-space
query crops. The macforge CLI chains the stages; each module also
stands alone.
"""

from .backbone import (
    NetParams,
    ShapeError,
    SpecError,
    backward,
    conv,
    forward,
    init_params,
    load_checkpoint,
    maxpool,
    output_shapes,
    relu,
    save_checkpoint,
    tiny_spec,
    validate_spec,
)
from .descriptor import (
    BBox,
    GridError,
    RegionGrid,
    crop_activations,
    l2n,
    load_descriptors,
    mac,
    receptive_geometry,
    rmac,
    rmac_regions,
    save_descriptors,
    similarity,
    top_contributions,
)
from .mining import (
    Camera,
    GraphError,
    MiningConfig,
    MiningError,
    TrainingTuple,
    TupleMiner,
    VisibilityGraph,
    build_tuples,
    candidate_pool,
    load_scene,
    load_tuples,
    mine_negatives,
    positive_m1,
    positive_m2,
    positive_m3,
    save_scene,
    save_tuples,
    scale_change,
)
from .numeric import (
    DimensionError,
    SeededStream,
    inv_sqrt_psd,
    sym_eig,
)
from .pipeline import (
    Extractor,
    benchmark_ground_truth,
    embed_images,
    split_clusters,
    stage_embed,
    stage_mine,
    stage_synth,
    stage_train,
    stage_whiten,
)
from .retrieval import (
    DescriptorDB,
    ProtocolError,
    QueryGroundTruth,
    average_precision,
    evaluate,
    load_ground_truth,
    save_ground_truth,
    search,
    write_eval_csv,
)
from .synthscene import (
    GenerationError,
    SceneConfig,
    generate,
    look_at,
    project,
    render,
)
from .training import (
    LossConfig,
    TrainConfig,
    TrainingDivergedError,
    TrainResult,
    contrastive_loss,
    embed_image,
    l2n_backward,
    lr_at,
    sgd_step,
    train,
    triplet_loss,
    validate,
)
from .whitening import (
    KIND_LW,
    KIND_PCAW,
    ProjectionModel,
    apply_projection,
    fit_lw,
    fit_pcaw,
    load_projection,
    save_projection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
