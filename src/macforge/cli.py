"""Command-line pipeline: macforge synth|embed|mine|train|whiten|eval.

Configuration is a flat key=value map resolved as defaults < config
file < command-line flags. The keys, defaults and value types of the
library tunables come from the config dataclasses (SceneConfig,
MiningConfig, TrainConfig, LossConfig), one key per field and two for
a (lo, hi) range; only the stage arguments are declared here. The
resolved map and its hash are echoed to stderr so every run is
auditable. Exit codes: 0 success, 2 config or usage error (a diverged
training loss included), 3 I/O error, 4 data-shape or file-format
error.
"""

import argparse
import dataclasses
import hashlib
import sys

from .backbone import ShapeError, SpecError, load_checkpoint
from .descriptor import GridError, load_descriptors
from .images import read_ppm
from .ioutil import FormatError
from .mining import GraphError, MiningConfig, MiningError
from .numeric import DimensionError
from .pipeline import (
    Extractor,
    image_path,
    stage_embed,
    stage_mine,
    stage_synth,
    stage_train,
    stage_whiten,
)
from .retrieval import (
    MODES,
    DescriptorDB,
    ProtocolError,
    evaluate,
    load_ground_truth,
    write_eval_csv,
)
from .synthscene import GenerationError, SceneConfig
from .training import LossConfig, TrainConfig, TrainingDivergedError
from .whitening import KIND_LW, KIND_PCAW, load_projection

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4


class ConfigError(ValueError):
    """Unknown key, unparsable value, or invalid configuration."""


# the config dataclasses declare every library tunable once; each
# field is one key, except the (lo, hi) scene ranges, which are two
CONFIG_CLASSES = (SceneConfig, MiningConfig, TrainConfig, LossConfig)
RANGE_KEYS = {
    "images_per_cluster": ("images_min", "images_max"),
    "points_per_cluster": ("points_min", "points_max"),
    "camera_orbit_radius": ("orbit_min", "orbit_max"),
    "zoom_range": ("zoom_min", "zoom_max"),
}


def _field_defaults():
    defaults = {}
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            if f.name in RANGE_KEYS:
                defaults.update(zip(RANGE_KEYS[f.name], f.default))
            else:
                defaults[f.name] = f.default
    return defaults


# every key with its default; value type doubles as the parser. Keys
# below are stage arguments; the rest come from the config dataclasses.
DEFAULTS = {
    **_field_defaults(),
    "threads": 0,  # worker processes; 0 = one per CPU, resolved by the stage
    "positive_method": "m3",
    "negative_variant": "N2",
    "mine_all_queries": False,
    "loss": "contrastive",
    "val_fraction": 0.2,
    "rmac_scales": 0,
    "dim": 0,  # 0 = keep full dimensionality
    "whiten_kind": "lw",
    "mode": "Full",
}

# the allowed values of the stage arguments that name a method; the
# flags offer them and resolve_config rejects any other value
CHOICES = {
    "positive_method": ("m1", "m2", "m3"),
    "negative_variant": ("N1", "N2"),
    "loss": ("contrastive", "triplet"),
    "whiten_kind": ("lw", "pcaw"),
    "mode": MODES,
}


def build_config(cls, cfg):
    """The config dataclass cls with every field read from the resolved
    key map; the dataclass validates the values."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in RANGE_KEYS:
            kwargs[f.name] = tuple(cfg[key] for key in RANGE_KEYS[f.name])
        else:
            kwargs[f.name] = cfg[f.name]
    return cls(**kwargs)


def _coerce(key, raw):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        lowered = str(raw).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"value for {key} must be boolean: {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"value for {key} must be "
                          f"{type(default).__name__}: {raw!r}") from None
    return str(raw)


def parse_config_file(path):
    overrides = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        overrides[key] = _coerce(key, value.strip())
    return overrides


def resolve_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    if getattr(args, "rmac", False) and cfg["rmac_scales"] == 0:
        cfg["rmac_scales"] = 3
    # a flag whose dest is a config key sets that key when given
    for key, value in vars(args).items():
        if key in DEFAULTS and value is not None:
            cfg[key] = value
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, value)
    for key in ("threads", "rmac_scales", "dim"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be non-negative")
    for key, allowed in CHOICES.items():
        if cfg[key] not in allowed:
            raise ConfigError(f"{key} must be one of {list(allowed)}, "
                              f"got {cfg[key]!r}")
    return cfg


def echo_config(cfg):
    lines = [f"{key}={cfg[key]!r}" if isinstance(cfg[key], float)
             else f"{key}={cfg[key]}" for key in sorted(cfg)]
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    for line in lines:
        print(line, file=sys.stderr)
    print(f"config_hash={digest[:16]}", file=sys.stderr)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required")


def _optional_dim(cfg):
    return None if cfg["dim"] == 0 else cfg["dim"]


def _load_projection_arg(args):
    if getattr(args, "projection", None):
        return load_projection(args.projection)
    return None


def cmd_synth(args, cfg):
    _require(args, "out")
    clusters, images, points = stage_synth(build_config(SceneConfig, cfg),
                                           args.out, threads=cfg["threads"])
    print(f"clusters={clusters} images={images} points={points}")
    return EXIT_OK


def cmd_embed(args, cfg):
    _require(args, "checkpoint", "images", "out")
    count = stage_embed(
        args.checkpoint, args.images, args.out,
        rmac_scales=cfg["rmac_scales"],
        projection=_load_projection_arg(args),
        out_dim=_optional_dim(cfg),
        max_side=cfg["max_image_side"],
        threads=cfg["threads"])
    print(f"descriptors={count}")
    return EXIT_OK


def cmd_mine(args, cfg):
    _require(args, "scenes", "descriptors", "out")
    tuples, skipped = stage_mine(
        args.scenes, args.descriptors, args.out,
        build_config(MiningConfig, cfg),
        cfg["positive_method"], cfg["negative_variant"], cfg["seed"],
        all_images_as_queries=cfg["mine_all_queries"])
    print(f"tuples={len(tuples)} skipped={len(skipped)}")
    for query_id, reason in skipped:
        print(f"skipped {query_id}: {reason}", file=sys.stderr)
    return EXIT_OK


def cmd_train(args, cfg):
    _require(args, "scenes", "images", "out")
    result = stage_train(
        args.scenes, args.images, args.out,
        build_config(TrainConfig, cfg), build_config(LossConfig, cfg),
        build_config(MiningConfig, cfg),
        cfg["positive_method"], cfg["negative_variant"],
        cfg["loss"], cfg["val_fraction"], cfg["seed"],
        init_params_from=getattr(args, "checkpoint", None),
        threads=cfg["threads"])
    print(f"best_epoch={result.best_epoch} "
          f"best_val_map={result.best_val_map:.6f}")
    return EXIT_OK


def cmd_whiten(args, cfg):
    _require(args, "descriptors", "out")
    kind = {"lw": KIND_LW, "pcaw": KIND_PCAW}[cfg["whiten_kind"]]
    if kind == KIND_LW and getattr(args, "tuples", None) is None:
        raise ConfigError("--tuples is required for Lw fitting")
    model = stage_whiten(args.descriptors, args.out, kind,
                         tuples_path=getattr(args, "tuples", None))
    print(f"kind={model.kind} dim={model.dim}")
    return EXIT_OK


def cmd_eval(args, cfg):
    _require(args, "db", "checkpoint", "images", "gt")
    db = DescriptorDB(load_descriptors(args.db))
    spec, params, _ = load_checkpoint(args.checkpoint)
    extractor = Extractor(spec, params,
                          rmac_scales=cfg["rmac_scales"],
                          projection=_load_projection_arg(args),
                          out_dim=_optional_dim(cfg),
                          max_side=cfg["max_image_side"])
    gt = load_ground_truth(args.gt)
    queries = []
    for query_id in sorted(gt):
        image = read_ppm(image_path(args.images, query_id))
        queries.append((query_id, image, gt[query_id].bbox))
    mean_ap, per_query = evaluate(db, queries, gt, cfg["mode"], extractor,
                                  threads=cfg["threads"])
    for query_id, ap in per_query:
        print(f"{query_id},{ap:.6f}")
    print(f"mAP,{mean_ap:.6f}")
    if getattr(args, "out", None):
        write_eval_csv(args.out, per_query, mean_ap)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macforge",
        description="Synthetic-scene retrieval pipeline: scene synthesis, "
                    "descriptor extraction, tuple mining, fine-tuning, "
                    "whitening, and mAP evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")

    p = sub.add_parser("synth", help="generate scenes, images, ground truth")
    add_common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("embed", help="extract a descriptor database")
    add_common(p)
    p.add_argument("--checkpoint", help="MFCK network checkpoint")
    p.add_argument("--images", help="directory of PPM images")
    p.add_argument("--out", help="MACD output path")
    p.add_argument("--rmac", action="store_true",
                   help="regional pooling (rmac_scales=3)")
    p.add_argument("--projection", help="MFPW projection to apply")
    p.add_argument("--dim", type=int, help="reduced dimensionality")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("mine", help="mine training tuples from scenes")
    add_common(p)
    p.add_argument("--scenes", help="directory of scene JSON files")
    p.add_argument("--descriptors", help="MACD database")
    p.add_argument("--out", help="tuple JSON-lines output path")
    p.add_argument("--positive", dest="positive_method",
                   choices=CHOICES["positive_method"])
    p.add_argument("--negative", dest="negative_variant",
                   choices=CHOICES["negative_variant"])
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="fine-tune the backbone on tuples")
    add_common(p)
    p.add_argument("--scenes", help="directory of scene JSON files")
    p.add_argument("--images", help="directory of PPM images")
    p.add_argument("--out", help="output directory")
    p.add_argument("--checkpoint", help="initialize from this MFCK file")
    p.add_argument("--loss", choices=CHOICES["loss"])
    p.add_argument("--positive", dest="positive_method",
                   choices=CHOICES["positive_method"])
    p.add_argument("--negative", dest="negative_variant",
                   choices=CHOICES["negative_variant"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("whiten", help="fit a whitening projection")
    add_common(p)
    p.add_argument("--descriptors", help="MACD database")
    p.add_argument("--tuples", help="tuple file (required for Lw)")
    p.add_argument("--kind", dest="whiten_kind", choices=CHOICES["whiten_kind"])
    p.add_argument("--out", help="MFPW output path")
    p.set_defaults(func=cmd_whiten)

    p = sub.add_parser("eval", help="evaluate retrieval mAP")
    add_common(p)
    p.add_argument("--db", help="MACD database to rank")
    p.add_argument("--checkpoint", help="MFCK network checkpoint")
    p.add_argument("--images", help="directory of PPM images")
    p.add_argument("--gt", help="ground-truth JSON")
    p.add_argument("--mode", choices=CHOICES["mode"])
    p.add_argument("--rmac", action="store_true")
    p.add_argument("--projection", help="MFPW projection to apply")
    p.add_argument("--dim", type=int)
    p.add_argument("--out", help="also write the CSV here")
    p.set_defaults(func=cmd_eval)
    # offered only by the subcommands whose stage reads the key
    for name in ("synth", "mine", "train"):
        sub.choices[name].add_argument("--seed", type=int,
                                       help="top-level random seed")
    for name in ("synth", "embed", "train", "eval"):
        sub.choices[name].add_argument(
            "--threads", type=int, help="worker processes (0 = one per CPU)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        echo_config(cfg)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FormatError, DimensionError, ShapeError, SpecError, GraphError,
            GridError, ProtocolError, MiningError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (GenerationError, TrainingDivergedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
