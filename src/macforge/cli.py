"""Command-line pipeline: macforge synth|embed|mine|train|whiten|eval.

Configuration is a flat key=value map resolved as defaults < config
file < command-line flags. The keys, defaults and value types of the
library tunables come from the config dataclasses (SceneConfig,
MiningConfig, TrainConfig, LossConfig), one key per field and two for
a (lo, hi) range; only the stage arguments are declared here. Each
subcommand's flags, with their help and which are required, are one
row of COMMANDS over one declaration per flag in FLAGS. The resolved
map and its hash are echoed to stderr so every run is auditable. Exit
codes: 0 success, 2 config or usage error (a diverged training loss
included), 3 I/O error, 4 data-shape or file-format error.
"""

import argparse
import dataclasses
import hashlib
import sys

import numpy as np

from .backbone import ShapeError, SpecError, load_checkpoint
from .descriptor import GridError, load_descriptors
from .images import read_ppm
from .ioutil import FormatError
from .mining import (
    NEGATIVE_VARIANTS,
    POSITIVE_METHODS,
    GraphError,
    MiningConfig,
    MiningError,
)
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
from .training import LOSSES, LossConfig, TrainConfig, TrainingDivergedError
from .whitening import KINDS, load_projection

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
    "threads": 0,  # worker processes, resolved by workers alone
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

# --kind spells the library's whitening kinds in lower case
WHITEN_KINDS = {kind.lower(): kind for kind in KINDS}

# the library's names for each method argument, which the flags offer
CHOICES = {
    "positive_method": POSITIVE_METHODS,
    "negative_variant": NEGATIVE_VARIANTS,
    "loss": LOSSES,
    "whiten_kind": tuple(WHITEN_KINDS),
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


def _extractor_settings(args, cfg):
    """The Extractor keywords embed and eval share; dim 0 keeps the full
    dimensionality."""
    return dict(rmac_scales=cfg["rmac_scales"],
                projection=(load_projection(args.projection)
                            if args.projection else None),
                out_dim=cfg["dim"] or None,
                max_side=cfg["max_image_side"])


def cmd_synth(args, cfg):
    clusters, images, points = stage_synth(build_config(SceneConfig, cfg),
                                           args.out, threads=cfg["threads"])
    print(f"clusters={clusters} images={images} points={points}")
    return EXIT_OK


def cmd_embed(args, cfg):
    count = stage_embed(args.checkpoint, args.images, args.out,
                        threads=cfg["threads"],
                        **_extractor_settings(args, cfg))
    print(f"descriptors={count}")
    return EXIT_OK


def cmd_mine(args, cfg):
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
    result = stage_train(
        args.scenes, args.images, args.out,
        build_config(TrainConfig, cfg), build_config(LossConfig, cfg),
        build_config(MiningConfig, cfg),
        cfg["positive_method"], cfg["negative_variant"],
        cfg["loss"], cfg["val_fraction"], cfg["seed"],
        init_params_from=args.checkpoint, threads=cfg["threads"])
    print(f"best_epoch={result.best_epoch} "
          f"best_val_map={result.best_val_map:.6f}")
    return EXIT_OK


def cmd_whiten(args, cfg):
    model = stage_whiten(args.descriptors, args.out,
                         WHITEN_KINDS[cfg["whiten_kind"]],
                         tuples_path=args.tuples)
    print(f"kind={model.kind} dim={model.dim}")
    return EXIT_OK


def cmd_eval(args, cfg):
    db = DescriptorDB(load_descriptors(args.db))
    spec, params, _ = load_checkpoint(args.checkpoint)
    extractor = Extractor(spec, params, **_extractor_settings(args, cfg))
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
    if args.out:
        write_eval_csv(args.out, per_query, mean_ap)
    return EXIT_OK


# one declaration per stage flag: its add_argument keywords. A flag
# whose dest is a config key sets that key when given; a method flag
# offers that key's CHOICES. --out's help is per subcommand.
FLAGS = {
    "--out": {},
    "--checkpoint": {"help": "MFCK network checkpoint (train: initial "
                             "weights)"},
    "--images": {"help": "directory of PPM images"},
    "--scenes": {"help": "directory of scene JSON files"},
    "--descriptors": {"help": "MACD database"},
    "--tuples": {"help": "tuple file (required for Lw, refused for PCAw)"},
    "--db": {"help": "MACD database to rank"},
    "--gt": {"help": "ground-truth JSON"},
    "--positive": {"dest": "positive_method", "help": "positive rule"},
    "--negative": {"dest": "negative_variant", "help": "negative variant"},
    "--loss": {"help": "training loss"},
    "--kind": {"dest": "whiten_kind", "help": "whitening kind"},
    "--mode": {"help": "query mode: whole image, crop pixels or crop "
                       "activations"},
    "--rmac": {"dest": "rmac_scales", "action": "store_const", "const": 3,
               "help": "regional pooling (rmac_scales=3)"},
    "--projection": {"help": "MFPW projection to apply"},
    "--dim": {"type": int, "help": "reduced dimensionality"},
    "--seed": {"type": int, "help": "top-level random seed"},
    "--threads": {"type": int, "help": "worker processes (0 = one per CPU)"},
}

# one row per subcommand: its help, its handler, its --out help and its
# flags in help order, a required one marked "!". --seed and --threads
# are offered only by the subcommands whose stage reads the key.
COMMANDS = {
    "synth": ("generate scenes, images, ground truth", cmd_synth,
              "output directory", ("--out!", "--seed", "--threads")),
    "embed": ("extract a descriptor database", cmd_embed, "MACD output path",
              ("--checkpoint!", "--images!", "--out!", "--rmac",
               "--projection", "--dim", "--threads")),
    "mine": ("mine training tuples from scenes", cmd_mine,
             "tuple JSON-lines output path",
             ("--scenes!", "--descriptors!", "--out!", "--positive",
              "--negative", "--seed")),
    "train": ("fine-tune the backbone on tuples", cmd_train,
              "output directory",
              ("--scenes!", "--images!", "--out!", "--checkpoint", "--loss",
               "--positive", "--negative", "--seed", "--threads")),
    "whiten": ("fit a whitening projection", cmd_whiten, "MFPW output path",
               ("--descriptors!", "--tuples", "--kind", "--out!")),
    "eval": ("evaluate retrieval mAP", cmd_eval, "also write the CSV here",
             ("--db!", "--checkpoint!", "--images!", "--gt!", "--mode",
              "--rmac", "--projection", "--dim", "--out", "--threads")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macforge",
        description="Synthetic-scene retrieval pipeline: scene synthesis, "
                    "descriptor extraction, tuple mining, fine-tuning, "
                    "whitening, and mAP evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, out_help, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")
        for flag in flags:
            option = flag.rstrip("!")
            kwargs = dict(FLAGS[option])
            if option == "--out":
                kwargs["help"] = out_help
            dest = kwargs.get("dest", option[2:])
            if dest in CHOICES:
                kwargs["choices"] = CHOICES[dest]
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    _, handler, _, flags = COMMANDS[args.command]
    try:
        cfg = resolve_config(args)
        echo_config(cfg)
        for flag in flags:
            if flag.endswith("!") and getattr(args, flag[2:-1]) is None:
                raise ConfigError(f"{flag[:-1]} is required")
        # overflow is reported by the finiteness checks; workers inherit this
        with np.errstate(over="ignore", invalid="ignore"):
            return handler(args, cfg)
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
