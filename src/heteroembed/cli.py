"""Command-line entry point: synth / train / eval / compare.

Config files are flat `key=value` text with dotted keys, e.g.
`net.embed_dim=32`; a line whose first non-blank character is '#' is a
comment. One file serves all four commands (`_fields` gives the key rule).
Exit codes: 0 success, 2 config/parse, file or memory error, 3 sampler
infeasibility, 4 numerical failure, 5 shape mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    Dataset,
    DomainShift,
    SynthConfig,
    check_train_fraction,
    generate_synthetic,
    load_manifest,
    save_manifest,
    split_by_identity,
    split_enroll_probe,
)
from .loss import Margins
from .metrics import (
    IdentReport,
    VerificationReport,
    distance_matrix,
    embed_dataset,
    identify,
    verification_report,
    verification_scores,
    write_cmc_csv,
    write_roc_csv,
)
from .net import (
    NetConfig,
    ParseError,
    ShapeError,
    check_field,
    load_checkpoint,
    parse_int,
    parse_int_list,
    save_checkpoint,
    text_lines,
)
from .sampler import InfeasibleError, TupleSpec
from .train import NumericalError, TrainConfig, train

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_SHAPE = 5


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value config text into a dict, in file order; a key may appear once."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ParseError(f"{path}:{lineno}: config key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        out[key] = val.strip()
    return out


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


@dataclass(frozen=True)
class SplitConfig:
    """How `train`, `eval` and `compare` split a manifest; the library takes both as arguments."""

    train_fraction: float = 0.8  # share of identities in the training side
    enroll_per_identity: int = 3  # gallery samples per test identity

    def __post_init__(self):
        check_train_fraction(self.train_fraction)
        check_field("enroll_per_identity", self.enroll_per_identity, 1)


# Config schemas: dotted key -> (config class, field, parser). A key a file
# leaves out keeps the field's dataclass default.
SYNTH_KEYS = {
    "synth.n_identities": (SynthConfig, "n_identities", parse_int),
    "synth.samples_per_identity_per_domain": (SynthConfig, "samples_per_identity_per_domain", parse_int),
    "synth.feature_dim": (SynthConfig, "feature_dim", parse_int),
    "synth.cluster_spread": (SynthConfig, "cluster_spread", float),
    "synth.rotation_angle_degrees": (DomainShift, "rotation_angle_degrees", float),
    "synth.offset_magnitude": (DomainShift, "offset_magnitude", float),
    "synth.noise_scale": (DomainShift, "noise_scale", float),
    "synth.seed": (SynthConfig, "seed", parse_int),
}

RUN_KEYS = {
    "net.hidden_dims": (NetConfig, "hidden_dims", parse_int_list),
    "net.embed_dim": (NetConfig, "embed_dim", parse_int),
    "net.activation": (NetConfig, "activation", str),
    "net.normalize_output": (NetConfig, "normalize_output", _bool),
    "margins.alpha1": (Margins, "alpha1", float),
    "margins.alpha2": (Margins, "alpha2", float),
    "tuple.k": (TupleSpec, "k", parse_int),
    "optimizer.learning_rate": (TrainConfig, "learning_rate", float),
    "epochs": (TrainConfig, "epochs", parse_int),
    "tuples_per_epoch": (TrainConfig, "tuples_per_epoch", parse_int),
    "batch_size": (TrainConfig, "batch_size", parse_int),
    "seed": (TrainConfig, "seed", parse_int),
    "loss_mode": (TrainConfig, "loss_mode", str),
    "split.train_fraction": (SplitConfig, "train_fraction", float),
    "split.enroll_per_identity": (SplitConfig, "enroll_per_identity", parse_int),
}


def _fields(cfg: dict[str, str], schema: dict) -> dict[type, dict]:
    """Walk `cfg` in file order: parse `schema`'s keys into kwargs per class, skip the other table's, refuse others."""
    kwargs: dict[type, dict] = {cls: {} for cls, _, _ in schema.values()}
    for key, raw in cfg.items():
        if key in schema:
            cls, name, parse = schema[key]
            try:
                kwargs[cls][name] = parse(raw)
            except ValueError as exc:
                raise ParseError(f"config key {key!r}: bad value {raw!r}") from exc
        elif key not in SYNTH_KEYS and key not in RUN_KEYS:
            raise ParseError(f"unknown config key {key!r}")
    return kwargs


def synth_config_from(cfg: dict[str, str]) -> SynthConfig:
    kwargs = _fields(cfg, SYNTH_KEYS)
    return SynthConfig(domain_shift=DomainShift(**kwargs[DomainShift]), **kwargs[SynthConfig])


def run_config_from(cfg: dict[str, str], input_dim: int) -> tuple[TrainConfig, float, int]:
    """Build a TrainConfig plus (train_fraction, enroll_per_identity)."""
    kwargs = _fields(cfg, RUN_KEYS)
    # The CLI trains one hidden layer where the library's NetConfig is linear:
    # the benchmark's workloads use this default, the acceptance pins the library's.
    kwargs[NetConfig].setdefault("hidden_dims", (32,))
    config = TrainConfig(
        net=NetConfig(input_dim=input_dim, **kwargs[NetConfig]),
        margins=Margins(**kwargs[Margins]),
        tuple_spec=TupleSpec(**kwargs[TupleSpec]),
        **kwargs[TrainConfig],
    )
    split = SplitConfig(**kwargs[SplitConfig])
    return config, split.train_fraction, split.enroll_per_identity


# --- evaluation protocols ---------------------------------------------------


def evaluate_enroll_probe(
    net, test_set: Dataset, enroll_per_identity: int, seed: int, roc_out=None
) -> tuple[IdentReport, VerificationReport, "np.ndarray", list, list]:
    """Mixed-domain protocol: enroll a few samples per test identity; the ROC CSV goes to `roc_out`."""
    gallery, probes = split_enroll_probe(test_set, enroll_per_identity, seed)
    return _match(net, gallery, probes, roc_out)


def evaluate_cross_domain(
    net, test_set: Dataset, gallery_domain: str, probe_domain: str
) -> tuple[IdentReport, VerificationReport, "np.ndarray", list, list]:
    """Gallery entirely in one domain, probes entirely in the other."""
    return _match(net, _in_domain(test_set, gallery_domain), _in_domain(test_set, probe_domain))


def _in_domain(dataset: Dataset, domain: str) -> Dataset:
    samples = [s for s in dataset.samples if s.domain == domain]
    if not samples:
        raise ValueError(f"cross-domain protocol: the test split has no sample in domain {domain!r}")
    return Dataset(samples=samples, feature_dim=dataset.feature_dim)


def _labels(gallery: Dataset, probes: Dataset) -> tuple[list, list]:
    """The gallery and probe identity lists; refused, by the labels alone, if the pair cannot be scored."""
    gal_labels = [s.identity for s in gallery.samples]
    probe_labels = [s.identity for s in probes.samples]
    held = set(gal_labels)
    missing = sorted(set(probe_labels) - held)
    if missing:
        raise ValueError(f"probe identity {missing[0]!r} has no sample in the gallery")
    if len(held) == 1:
        raise ValueError(f"the gallery holds one identity, {gal_labels[0]!r}: no impostor pair")
    return gal_labels, probe_labels


def _match(net, gallery: Dataset, probes: Dataset, roc_out=None):
    gal_labels, probe_labels = _labels(gallery, probes)  # before any embedding
    # A network that overflows on this data is reported once, as a
    # NumericalError, not as numpy warnings and metrics of NaN distances.
    with np.errstate(over="ignore", invalid="ignore"):
        gal_emb = embed_dataset(net, gallery)
        dist = distance_matrix(embed_dataset(net, probes), gal_emb)
    if not np.isfinite(dist).all():
        raise NumericalError("non-finite embedding distance: the network overflows on this data")
    ident = identify(dist, probe_labels, gal_labels)
    scores = verification_scores(dist, probe_labels, gal_labels)
    verif = verification_report(scores)
    if roc_out is not None:
        write_roc_csv(scores, roc_out)  # `roc(scores)` is `scores`: the curve the report read
    return ident, verif, dist, probe_labels, gal_labels


def report_values(ident: IdentReport, verif: VerificationReport) -> dict[str, float]:
    """rank1, eer, then gar@<far> for each FAR in ascending order."""
    gars = {f"gar@{level:g}": verif.gar_at[level] for level in sorted(verif.gar_at)}
    return {"rank1": ident.rank1, "eer": verif.eer, **gars}


# --- commands ---------------------------------------------------------------


def _check_out_paths(outputs: dict, inputs: dict) -> None:
    """Refuse, before any work starts, an output path the command could not write.

    Both dicts map an option name to its path (None where not given). An output
    with no file name (`''`, `dir/`) is refused, and so is one that resolves
    (`os.path.realpath`) to an input or to an earlier output: the command would
    overwrite what it reads or writes.
    """
    taken = {os.path.realpath(path): option for option, path in inputs.items() if path is not None}
    for option, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: is a directory")
        if os.path.basename(path) in ("", ".", ".."):
            raise OSError(f"cannot write {path!r}: {option} names no file")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise OSError(f"cannot write {path}: no directory {parent}")
        real = os.path.realpath(path)
        if real in taken:
            raise OSError(f"cannot write {path}: {option} names the same file as {taken[real]}")
        taken[real] = option


def _config(args, schema: dict) -> dict[str, str]:
    """Read `--config`, when given, and check its keys and values, before any input file is opened."""
    cfg = {} if args.config is None else parse_config_file(args.config)
    _fields(cfg, schema)  # a config class's own refusal waits for `*_config_from`
    return cfg


def _seeded(config, args):
    """`config` with `--seed`, when given, in place of its seed; the file's own seed has passed its check."""
    return config if args.seed is None else replace(config, seed=args.seed)


def cmd_synth(args) -> int:
    _check_out_paths({"--out": args.out}, {"--config": args.config})
    config = _seeded(synth_config_from(_config(args, SYNTH_KEYS)), args)
    dataset = generate_synthetic(config)
    save_manifest(dataset, args.out)
    print(f"samples={len(dataset)}")
    print(f"identities={len(dataset.identities())}")
    print(f"domains={len(dataset.domains())}")
    return 0


def _run_inputs(args, cfg: dict[str, str]) -> tuple[Dataset, TrainConfig, float, int]:
    """Load `--data`, then build the run config from `cfg` and `--seed`."""
    dataset = load_manifest(args.data)
    config, train_fraction, enroll = run_config_from(cfg, dataset.feature_dim)
    return dataset, _seeded(config, args), train_fraction, enroll


def cmd_train(args) -> int:
    log_path = str(args.out) + ".log.csv" if args.log_out is None else args.log_out
    _check_out_paths({"--out": args.out, "--log-out": log_path},
                     {"--data": args.data, "--config": args.config})
    dataset, config, train_fraction, _ = _run_inputs(args, _config(args, RUN_KEYS))
    train_set, _ = split_by_identity(dataset, train_fraction, config.seed)
    net, log = train(train_set, config)
    save_checkpoint(net, args.out)
    log.write_csv(log_path)
    print(f"checkpoint={args.out}")
    print(f"log={log_path}")
    if log.records:
        print(f"final_mean_loss={log.records[-1].mean_loss:.9g}")
    return 0


def cmd_eval(args) -> int:
    _check_out_paths({"--roc-out": args.roc_out, "--cmc-out": args.cmc_out},
                     {"--checkpoint": args.checkpoint, "--data": args.data, "--config": args.config})
    cfg = _config(args, RUN_KEYS)
    net = load_checkpoint(args.checkpoint)
    dataset, config, train_fraction, enroll = _run_inputs(args, cfg)
    if dataset.feature_dim != net.config.input_dim:
        raise ShapeError(
            f"data feature_dim {dataset.feature_dim} != checkpoint "
            f"input_dim {net.config.input_dim}"
        )
    _, test_set = split_by_identity(dataset, train_fraction, config.seed)
    ident, verif, _, _, _ = evaluate_enroll_probe(
        net, test_set, enroll, config.seed, roc_out=args.roc_out
    )
    if args.cmc_out is not None:
        write_cmc_csv(ident, args.cmc_out)
    for key, value in report_values(ident, verif).items():
        print(f"{key}={value:.9g}")
    return 0


def run_compare(dataset: Dataset, config: TrainConfig, train_fraction: float, enroll: int):
    """Train baseline and hetero on identical data/seed; evaluate the same split.

    Returns a flat dict of metric keys. Cross-domain rows use the first
    sorted domain as gallery and the second as probes. A test split that
    either protocol cannot score is refused before training.
    """
    train_set, test_set = split_by_identity(dataset, train_fraction, config.seed)
    domains = dataset.domains()
    if len(domains) < 2:
        raise InfeasibleError("compare needs at least 2 domains")
    split_enroll_probe(test_set, enroll, config.seed)  # refuses an identity with too few samples
    _labels(_in_domain(test_set, domains[0]), _in_domain(test_set, domains[1]))
    results: dict[str, float] = {}
    for mode in ("triplet_baseline", "hetero"):
        net, log = train(train_set, replace(config, loss_mode=mode))
        key = "baseline" if mode == "triplet_baseline" else "hetero"
        if log.records:
            results[f"{key}.first_epoch_loss"] = log.records[0].mean_loss
            results[f"{key}.final_epoch_loss"] = log.records[-1].mean_loss
        ident, verif, _, _, _ = evaluate_enroll_probe(net, test_set, enroll, config.seed)
        results.update({f"{key}.{name}": value for name, value in report_values(ident, verif).items()})
        x_ident, x_verif, _, _, _ = evaluate_cross_domain(
            net, test_set, domains[0], domains[1]
        )
        results[f"{key}.cross_rank1"] = x_ident.rank1
        results[f"{key}.cross_eer"] = x_verif.eer
    for metric in ("rank1", "eer", "cross_rank1", "cross_eer"):
        results[f"delta.{metric}"] = results[f"hetero.{metric}"] - results[f"baseline.{metric}"]
    return results


def cmd_compare(args) -> int:
    dataset, config, train_fraction, enroll = _run_inputs(args, _config(args, RUN_KEYS))
    results = run_compare(dataset, config, train_fraction, enroll)
    for key in sorted(results):
        print(f"{key}={results[key]:.9g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heteroembed",
        description="Heterogeneity-aware embedding training and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options every command takes, then the ones the run commands add; each
    # command's description lists the config keys it reads.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value config (keys listed above)")
    shared.add_argument("--seed", help="override the config seed")
    run = argparse.ArgumentParser(add_help=False, parents=[shared])
    run.add_argument("--data", required=True, help="input .hem manifest")

    def command(name, parent, keys, func, help):
        p = sub.add_parser(name, parents=[parent], help=help, description=f"config keys: {', '.join(keys)}")
        p.set_defaults(func=func)
        return p

    p = command("synth", shared, SYNTH_KEYS, cmd_synth, "generate a synthetic two-domain manifest")
    p.add_argument("--out", required=True, help="output .hem manifest path")

    p = command("train", run, RUN_KEYS, cmd_train, "train an embedding network")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log-out", help="training log CSV path (default <out>.log.csv)")

    p = command("eval", run, RUN_KEYS, cmd_eval, "evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--roc-out", help="write the ROC curve CSV here")
    p.add_argument("--cmc-out", help="write the CMC curve CSV here")

    command("compare", run, RUN_KEYS, cmd_compare, "train+evaluate baseline and hetero losses")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            try:
                args.seed = parse_int(args.seed)
            except ValueError as exc:
                raise ParseError(f"option --seed: bad value {args.seed!r}") from exc
        return args.func(args)
    except (ValueError, NumericalError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ShapeError):
            return EXIT_SHAPE
        if isinstance(exc, InfeasibleError):
            return EXIT_INFEASIBLE
        if isinstance(exc, NumericalError):
            return EXIT_NUMERICAL
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
