"""Command-line entry point: synth / train / eval / compare.

Config files are flat `key=value` text with dotted keys, e.g.
`net.embed_dim=32`. Lines starting with '#' are comments. Exit codes:
0 success, 2 config/parse or file error, 3 sampler infeasibility, 4 numerical
failure, 5 shape mismatch.
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
    ParseError,
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
)
from .net import (
    NetConfig,
    ShapeError,
    check_field,
    load_checkpoint,
    parse_int,
    parse_int_list,
    save_checkpoint,
)
from .sampler import InfeasibleError, TupleSpec
from .train import NumericalError, TrainConfig, train

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_SHAPE = 5


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value config text into a dict."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
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
# leaves out keeps the field's dataclass default. Values parse in table order,
# so the first bad value in this order is the one reported.
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

RUN_KEYS_DOC = ", ".join(RUN_KEYS)


def _fields(cfg: dict[str, str], schema: dict) -> dict[type, dict]:
    """Parse the schema keys `cfg` sets into keyword arguments per config class."""
    kwargs: dict[type, dict] = {cls: {} for cls, _, _ in schema.values()}
    for key, (cls, name, parse) in schema.items():
        if key in cfg:
            try:
                kwargs[cls][name] = parse(cfg[key])
            except ValueError as exc:
                raise ParseError(f"config key {key!r}: bad value {cfg[key]!r}") from exc
    return kwargs


def _reject_unknown(cfg: dict[str, str], schema: dict) -> None:
    for key in cfg:
        if key not in schema:
            raise ParseError(f"unknown config key {key!r}")


def synth_config_from(cfg: dict[str, str], seed_override=None) -> SynthConfig:
    kwargs = _fields(cfg, SYNTH_KEYS)
    config = SynthConfig(domain_shift=DomainShift(**kwargs[DomainShift]), **kwargs[SynthConfig])
    _reject_unknown(cfg, SYNTH_KEYS)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
    return config


def run_config_from(
    cfg: dict[str, str], input_dim: int, seed_override=None
) -> tuple[TrainConfig, float, int]:
    """Build a TrainConfig plus (train_fraction, enroll_per_identity)."""
    cfg = {k: v for k, v in cfg.items() if not k.startswith("synth.")}
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
    _reject_unknown(cfg, RUN_KEYS)
    if seed_override is not None:
        config = replace(config, seed=seed_override)
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
    return Dataset(samples=[s for s in dataset.samples if s.domain == domain], feature_dim=dataset.feature_dim)


def _match(net, gallery: Dataset, probes: Dataset, roc_out=None):
    gal_labels = [s.identity for s in gallery.samples]
    probe_labels = [s.identity for s in probes.samples]
    if len(set(gal_labels)) == 1:  # refused by its labels, before any embedding
        raise ValueError(f"the gallery holds one identity, {gal_labels[0]!r}: no impostor pair")
    # A network that overflows on this data is reported once, as a
    # NumericalError, not as numpy warnings and metrics of NaN distances.
    with np.errstate(over="ignore", invalid="ignore"):
        gal_emb = embed_dataset(net, gallery)
        dist = distance_matrix(embed_dataset(net, probes), gal_emb)
    if not np.isfinite(dist).all():
        raise NumericalError("non-finite embedding distance: the network overflows on this data")
    ident = identify(dist, probe_labels, gal_labels)
    verif = verification_report(verification_scores(dist, probe_labels, gal_labels), roc_out=roc_out)
    return ident, verif, dist, probe_labels, gal_labels


def report_values(ident: IdentReport, verif: VerificationReport) -> dict[str, float]:
    """rank1, eer, then gar@<far> for each FAR in ascending order."""
    gars = {f"gar@{level:g}": verif.gar_at[level] for level in sorted(verif.gar_at)}
    return {"rank1": ident.rank1, "eer": verif.eer, **gars}


# --- commands ---------------------------------------------------------------


def _check_out_paths(outputs: dict, inputs: dict) -> None:
    """Refuse, before any work starts, an output path the command could not write.

    Both dicts map an option name to its path (None where not given). An output
    that resolves (`os.path.realpath`) to an input or to an earlier output is
    refused too: the command would overwrite what it reads or writes.
    """
    taken = {os.path.realpath(path): option for option, path in inputs.items() if path is not None}
    for option, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise OSError(f"cannot write {path}: no directory {parent}")
        real = os.path.realpath(path)
        if real in taken:
            raise OSError(f"cannot write {path}: {option} names the same file as {taken[real]}")
        taken[real] = option


def cmd_synth(args) -> int:
    _check_out_paths({"--out": args.out}, {"--config": args.config})
    cfg = parse_config_file(args.config) if args.config else {}
    config = synth_config_from(cfg, seed_override=args.seed)
    dataset = generate_synthetic(config)
    save_manifest(dataset, args.out)
    print(f"samples={len(dataset)}")
    print(f"identities={len(dataset.identities())}")
    print(f"domains={len(dataset.domains())}")
    return 0


def _run_inputs(args) -> tuple[Dataset, TrainConfig, float, int]:
    """Load `--data`, then build the run config from `--config` and `--seed`."""
    dataset = load_manifest(args.data)
    cfg = parse_config_file(args.config) if args.config else {}
    return (dataset, *run_config_from(cfg, dataset.feature_dim, seed_override=args.seed))


def cmd_train(args) -> int:
    log_path = args.log_out or (str(args.out) + ".log.csv")
    _check_out_paths({"--out": args.out, "--log-out": log_path},
                     {"--data": args.data, "--config": args.config})
    dataset, config, train_fraction, _ = _run_inputs(args)
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
    net = load_checkpoint(args.checkpoint)
    dataset, config, train_fraction, enroll = _run_inputs(args)
    if dataset.feature_dim != net.config.input_dim:
        raise ShapeError(
            f"data feature_dim {dataset.feature_dim} != checkpoint "
            f"input_dim {net.config.input_dim}"
        )
    _, test_set = split_by_identity(dataset, train_fraction, config.seed)
    ident, verif, _, _, _ = evaluate_enroll_probe(
        net, test_set, enroll, config.seed, roc_out=args.roc_out
    )
    if args.cmc_out:
        write_cmc_csv(ident, args.cmc_out)
    for key, value in report_values(ident, verif).items():
        print(f"{key}={value:.9g}")
    return 0


def _check_test_split(test_set: Dataset, enroll: int, seed: int, gallery: str, probe: str) -> None:
    """Refuse, naming the identity or domain, a test split that `run_compare` could not score.

    These failures depend on the labels alone, so they are found before training.
    A one-identity split fails the last check: its gallery domain holds at most one.
    """
    split_enroll_probe(test_set, enroll, seed)  # raises for an identity with too few samples
    held = {d: set(_in_domain(test_set, d).identities()) for d in (gallery, probe)}
    for domain, identities in held.items():
        if not identities:
            raise ValueError(f"cross-domain protocol: the test split has no sample in domain {domain!r}")
    missing = sorted(held[probe] - held[gallery])
    if missing:
        raise ValueError(f"cross-domain protocol: probe identity {missing[0]!r} has no sample "
                         f"in gallery domain {gallery!r}")
    if len(held[gallery]) < 2:
        raise ValueError(f"cross-domain protocol: gallery domain {gallery!r} holds one identity, "
                         f"{min(held[gallery])!r}: no impostor pair")


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
    _check_test_split(test_set, enroll, config.seed, domains[0], domains[1])
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
    dataset, config, train_fraction, enroll = _run_inputs(args)
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

    p = sub.add_parser("synth", help="generate a synthetic two-domain manifest")
    p.add_argument("--config", help=f"flat key=value config ({', '.join(SYNTH_KEYS)})")
    p.add_argument("--out", required=True, help="output .hem manifest path")
    p.add_argument("--seed", help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train an embedding network")
    p.add_argument("--config", help=f"flat key=value config ({RUN_KEYS_DOC})")
    p.add_argument("--data", required=True, help="input .hem manifest")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log-out", help="training log CSV path (default <out>.log.csv)")
    p.add_argument("--seed", help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help=f"flat key=value config ({RUN_KEYS_DOC})")
    p.add_argument("--data", required=True, help="input .hem manifest")
    p.add_argument("--seed", help="override the config seed")
    p.add_argument("--roc-out", help="write the ROC curve CSV here")
    p.add_argument("--cmc-out", help="write the CMC curve CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train+evaluate baseline and hetero losses")
    p.add_argument("--config", help=f"flat key=value config ({RUN_KEYS_DOC})")
    p.add_argument("--data", required=True, help="input .hem manifest")
    p.add_argument("--seed", help="override the config seed")
    p.set_defaults(func=cmd_compare)
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
    except (ValueError, NumericalError, OSError) as exc:
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
