"""The benchmark's workloads: inputs made from the workload seed, one operation each.

A workload builds its inputs in `setup` (timed, repeated `setup_reps` times
over a run) and runs one closed-loop operation per `op` call. `op` returns
(input key, quality dict); the harness averages quality over the first result
for each distinct key and checks that a repeated key reproduces its first
result exactly. `not_called` names the patched functions (see spans.py) the
workload never reaches; every other one must record a traced call.

Both workloads run fixed inputs: their time depends on sizes, not values, and
fixed inputs make the quality figures exact outputs of the code rather than
draws that swing with the data seed. The workload seed drives the order of the
operations, the check subsamples and the determinism probe.
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np

import heteroembed.cli as hcli
import heteroembed.data as hdata
import heteroembed.net as hnet

# The package re-exports the function `train`, which shadows the submodule attribute.
htrain = importlib.import_module("heteroembed.train")

QUALITY_KEYS = ("cross_rank1", "cross_eer")


def _compare_quality(results: dict) -> dict:
    return {f"{mode}.{k}": results[f"{mode}.{k}"]
            for mode in ("hetero", "baseline") for k in QUALITY_KEYS}


class HardCompare:
    name = "hard_compare"
    data_seeds = (1, 2, 3, 4)
    min_ops = len(data_seeds)
    setup_reps = 15
    not_called = ("heteroembed.net.save_checkpoint", "heteroembed.net.load_checkpoint",
                  "heteroembed.data.split_by_identity", "heteroembed.train.train")
    n_identities = 200
    missing_b_frac = 0.25
    overrides = {"epochs": "8", "split.train_fraction": "0.5"}

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.panel = len(self.data_seeds)
        self.first = seed % self.panel
        self.synth = [self._synth_config(s) for s in self.data_seeds]
        self.sizes = {"data_seeds": list(self.data_seeds), "missing_b_frac": self.missing_b_frac,
                      "synth": dataclasses.asdict(self.synth[0]) | {"seed": "per data seed"},
                      "run_overrides": self.overrides}

    def _synth_config(self, data_seed):
        return hdata.SynthConfig(
            n_identities=self.n_identities, samples_per_identity_per_domain=5,
            cluster_spread=0.6,
            domain_shift=hdata.DomainShift(rotation_angle_degrees=90.0, offset_magnitude=3.0,
                                           noise_scale=0.5),
            seed=data_seed,
        )

    def _dataset(self, k):
        full = hdata.generate_synthetic(self.synth[k])
        ids = full.identities()
        rng = np.random.default_rng([self.data_seeds[k], 1])
        n_drop = int(self.missing_b_frac * len(ids))
        no_b = {ids[i] for i in rng.permutation(len(ids))[:n_drop]}
        kept = [s for s in full.samples if not (s.domain == "B" and s.identity in no_b)]
        path = self.workdir / f"hard{k}.hem"
        hdata.save_manifest(hdata.Dataset(samples=kept, feature_dim=full.feature_dim), path)
        return hdata.load_manifest(path)

    def setup(self):
        datasets = [self._dataset(k) for k in range(self.panel)]
        config, train_fraction, enroll = hcli.run_config_from(self.overrides, datasets[0].feature_dim)
        return datasets, config, train_fraction, enroll

    def op(self, state, i):
        datasets, config, train_fraction, enroll = state
        k = (self.first + i) % self.panel
        results = hcli.run_compare(datasets[k], config, train_fraction, enroll)
        return self.data_seeds[k], _compare_quality(results)


class EvalLarge:
    name = "eval_large"
    min_ops = 2
    setup_reps = 15
    not_called = ("heteroembed.cli.run_compare", "heteroembed.cli.train",
                  "heteroembed.cli.split_by_identity")
    modes = ("hetero", "triplet_baseline")
    overrides = {"epochs": "4", "tuples_per_epoch": "400"}

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.first = seed % len(self.modes)
        self.synth = hdata.SynthConfig(n_identities=500, samples_per_identity_per_domain=10)
        self.sizes = {"synth": dataclasses.asdict(self.synth), "run_overrides": self.overrides,
                      "train_modes": list(self.modes)}

    def setup(self):
        manifest = self.workdir / "large.hem"
        hdata.save_manifest(hdata.generate_synthetic(self.synth), manifest)
        dataset = hdata.load_manifest(manifest)
        config, train_fraction, enroll = hcli.run_config_from(self.overrides, dataset.feature_dim)
        train_set, _ = hdata.split_by_identity(dataset, train_fraction, config.seed)
        nets = {}
        for mode in self.modes:
            net, _ = htrain.train(train_set, dataclasses.replace(config, loss_mode=mode))
            hnet.save_checkpoint(net, self.workdir / f"{mode}.ckpt")
            nets[mode] = net
        return manifest, nets, config, train_fraction, enroll

    def op(self, state, i):
        manifest, _, config, train_fraction, enroll = state
        mode = self.modes[(self.first + i) % len(self.modes)]
        net = hnet.load_checkpoint(self.workdir / f"{mode}.ckpt")
        dataset = hdata.load_manifest(manifest)
        _, test_set = hdata.split_by_identity(dataset, train_fraction, config.seed)
        hcli.evaluate_enroll_probe(net, test_set, enroll, config.seed)
        domains = test_set.domains()
        ident, verif, _, _, _ = hcli.evaluate_cross_domain(net, test_set, domains[0], domains[1])
        key = "hetero" if mode == "hetero" else "baseline"
        return mode, {f"{key}.cross_rank1": ident.rank1, f"{key}.cross_eer": verif.eer}


WORKLOADS = {w.name: w for w in (HardCompare, EvalLarge)}
