#!/usr/bin/env python3
"""Prints one sha256 per benchmark result that a byte-identical change must keep.

    python3 .github/run-digests.py SRC

SRC is the directory that holds the heteroembed package. The inputs come from
perfbench/workloads.py, as the benchmark builds them: one line per manifest a
set-up writes (`hard_compare`'s four, `eval_large`'s one), the digest of its
bytes; one line per `hard_compare` data set, the digest of its `run_compare`
dict (keys sorted, values as `float.hex`); one line per `eval_large` set-up
net, the digest of its `params` bytes; and one line per `eval_large` loss mode
and protocol, the digest of the evaluation `EvalLarge.op` runs (its
`rank_accuracies` bytes, then `eer` and each `gar_at` value as `float.hex`).
Each line is `<name> <sha256>`. Nothing is written under perfbench/ or SRC: no
bytecode, and the manifests and checkpoints go to a temporary directory.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(src: str) -> None:
    sys.dont_write_bytecode = True
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as perfbench/run.py: one thread, one summation order
    sys.path[:0] = [str(Path(src).resolve()), str(Path(__file__).resolve().parents[1] / "perfbench")]
    import heteroembed.cli as hcli
    import heteroembed.data as hdata
    import heteroembed.net as hnet
    from workloads import EvalLarge, HardCompare

    def print_manifests(workload: str, workdir: Path) -> None:
        for path in sorted(workdir.glob("*.hem")):
            print(f"{workload}.manifest.{path.name} {sha256(path.read_bytes())}")

    with tempfile.TemporaryDirectory() as hard, tempfile.TemporaryDirectory() as large:
        datasets, config, train_fraction, enroll = HardCompare(1, Path(hard)).setup()
        print_manifests("hard_compare", Path(hard))
        for seed, dataset in zip(HardCompare.data_seeds, datasets):
            results = hcli.run_compare(dataset, config, train_fraction, enroll)
            text = "\n".join(f"{key}={float.hex(results[key])}" for key in sorted(results))
            print(f"hard_compare.run_compare.seed{seed} {sha256(text.encode())}")
        manifest, nets, config, train_fraction, enroll = EvalLarge(1, Path(large)).setup()
        print_manifests("eval_large", Path(large))
        for mode, net in nets.items():
            print(f"eval_large.params.{mode} {sha256(net.params.tobytes())}")
        _, test_set = hdata.split_by_identity(hdata.load_manifest(manifest), train_fraction, config.seed)
        domains = test_set.domains()
        for mode in nets:  # as EvalLarge.op: the checkpoint read back, both protocols
            net = hnet.load_checkpoint(Path(large) / f"{mode}.ckpt")
            protocols = {"enroll_probe": hcli.evaluate_enroll_probe(net, test_set, enroll, config.seed),
                         "cross_domain": hcli.evaluate_cross_domain(net, test_set, domains[0], domains[1])}
            for protocol, (ident, verif, _, _, _) in protocols.items():
                values = [verif.eer, *(verif.gar_at[level] for level in sorted(verif.gar_at))]
                data = ident.rank_accuracies.tobytes() + " ".join(map(float.hex, values)).encode()
                print(f"eval_large.eval.{mode}.{protocol} {sha256(data)}")


if __name__ == "__main__":
    main(sys.argv[1])
