#!/usr/bin/env python3
"""Prints one sha256 per benchmark result that a byte-identical change must keep.

    python3 .github/run-digests.py SRC

SRC is the directory that holds the heteroembed package. The inputs come from
perfbench/workloads.py, as the benchmark builds them: one line per
`hard_compare` data set, the digest of its `run_compare` dict (keys sorted,
values as `float.hex`), and one line per `eval_large` set-up net, the digest of
its `params` bytes. Each line is `<name> <sha256>`. Nothing is written under
perfbench/ or SRC: no bytecode, and the manifests go to a temporary directory.
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
    from workloads import EvalLarge, HardCompare

    with tempfile.TemporaryDirectory() as tmp:
        datasets, config, train_fraction, enroll = HardCompare(1, Path(tmp)).setup()
        for seed, dataset in zip(HardCompare.data_seeds, datasets):
            results = hcli.run_compare(dataset, config, train_fraction, enroll)
            text = "\n".join(f"{key}={float.hex(results[key])}" for key in sorted(results))
            print(f"hard_compare.run_compare.seed{seed} {sha256(text.encode())}")
        _, nets, _, _, _ = EvalLarge(1, Path(tmp)).setup()
        for mode, net in nets.items():
            print(f"eval_large.params.{mode} {sha256(net.params.tobytes())}")


if __name__ == "__main__":
    main(sys.argv[1])
