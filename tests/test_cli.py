import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heteroembed.cli import (
    RUN_KEYS,
    SYNTH_KEYS,
    SplitConfig,
    main,
    parse_config_file,
    report_values,
    run_config_from,
    synth_config_from,
)
from heteroembed.data import DomainShift, SynthConfig, load_manifest
from heteroembed.loss import Margins
from heteroembed.metrics import IdentReport, VerificationReport
from heteroembed.net import CHECKPOINT_MAGIC, NetConfig, init_net, save_checkpoint
from heteroembed.sampler import TupleSpec
from heteroembed.train import TrainConfig


def write(path, text):
    path.write_text(text)
    return str(path)


SMALL_SYNTH = """\
synth.n_identities=6
synth.samples_per_identity_per_domain=5
synth.feature_dim=4
synth.seed=1
"""

SMALL_RUN = """\
net.hidden_dims=8
net.embed_dim=4
epochs=2
tuples_per_epoch=40
batch_size=8
seed=3
split.train_fraction=0.67
split.enroll_per_identity=2
"""


@pytest.fixture
def small_manifest(tmp_path):
    cfg = write(tmp_path / "synth.cfg", SMALL_SYNTH)
    out = tmp_path / "data.hem"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestConfigParsing:
    def test_flat_keys(self, tmp_path):
        path = write(tmp_path / "c.cfg", "a.b=1\n# comment\n\nx=hello\n")
        assert parse_config_file(path) == {"a.b": "1", "x": "hello"}

    def test_bad_line(self, tmp_path):
        path = write(tmp_path / "c.cfg", "no equals sign\n")
        from heteroembed.data import ParseError

        with pytest.raises(ParseError):
            parse_config_file(path)

    def test_seed_override_passes_the_config_checks(self):
        assert run_config_from({"seed": "3"}, 4, seed_override=7)[0].seed == 7
        assert synth_config_from({"synth.seed": "3"}, seed_override=7).seed == 7
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_config_from({}, 4, seed_override=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            synth_config_from({}, seed_override=-1)


class TestExactIntegers:
    """Integers are ASCII digits with an optional leading `-`; the readers refuse other spellings."""

    SPELLINGS = ["+4", " 4", "4 ", "1_0", "\u0664"]

    @pytest.mark.parametrize("value", SPELLINGS)
    @pytest.mark.parametrize("key", ["tuple.k", "epochs", "split.enroll_per_identity"])
    def test_run_config_int_keys(self, key, value):
        from heteroembed.data import ParseError

        with pytest.raises(ParseError, match=key):
            run_config_from({key: value}, 4)

    @pytest.mark.parametrize("value", SPELLINGS)
    def test_synth_config_int_keys(self, value):
        from heteroembed.data import ParseError

        with pytest.raises(ParseError, match="synth.seed"):
            synth_config_from({"synth.seed": value})

    @pytest.mark.parametrize("value,dims", [("", ()), ("8", (8,)), ("8,4", (8, 4))])
    def test_hidden_dims(self, value, dims):
        assert run_config_from({"net.hidden_dims": value}, 4)[0].net.hidden_dims == dims


class TestRefusedBeforeTraining:
    """A value the writers never emit or training cannot use: exit 2, one error line, no training."""

    @pytest.mark.parametrize(
        "line",
        ["tuple.k=+4", "tuple.k=1_0", "tuple.k=\u0664", "epochs=+1",
         "net.hidden_dims=8,,8", "net.hidden_dims=3,,", "net.hidden_dims=,",
         "optimizer.learning_rate=nan", "optimizer.learning_rate=-1", "optimizer.learning_rate=0",
         "optimizer.learning_rate=inf", "optimizer.decay=inf", "optimizer.decay=0", "optimizer.decay=nan",
         "seed=-4", "tuple.fixed_p=Z", "tuple.fixed_q=Q", "split.enroll_per_identity=0",
         "split.train_fraction=0", "split.train_fraction=1", "split.train_fraction=nan"],
    )
    def test_config_value(self, tmp_path, small_manifest, monkeypatch, line):
        monkeypatch.setattr("heteroembed.cli.train", lambda *a, **k: pytest.fail("trained"))
        cfg = write(tmp_path / "run.cfg", SMALL_RUN + line + "\n")
        code, out, err = run_main(["train", "--config", cfg, "--data", small_manifest, "--out", tmp_path / "n.ckpt"])
        assert code == 2
        assert_one_outcome(code, out, err)

    @pytest.mark.parametrize("line", ["tuple.domain_policy=uniform_pair", "tuple.fixed_p=0", "tuple.fixed_q=1"])
    def test_domain_policy_keys_are_unknown(self, tmp_path, small_manifest, monkeypatch, line):
        # (p, q) always ranges over every ordered pair of the data's domains
        monkeypatch.setattr("heteroembed.cli.train", lambda *a, **k: pytest.fail("trained"))
        cfg = write(tmp_path / "run.cfg", SMALL_RUN + line + "\n")
        code, out, err = run_main(["train", "--config", cfg, "--data", small_manifest, "--out", tmp_path / "n.ckpt"])
        key = line.partition("=")[0]
        assert (code, out, err) == (2, "", f"error: unknown config key {key!r}\n")
        assert not (tmp_path / "n.ckpt").exists()

    @pytest.mark.parametrize(
        "argv,key",
        [("synth --config {cfg} --out {tmp}/d.hem", "synth.seed"),
         ("train --config {cfg} --data {data} --out {tmp}/n.ckpt", "seed"),
         ("compare --config {cfg} --data {data}", "seed")],
    )
    def test_negative_seed_key(self, tmp_path, small_manifest, monkeypatch, argv, key):
        for name in ("generate_synthetic", "train", "run_compare"):
            monkeypatch.setattr(f"heteroembed.cli.{name}", lambda *a, **k: pytest.fail("ran"))
        cfg = write(tmp_path / "run.cfg", SMALL_RUN + f"{key}=-4\n")
        code, out, err = run_main(argv.format(tmp=tmp_path, cfg=cfg, data=small_manifest).split())
        assert (code, out, err) == (2, "", "error: seed must be >= 0, got -4\n")
        assert not (tmp_path / "d.hem").exists() and not (tmp_path / "n.ckpt").exists()

    @pytest.mark.parametrize("value", ["+4", " 4", "4 ", "1_0", "\u0664", "", "-4"])
    @pytest.mark.parametrize(
        "argv",
        ["synth --out {tmp}/d.hem",
         "train --config {cfg} --data {data} --out {tmp}/n.ckpt",
         "eval --checkpoint {ckpt} --config {cfg} --data {data}",
         "compare --config {cfg} --data {data}"],
    )
    def test_seed_option(self, tmp_path, small_manifest, monkeypatch, argv, value):
        for name in ("generate_synthetic", "train", "run_compare", "evaluate_enroll_probe"):
            monkeypatch.setattr(f"heteroembed.cli.{name}", lambda *a, **k: pytest.fail("ran"))
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0), ckpt)
        paths = dict(tmp=tmp_path, cfg=write(tmp_path / "run.cfg", SMALL_RUN), data=small_manifest, ckpt=ckpt)
        code, out, err = run_main(argv.format(**paths).split() + ["--seed", value])
        assert code == 2 and out == ""
        if value == "-4":  # an integer: the config's seed check refuses it
            assert err == "error: seed must be >= 0, got -4\n"
        else:
            assert err.startswith("error: ") and err.count("\n") == 1 and "--seed" in err

    @pytest.mark.parametrize("dim", ["+4", " 4", "4 ", "1_0", "\u0664"])
    def test_manifest_dim(self, tmp_path, small_manifest, monkeypatch, dim):
        monkeypatch.setattr("heteroembed.cli.train", lambda *a, **k: pytest.fail("trained"))
        header, body = small_manifest.read_text().split("\n", 1)
        data = tmp_path / "edited.hem"
        data.write_text(header.replace("dim=4", f"dim={dim}") + "\n" + body, encoding="utf-8")
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        code, out, err = run_main(["train", "--config", cfg, "--data", data, "--out", tmp_path / "n.ckpt"])
        assert code == 2
        assert_one_outcome(code, out, err)
        assert "bad dim in header" in err


class TestSynth:
    def test_default_line_count(self, tmp_path, capsys):
        out = tmp_path / "d.hem"
        assert main(["synth", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2001  # header + 50*20*2
        assert "samples=2000" in capsys.readouterr().out

    def test_tiny(self, tmp_path):
        cfg = write(
            tmp_path / "c.cfg",
            "synth.n_identities=2\nsynth.samples_per_identity_per_domain=1\n",
        )
        out = tmp_path / "d.hem"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_seed_option_overrides_config(self, tmp_path):
        by_option, by_config = tmp_path / "a.hem", tmp_path / "b.hem"
        cfg = write(tmp_path / "c.cfg", SMALL_SYNTH)
        assert main(["synth", "--config", cfg, "--out", str(by_option), "--seed", "7"]) == 0
        cfg = write(tmp_path / "c.cfg", SMALL_SYNTH.replace("synth.seed=1", "synth.seed=7"))
        assert main(["synth", "--config", cfg, "--out", str(by_config)]) == 0
        assert by_option.read_bytes() == by_config.read_bytes()

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "synth.bogus_knob=1\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d.hem")]) == 2
        assert "synth.bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line,message",
        [("synth.rotation_angle_degrees=nan", "rotation_angle_degrees must be finite"),
         ("synth.offset_magnitude=inf", "offset_magnitude must be finite"),
         ("synth.noise_scale=nan", "noise_scale must be finite"),
         ("synth.cluster_spread=1e308", "synthetic features overflow")],
    )
    def test_non_finite_or_overflowing_setting_exit_2(self, tmp_path, line, message):
        cfg = write(tmp_path / "c.cfg", SMALL_SYNTH + line + "\n")
        code, out, err = run_main(["synth", "--config", cfg, "--out", tmp_path / "d.hem"])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "d.hem").exists()


class TestTrain:
    def test_end_to_end(self, tmp_path, small_manifest):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        assert main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert (tmp_path / "net.ckpt.log.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, small_manifest):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        outs = []
        for name in ("a", "b"):
            ckpt = tmp_path / f"{name}.ckpt"
            log = tmp_path / f"{name}.log.csv"
            assert main([
                "train", "--config", cfg, "--data", str(small_manifest),
                "--out", str(ckpt), "--log-out", str(log),
            ]) == 0
            outs.append((ckpt.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1]

    def test_zero_epochs_is_init(self, tmp_path, small_manifest):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN.replace("epochs=2", "epochs=0"))
        ckpt = tmp_path / "net.ckpt"
        assert main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)]) == 0
        from heteroembed.net import load_checkpoint

        net = load_checkpoint(ckpt)
        init = init_net(net.config, 3)
        assert np.array_equal(net.params, init.params)

    def test_infeasible_data_exit_3(self, tmp_path):
        # single identity: the sampler cannot build any tuple
        data = tmp_path / "one.hem"
        data.write_text(
            "HETERO-EMBED-DATA v1 dim=2\n"
            "x,A,0 0\nx,A,1 1\nx,B,2 2\nx,B,3 3\n"
            "y,A,4 4\ny,A,5 5\ny,B,6 6\ny,B,7 7\n"
        )
        cfg = write(tmp_path / "run.cfg", "epochs=1\ntuples_per_epoch=5\nsplit.train_fraction=0.5\n")
        # train split keeps one identity only -> infeasible
        assert main(["train", "--config", cfg, "--data", str(data), "--out", str(tmp_path / "n.ckpt")]) == 3

    def test_runaway_learning_rate_exit_4(self, tmp_path, small_manifest, capsys):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN + "optimizer.learning_rate=1e300\n")
        ckpt = tmp_path / "net.ckpt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would add lines to stderr
            assert main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite") and err.count("\n") == 1
        assert not ckpt.exists()


class TestEval:
    def test_identity_net_perfect(self, tmp_path):
        # well-separated 2-d toy data and an identity-weight network
        lines = ["HETERO-EMBED-DATA v1 dim=2"]
        for i, ident in enumerate(["a", "b", "c", "d"]):
            for j in range(4):
                lines.append(f"{ident},A,{10 * i + j * 0.01} 0")
                lines.append(f"{ident},B,{10 * i + j * 0.01} 0.1")
        data = tmp_path / "toy.hem"
        data.write_text("".join(l + "\n" for l in lines))
        net = init_net(NetConfig(input_dim=2, hidden_dims=(), embed_dim=2, normalize_output=False), 0)
        net.weights[0][...] = np.eye(2)
        ckpt = tmp_path / "id.ckpt"
        save_checkpoint(net, ckpt)
        cfg = write(tmp_path / "run.cfg", "split.train_fraction=0.5\nsplit.enroll_per_identity=2\n")
        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(["eval", "--checkpoint", str(ckpt), "--config", cfg, "--data", str(data)])
        assert code == 0
        out = dict(l.split("=") for l in buf.getvalue().splitlines())
        assert float(out["rank1"]) == 1.0
        assert float(out["eer"]) == 0.0
        assert float(out["gar@0.001"]) == 1.0

    def test_report_values_order(self):
        ident = IdentReport(rank_accuracies=np.array([0.5, 1.0]))
        verif = VerificationReport(eer=0.25, gar_at={0.1: 0.75, 0.001: 0.5})
        assert list(report_values(ident, verif).items()) == [
            ("rank1", 0.5), ("eer", 0.25), ("gar@0.001", 0.5), ("gar@0.1", 0.75)]

    def test_reports_reproducible(self, tmp_path, small_manifest, capsys):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)])
        capsys.readouterr()
        outputs = []
        for name in ("r1", "r2"):
            roc_out = tmp_path / f"{name}.roc.csv"
            cmc_out = tmp_path / f"{name}.cmc.csv"
            assert main([
                "eval", "--checkpoint", str(ckpt), "--config", cfg,
                "--data", str(small_manifest),
                "--roc-out", str(roc_out), "--cmc-out", str(cmc_out),
            ]) == 0
            outputs.append((capsys.readouterr().out, roc_out.read_bytes(), cmc_out.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("gallery,probe", [("A", "B"), ("B", "A")])
    def test_empty_side_is_refused(self, gallery, probe):
        from heteroembed.cli import evaluate_cross_domain
        from heteroembed.data import Dataset, Sample

        samples = [Sample(0, "a", "A", np.zeros(2)), Sample(1, "b", "A", np.ones(2))]
        net = init_net(NetConfig(input_dim=2, embed_dim=2), 0)
        with pytest.raises(ValueError, match="must be nonempty"):
            evaluate_cross_domain(net, Dataset(samples=samples, feature_dim=2), gallery, probe)

    def test_one_identity_test_split_refused_before_embedding(self, tmp_path, monkeypatch):
        # two identities and train_fraction 0.8: one identity trains, the other is the test split
        data = tmp_path / "two.hem"
        cfg = write(tmp_path / "synth.cfg", SMALL_SYNTH.replace("n_identities=6", "n_identities=2"))
        assert run_main(["synth", "--config", cfg, "--out", data])[0] == 0
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0), ckpt)
        monkeypatch.setattr("heteroembed.cli.embed_dataset", lambda *a, **k: pytest.fail("embedded"))
        roc_out = tmp_path / "roc.csv"
        code, out, err = run_main(["eval", "--checkpoint", ckpt, "--data", data, "--roc-out", roc_out])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: the gallery holds one identity, 'id00[01]': no impostor pair\n", err)
        assert not roc_out.exists()

    def test_dim_mismatch_exit_5(self, tmp_path, small_manifest):
        net = init_net(NetConfig(input_dim=7, embed_dim=4), 0)
        ckpt = tmp_path / "wrong.ckpt"
        save_checkpoint(net, ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(small_manifest)]) == 5

    def test_roc_out_writes_the_curve_the_report_used(self, tmp_path, small_manifest, capsys, monkeypatch):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)])
        capsys.readouterr()
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for module, name in [("heteroembed.cli", "verification_scores"), ("heteroembed.metrics", "roc")]:
            monkeypatch.setattr(f"{module}.{name}", counted(name, getattr(importlib.import_module(module), name)))
        roc_out = tmp_path / "roc.csv"
        argv = ["eval", "--checkpoint", str(ckpt), "--config", cfg, "--data", str(small_manifest)]
        assert main(argv + ["--roc-out", str(roc_out)]) == 0
        assert calls == ["verification_scores", "roc"]
        lines = roc_out.read_text().splitlines()
        assert lines[0] == "far,gar,threshold" and lines[1].endswith(",-inf") and lines[-1] == "1,1,inf"
        with_roc = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == with_roc

    @pytest.mark.parametrize("writer", ["heteroembed.metrics.write_roc_csv", "heteroembed.cli.write_cmc_csv"])
    def test_failed_curve_write_prints_no_report(self, tmp_path, small_manifest, monkeypatch, writer):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        assert run_main(["train", "--config", cfg, "--data", small_manifest, "--out", ckpt])[0] == 0

        def refuse(*args):
            raise OSError("disk full")

        monkeypatch.setattr(writer, refuse)
        code, out, err = run_main(["eval", "--checkpoint", ckpt, "--config", cfg, "--data", small_manifest,
                                   "--roc-out", tmp_path / "roc.csv", "--cmc-out", tmp_path / "cmc.csv"])
        assert (code, out, err) == (2, "", "error: disk full\n")

    def test_cross_domain_memory_per_pair(self):
        # Evaluation keeps the distance matrix plus the sorted genuine and
        # impostor scores: about 16 bytes per probe x gallery pair.
        import tracemalloc

        from heteroembed.cli import evaluate_cross_domain
        from heteroembed.data import Dataset, Sample

        rng = np.random.default_rng(0)
        samples = []
        for domain in "AB":
            for i in range(100):
                for _ in range(10):
                    samples.append(Sample(len(samples), f"id{i}", domain, rng.standard_normal(4)))
        dataset = Dataset(samples=samples, feature_dim=4)
        net = init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0)
        tracemalloc.start()
        try:
            ident, verif, dist, _, _ = evaluate_cross_domain(net, dataset, "A", "B")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.shape == (1000, 1000) and 0.0 <= verif.eer <= 1.0
        assert peak <= 24 * dist.size, f"{peak / dist.size:.1f} bytes per pair"

    def test_curve_csv_headers(self, tmp_path, small_manifest, capsys):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        main(["train", "--config", cfg, "--data", str(small_manifest), "--out", str(ckpt)])
        roc_out = tmp_path / "roc.csv"
        cmc_out = tmp_path / "cmc.csv"
        main([
            "eval", "--checkpoint", str(ckpt), "--config", cfg,
            "--data", str(small_manifest), "--roc-out", str(roc_out), "--cmc-out", str(cmc_out),
        ])
        assert roc_out.read_text().splitlines()[0] == "far,gar,threshold"
        assert cmc_out.read_text().splitlines()[0] == "rank,accuracy"


def run_main(argv):
    """(exit code, stdout, stderr) of one CLI call; a numpy warning is an error."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """A small 4-dim manifest and a run config, shared by the checkpoint text tests."""
    tmp = tmp_path_factory.mktemp("eval_inputs")
    data = tmp / "data.hem"
    assert run_main(["synth", "--config", write(tmp / "synth.cfg", SMALL_SYNTH), "--out", data])[0] == 0
    return data, write(tmp / "run.cfg", SMALL_RUN)


def eval_checkpoint_text(eval_inputs, text):
    data, cfg = eval_inputs
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "net.ckpt"
        ckpt.write_bytes(text.encode("utf-8"))
        return run_main(["eval", "--checkpoint", ckpt, "--config", cfg, "--data", data])


def assert_one_outcome(code, out, err):
    """Success prints the report; failure prints one error line and nothing else."""
    assert code in (0, 2, 4, 5)
    if code == 0:
        assert err == "" and out.startswith("rank1=")
    else:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def checkpoint_lines(net_config=NetConfig(input_dim=4, hidden_dims=(3,), embed_dim=2), scale=1.0):
    net = init_net(net_config, 0)
    for w in net.weights:
        w *= scale
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(net, Path(tmp) / "net.ckpt")
        return (Path(tmp) / "net.ckpt").read_text().splitlines()


class TestCheckpointText:
    """Malformed checkpoint text: exit 2 and one error line naming the file."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda ls: ls[:6] + ["layer0.weight"] + ls[7:],
            lambda ls: ls[:7] + ["layer0.bias"] + ls[8:],
            lambda ls: ls[:6] + ["layer0.weight three 4 " + " ".join(ls[6].split()[3:])] + ls[7:],
            lambda ls: [l.replace("normalize_output=true", "normalize_output=1") for l in ls],
            lambda ls: ls[:6] + ["dropout=0.5"] + ls[6:],
            lambda ls: [ls[0], ls[2], ls[1], *ls[3:]],  # a reordered header
            lambda ls: ls[:7] + [""] + ls[7:],  # a blank line among the tensors
            *[lambda ls, v=v: [l.replace("input_dim=4", f"input_dim={v}") for l in ls]
              for v in ("+4", " 4", "1_0", "\u0664")],
            *[lambda ls, v=v: [l.replace("hidden_dims=3", f"hidden_dims={v}") for l in ls]
              for v in ("3,,", "3,,3")],
            *[lambda ls, v=v: ls[:6] + [ls[6].replace("weight 3 4", v)] + ls[7:]
              for v in ("weight 3 +4", "weight \u0663 4", "weight 0_3 4")],
        ],
    )
    def test_exit_2_one_line(self, eval_inputs, edit):
        code, out, err = eval_checkpoint_text(eval_inputs, "\n".join(edit(checkpoint_lines())) + "\n")
        assert code == 2
        assert_one_outcome(code, out, err)
        assert "net.ckpt: " in err

    def test_shape_disagreeing_with_header_exit_5(self, eval_inputs):
        lines = checkpoint_lines()
        lines[6] = lines[6].replace("layer0.weight 3 4 ", "layer0.weight 4 3 ")
        code, out, err = eval_checkpoint_text(eval_inputs, "\n".join(lines) + "\n")
        assert code == 5
        assert_one_outcome(code, out, err)
        assert err.endswith("net.ckpt: layer0.weight has shape (4, 3), the header gives (3, 4)\n")

    def test_writer_output_evaluates(self, eval_inputs):
        code, out, err = eval_checkpoint_text(eval_inputs, "\n".join(checkpoint_lines()) + "\n")
        assert code == 0
        assert_one_outcome(code, out, err)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_overflowing_network_exit_4(self, eval_inputs, normalize):
        config = NetConfig(input_dim=4, hidden_dims=(3,), embed_dim=2, normalize_output=normalize)
        code, out, err = eval_checkpoint_text(
            eval_inputs, "\n".join(checkpoint_lines(config, scale=1e300)) + "\n"
        )
        assert code == 4
        assert_one_outcome(code, out, err)
        assert "non-finite embedding distance" in err


BAD_MAGICS = ["", "HETERO-EMBED-NET v2", CHECKPOINT_MAGIC + " ", CHECKPOINT_MAGIC.lower()]
BAD_KEYS = ["extra", "input dim", "", "Input_dim", "hidden_dim", "embed_dim", "layer0.weight"]
BAD_VALUES = ["", "x", "0", "-2", "2.5", "1_0", "+4", " 4", "\u0664", "3", "99999999999999999999",
              "yes", "True", "TRUE", "relu", "gelu", "1,,2", ",", "nan"]
BAD_NAMES = ["layer9.weight", "layer0.weights", "foo", ".bias", "layer0.bias", "layer1.weight", "layer-1.bias"]
BAD_INTS = ["", "x", "-1", "0", "2.0", "99999999999999999999", "1_0", "\u0663", "5"]
BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "x", "0x1p3", "--1", "1.2.3", ""]
GOOD_TOKENS = ["0", "-0.5", "1e-3", "7", "1_0", "\u0661.5"]


@st.composite
def checkpoint_texts(draw):
    """Checkpoints like the writer's, each line at risk of one fault.

    Returns the text and, when no fault was put in, the exit codes it may give.
    """
    faults = []

    def fault():
        faults.append(draw(st.integers(0, 39)) == 0)  # true about one time in 40
        return faults[-1]

    input_dim = draw(st.sampled_from([4, 4, 4, 3]))  # the manifest has 4 features
    hidden = draw(st.sampled_from([(), (3,), (2, 3)]))
    header = {
        "input_dim": str(input_dim),
        "hidden_dims": ",".join(str(d) for d in hidden),
        "embed_dim": "2",
        "activation": draw(st.sampled_from(["relu", "tanh"])),
        "normalize_output": draw(st.sampled_from(["true", "false"])),
    }
    lines = [draw(st.sampled_from(BAD_MAGICS)) if fault() else CHECKPOINT_MAGIC]
    head = []
    for key, value in header.items():
        if fault():
            continue  # the line is left out
        key = draw(st.sampled_from(BAD_KEYS)) if fault() else key
        value = draw(st.sampled_from(BAD_VALUES)) if fault() else value
        head.append(f"{key}={value}")
    lines += draw(st.permutations(head)) if fault() else head
    dims = [input_dim, *hidden, 2]
    for i in range(len(dims) - 1):
        for name, shape in ((f"layer{i}.weight", [dims[i + 1], dims[i]]), (f"layer{i}.bias", [dims[i + 1]])):
            name = draw(st.sampled_from(BAD_NAMES)) if fault() else name
            fields = [draw(st.sampled_from(BAD_INTS)) if fault() else str(n) for n in shape]
            count = math.prod(shape) + (draw(st.sampled_from([-1, 1])) if fault() else 0)
            values = [
                draw(st.one_of(st.sampled_from(GOOD_TOKENS),
                               st.floats(allow_nan=False, allow_infinity=False).map(repr)))
                for _ in range(max(count, 0))
            ]
            if values and fault():
                values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            fields += values
            sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
            lines.append(sep.join([name, *fields]))
            if fault():
                lines.append(draw(st.sampled_from(["", "   ", "layer0.weight", "x=1", "layer0.bias 0"])))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if any(faults):
        return text, None
    return text, (0, 4) if input_dim == 4 else (5,)  # a finite network may still overflow


class TestCheckpointProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=checkpoint_texts())
    def test_eval_exits_cleanly(self, eval_inputs, case):
        text, expected = case
        code, out, err = eval_checkpoint_text(eval_inputs, text)
        assert_one_outcome(code, out, err)
        if expected is not None:
            assert code in expected


# The config grammar as README states it, written apart from the CLI's tables:
# key -> (object, field, kind of value).
REFERENCE_KEYS = {
    "net.hidden_dims": ("net", "hidden_dims", "ints"),
    "net.embed_dim": ("net", "embed_dim", "int"),
    "net.activation": ("net", "activation", "str"),
    "net.normalize_output": ("net", "normalize_output", "bool"),
    "margins.alpha1": ("margins", "alpha1", "float"),
    "margins.alpha2": ("margins", "alpha2", "float"),
    "tuple.k": ("tuple", "k", "int"),
    "optimizer.learning_rate": ("train", "learning_rate", "float"),
    "epochs": ("train", "epochs", "int"),
    "tuples_per_epoch": ("train", "tuples_per_epoch", "int"),
    "batch_size": ("train", "batch_size", "int"),
    "seed": ("train", "seed", "int"),
    "loss_mode": ("train", "loss_mode", "str"),
    "split.train_fraction": ("split", "train_fraction", "float"),
    "split.enroll_per_identity": ("split", "enroll_per_identity", "int"),
    "synth.n_identities": ("synth", "n_identities", "int"),
    "synth.samples_per_identity_per_domain": ("synth", "samples_per_identity_per_domain", "int"),
    "synth.feature_dim": ("synth", "feature_dim", "int"),
    "synth.cluster_spread": ("synth", "cluster_spread", "float"),
    "synth.rotation_angle_degrees": ("shift", "rotation_angle_degrees", "float"),
    "synth.offset_magnitude": ("shift", "offset_magnitude", "float"),
    "synth.noise_scale": ("shift", "noise_scale", "float"),
    "synth.seed": ("synth", "seed", "int"),
}


def reference_int(text):
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)


def reference_bool(text):
    return {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}[text.lower()]


REFERENCE_VALUES = {
    "int": reference_int,
    "ints": lambda text: tuple(map(reference_int, text.split(","))) if text else (),
    "float": float,
    "bool": reference_bool,
    "str": str,
}


def reference_objects(text, command):
    """repr of the objects `command` should build from config text, or None if it must refuse it."""
    pairs = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, sep, value = line.partition("=")
            if not sep:
                return None
            pairs[key.strip()] = value.strip()
    if command == "compare":
        pairs = {k: v for k, v in pairs.items() if not k.startswith("synth.")}
        kwargs = {"net": {"hidden_dims": (32,)}, "margins": {}, "tuple": {}, "train": {}, "split": {}}
    else:
        kwargs = {"synth": {}, "shift": {}}
    try:
        for key, value in pairs.items():
            group, name, kind = REFERENCE_KEYS.get(key, ("unknown", None, None))
            if group not in kwargs:
                return None
            kwargs[group][name] = REFERENCE_VALUES[kind](value)
        if command == "synth":
            return repr(SynthConfig(domain_shift=DomainShift(**kwargs["shift"]), **kwargs["synth"]))
        config = TrainConfig(
            net=NetConfig(input_dim=4, **kwargs["net"]), margins=Margins(**kwargs["margins"]),
            tuple_spec=TupleSpec(**kwargs["tuple"]), **kwargs["train"],
        )
        split = SplitConfig(**kwargs["split"])
    except (KeyError, ValueError):
        return None
    return repr((config, split.train_fraction, split.enroll_per_identity))


GOOD_VALUES = {
    "int": ["0", "1", "2", "3", "8", "-1"],
    "ints": ["", "8", "8,4", "3"],
    "float": ["0", "0.5", "1", "1e-3", "0.25", "-0.5"],
    "bool": ["true", "false", "Yes", "0"],
    "str": ["relu", "tanh", "uniform_pair", "fixed", "A", "B", "hetero", "triplet_baseline"],
}
ODD_VALUES = {
    "int": ["+4", " 4", "1_0", "\u0664", "1.0", "0x10", "-", "99999999999999999999"],
    "ints": ["8,,8", ",", "8,", "8, 4", "+8", "8;4"],
    "float": ["nan", "inf", "-inf", "1e400", "1_0", "0x1p3", ".", "1,0"],
    "bool": ["on", "off", "y", "N", "TRUE", "2", ""],
    "str": ["gelu", "RELU", "", "a=b", "x y"],
}
ODD_KEYS = ["bogus", "synth.bogus", "Seed", "net", "seed.", "=", ""]


@st.composite
def config_cases(draw):
    """A command and config text: mostly keys it knows with plausible values, some junk in every part."""
    command = draw(st.sampled_from(["compare", "synth"]))
    keys = [k for k in REFERENCE_KEYS if k.startswith("synth.") == (command == "synth")]
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.integers(0, 9))
        if shape == 0:
            lines.append(draw(st.text(st.characters(exclude_categories=("Cs",)), max_size=12)))
        elif shape == 1:
            lines.append(draw(st.sampled_from(["", "  ", "# seed=x", "  #", "no equals sign"])))
        else:
            key = draw(st.sampled_from(keys) if shape > 3 else st.sampled_from([*REFERENCE_KEYS, *ODD_KEYS]))
            kind = REFERENCE_KEYS.get(key, (None, None, "str"))[2]
            values = GOOD_VALUES[kind] if draw(st.integers(0, 3)) else ODD_VALUES[kind]
            value = draw(st.sampled_from(values) if shape > 2 else st.text(max_size=6))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(f"{pad}{key}{pad}={pad}{value}")
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028"]),
                         min_size=len(lines), max_size=len(lines)))
    return command, "".join(line + end for line, end in zip(lines, ends))


class Built(Exception):
    """Raised in place of the work a command starts once its config is built."""


def stop_with_arguments(*args):
    raise Built(args)


class TestConfigProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=config_cases())
    def test_builds_reference_objects_or_exits_2(self, eval_inputs, case):
        data, _ = eval_inputs
        command, text = case
        expected = reference_objects(text, command)
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(text, encoding="utf-8")
            argv = ["compare", "--data", data] if command == "compare" else ["synth", "--out", Path(tmp) / "d.hem"]
            stub = "run_compare" if command == "compare" else "generate_synthetic"
            with mock.patch(f"heteroembed.cli.{stub}", stop_with_arguments):
                try:
                    code, out, err = run_main([*argv, "--config", cfg])
                except Built as built:
                    args = built.args[0]
                    assert repr(args[1:] if command == "compare" else args[0]) == expected
                    return
        assert expected is None
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBadPaths:
    """A directory where a file is expected: exit 2 and one error line, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            "synth --out {dir}",
            "train --config {cfg} --data {data} --out {dir}",
            "train --config {cfg} --data {data} --out {tmp}/n.ckpt --log-out {dir}",
            "eval --checkpoint {dir} --config {cfg} --data {data}",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --roc-out {dir}",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --cmc-out {dir}",
            "synth --out {tmp}/missing/d.hem",
            "train --config {cfg} --data {data} --out {tmp}/missing/n.ckpt",
            "train --config {cfg} --data {data} --out {tmp}/n.ckpt --log-out {tmp}/missing/l.csv",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --roc-out {tmp}/missing/r.csv",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --cmc-out {tmp}/missing/c.csv",
        ],
    )
    def test_directory_exit_2(self, tmp_path, small_manifest, capsys, argv):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0), ckpt)
        (tmp_path / "a_dir").mkdir()
        paths = dict(dir=tmp_path / "a_dir", cfg=cfg, data=small_manifest, ckpt=ckpt, tmp=tmp_path)
        capsys.readouterr()
        assert main(argv.format(**paths).split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("out,log_out", [("n.ckpt", "a_dir"), ("a_dir", None), ("n.ckpt", None)])
    def test_train_output_checked_before_training(self, tmp_path, small_manifest, monkeypatch, out, log_out):
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "n.ckpt.log.csv").mkdir()  # the default log path of n.ckpt
        monkeypatch.setattr("heteroembed.cli.train", lambda *a, **k: pytest.fail("trained"))
        argv = ["train", "--data", str(small_manifest), "--out", str(tmp_path / out)]
        if log_out:
            argv += ["--log-out", str(tmp_path / log_out)]
        assert main(argv) == 2
        assert not (tmp_path / "n.ckpt").exists()


class TestUndecodableInput:
    """A file holding a byte UTF-8 cannot decode: exit 2, one error line naming the file, nothing written."""

    @pytest.mark.parametrize(
        "argv,bad",
        [
            ("synth --config {bad} --out {tmp}/out", "config"),
            ("train --config {bad} --data {data} --out {tmp}/out", "config"),
            ("train --config {cfg} --data {bad} --out {tmp}/out", "manifest"),
            ("eval --checkpoint {bad} --config {cfg} --data {data} --roc-out {tmp}/out", "checkpoint"),
        ],
    )
    def test_exit_2_naming_the_file(self, tmp_path, small_manifest, argv, bad):
        path = tmp_path / f"bad.{bad}"
        path.write_bytes(b"\xff\n")
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        code, out, err = run_main(argv.format(bad=path, data=small_manifest, cfg=cfg, tmp=tmp_path).split())
        assert (code, out) == (2, "")
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "out").exists()


class TestCollidingPaths:
    """An output that resolves to an input or to another output: exit 2, one error line, nothing written."""

    @pytest.mark.parametrize(
        "argv",
        [
            "train --config {cfg} --data {data} --out {tmp}/X --log-out {tmp}/X",
            "train --config {cfg} --data {data} --out {tmp}/X --log-out {tmp}/sub/../X",
            "train --config {cfg} --data {data} --out {tmp}/X --log-out {tmp}/link",
            "train --config {cfg} --data {data} --out {data}",
            "train --config {cfg} --data {data} --out {cfg}",
            "train --config {cfg} --data {data} --out {tmp}/n --log-out {data}",
            "train --config {cfg} --data {tmp}/n.log.csv --out {tmp}/n",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --roc-out {tmp}/P --cmc-out {tmp}/P",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --roc-out {ckpt}",
            "eval --checkpoint {ckpt} --config {cfg} --data {data} --cmc-out {data}",
            "synth --config {scfg} --out {scfg}",
        ],
    )
    def test_exit_2_nothing_written(self, tmp_path, small_manifest, monkeypatch, argv):
        for name in ("generate_synthetic", "train", "evaluate_enroll_probe"):
            monkeypatch.setattr(f"heteroembed.cli.{name}", lambda *a, **k: pytest.fail("ran"))
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(init_net(NetConfig(input_dim=4, hidden_dims=(8,), embed_dim=4), 0), ckpt)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "X")
        (tmp_path / "n.log.csv").write_bytes(small_manifest.read_bytes())
        paths = dict(tmp=tmp_path, cfg=write(tmp_path / "run.cfg", SMALL_RUN),
                     scfg=write(tmp_path / "synth.cfg", SMALL_SYNTH), data=small_manifest, ckpt=ckpt)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        code, out, err = run_main(argv.format(**paths).split())
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "names the same file as" in err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestCompare:
    def test_reports_and_determinism(self, tmp_path, small_manifest, capsys):
        cfg = write(tmp_path / "run.cfg", SMALL_RUN)
        runs = []
        for _ in range(2):
            assert main(["compare", "--config", cfg, "--data", str(small_manifest)]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        keys = {line.split("=")[0] for line in runs[0].splitlines()}
        for prefix in ("baseline", "hetero"):
            for metric in ("rank1", "eer", "cross_rank1", "gar@0.001", "gar@0.1"):
                assert f"{prefix}.{metric}" in keys
        assert "delta.rank1" in keys

    @pytest.mark.parametrize(
        "n_ids,per,drop,overrides,seed,message",
        [
            # too few samples per identity to enroll 6 and keep a probe
            (10, 3, None, "split.enroll_per_identity=6", None,
             "identity 'id001' has 6 samples, needs at least 7"),
            # domain B only for id000 and id001, both drawn into training
            (10, 3, ("B", range(2, 10)), "split.train_fraction=0.5\nsplit.enroll_per_identity=1", "1",
             "cross-domain protocol: the test split has no sample in domain 'B'"),
            # test identity id000 has no domain A sample for the gallery
            (20, 5, ("A", range(3)), "split.train_fraction=0.5", "3",
             "probe identity 'id000' has no sample in gallery domain 'A'"),
            # one test identity: every pair is genuine
            (4, 3, None, "split.train_fraction=0.75\nsplit.enroll_per_identity=1", None,
             "gallery domain 'A' holds one identity, 'id000': no impostor pair"),
        ],
        ids=["too_few_to_enroll", "no_test_sample_in_B", "probe_missing_from_gallery", "one_test_identity"],
    )
    def test_unscorable_test_split_refused_before_training(
        self, tmp_path, monkeypatch, n_ids, per, drop, overrides, seed, message
    ):
        from heteroembed.data import Dataset, generate_synthetic, save_manifest

        full = generate_synthetic(SynthConfig(n_identities=n_ids, samples_per_identity_per_domain=per,
                                              feature_dim=4))
        domain, dropped = drop or (None, ())
        absent = {f"id{i:03d}" for i in dropped}
        samples = [s for s in full.samples if not (s.domain == domain and s.identity in absent)]
        data = tmp_path / "data.hem"
        save_manifest(Dataset(samples=samples, feature_dim=4), data)
        monkeypatch.setattr("heteroembed.cli.train", lambda *a, **k: pytest.fail("trained"))
        cfg = write(tmp_path / "run.cfg", f"epochs=1\ntuples_per_epoch=20\n{overrides}\n")
        code, out, err = run_main(["compare", "--config", cfg, "--data", data] + (["--seed", seed] if seed else []))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_manifest_round_trip_via_cli(tmp_path, small_manifest):
    ds = load_manifest(small_manifest)
    from heteroembed.data import save_manifest

    again = tmp_path / "again.hem"
    save_manifest(ds, again)
    assert again.read_bytes() == small_manifest.read_bytes()


def test_readme_config_block_matches_cli_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config files", 1)[1].split("```", 2)[1]
    config, train_fraction, enroll = run_config_from({}, 16)
    synth = synth_config_from({})
    effective = {
        "NetConfig": config.net, "Margins": config.margins, "TupleSpec": config.tuple_spec,
        "TrainConfig": config, "SplitConfig": SplitConfig(train_fraction, enroll),
        "SynthConfig": synth, "DomainShift": synth.domain_shift,
    }
    schema = {**RUN_KEYS, **SYNTH_KEYS}
    documented = []
    for line in block.splitlines():
        key, _, raw = line.split("#", 1)[0].strip().partition("=")
        if not key:
            continue
        assert key in schema, key
        cls, name, parse = schema[key]
        assert parse(raw) == getattr(effective[cls.__name__], name), key
        documented.append(key)
    assert sorted(documented) == sorted(schema)


class TestAsAProcess:
    """`python -m heteroembed.cli` in a child process: its exit code and every stderr line."""

    @staticmethod
    def run_cli(*argv):
        src = Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "heteroembed.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def test_exit_codes_and_stderr(self, tmp_path):
        data = tmp_path / "d.hem"
        code, out, err = self.run_cli("synth", "--config", write(tmp_path / "s.cfg", SMALL_SYNTH), "--out", data)
        assert (code, out, err) == (0, "samples=60\nidentities=6\ndomains=2\n", "")

        cfg = write(tmp_path / "bad.cfg", "synth.bogus_knob=1\n")
        code, out, err = self.run_cli("synth", "--config", cfg, "--out", tmp_path / "e.hem")
        assert (code, out, err) == (2, "", "error: unknown config key 'synth.bogus_knob'\n")

        bad = tmp_path / "bad.hem"
        bad.write_bytes(b"\xff" + data.read_bytes())
        code, out, err = self.run_cli("train", "--data", bad, "--out", tmp_path / "n.ckpt")
        assert (code, out, err) == (2, "", f"error: {bad}: not UTF-8 text (invalid start byte)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg", "bad.hem", "d.hem", "s.cfg"]
