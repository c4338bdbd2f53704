import warnings

import numpy as np
import pytest

from heteroembed.cli import main, parse_config_file
from heteroembed.data import load_manifest
from heteroembed.net import NetConfig, init_net, save_checkpoint


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

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg", "synth.bogus_knob=1\n")
        assert main(["synth", "--config", cfg, "--out", str(tmp_path / "d.hem")]) == 2
        assert "synth.bogus_knob" in capsys.readouterr().err


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
        for a, b in zip(net.params(), init.params()):
            assert np.array_equal(a, b)

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
        net.weights[0] = np.eye(2)
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

    def test_dim_mismatch_exit_5(self, tmp_path, small_manifest):
        net = init_net(NetConfig(input_dim=7, embed_dim=4), 0)
        ckpt = tmp_path / "wrong.ckpt"
        save_checkpoint(net, ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(small_manifest)]) == 5

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


def test_manifest_round_trip_via_cli(tmp_path, small_manifest):
    ds = load_manifest(small_manifest)
    from heteroembed.data import save_manifest

    again = tmp_path / "again.hem"
    save_manifest(ds, again)
    assert again.read_bytes() == small_manifest.read_bytes()
