#!/bin/sh
# Runs synth, train, eval and compare with one small config file, a train with
# a tuple.k above every group's size, a synth and a train under --seed, a synth
# whose features print in exponent notation, a train and an eval of a network
# without output normalization, then a train the manifest reader refuses, a
# synth with an empty --config and a train with --seed -4, and writes their
# nineteen outputs (listed in the workflow's CLI_OUTPUTS) into DIR, which must
# not exist yet. SRC is the directory that holds the heteroembed package.
# Usage: sh .github/cli-outputs.sh SRC DIR
set -eu
export PYTHONPATH="$(cd "$1" && pwd)"
mkdir "$2"
cd "$2"  # relative paths: train prints the paths it wrote
# one config file for all four commands: each reads its own keys and skips the others
printf '%s\n' synth.n_identities=12 synth.samples_per_identity_per_domain=4 synth.feature_dim=6 \
  net.hidden_dims=8 net.embed_dim=4 epochs=2 tuples_per_epoch=40 batch_size=8 \
  split.enroll_per_identity=2 > run.cfg
python3 -m heteroembed.cli synth --config run.cfg --out data.hem > synth.out
python3 -m heteroembed.cli train --config run.cfg --data data.hem --out net.ckpt \
  --log-out train.log.csv > train.out
python3 -m heteroembed.cli eval --checkpoint net.ckpt --config run.cfg --data data.hem \
  --roc-out roc.csv --cmc-out cmc.csv > eval.out
python3 -m heteroembed.cli compare --config run.cfg --data data.hem > compare.out
# 4 samples per group: tuple.k=4096 draws what the default k=4 draws, so
# wide.ckpt and wide.log.csv equal net.ckpt and train.log.csv
{ cat run.cfg; echo tuple.k=4096; } > wide.cfg
python3 -m heteroembed.cli train --config wide.cfg --data data.hem --out wide.ckpt \
  --log-out wide.log.csv > /dev/null
# --seed replaces the config file's seed
python3 -m heteroembed.cli synth --config run.cfg --seed 3 --out seed.hem > /dev/null
python3 -m heteroembed.cli train --config run.cfg --seed 5 --data data.hem --out seed.ckpt \
  --log-out seed.log.csv > /dev/null
# domain B offset by 1e20: its features leave [1e-4, 1e16), where %.17g switches
# to exponent notation
{ cat run.cfg; echo synth.offset_magnitude=1e20; } > far.cfg
python3 -m heteroembed.cli synth --config far.cfg --out far.hem > /dev/null
# no output normalization: embeddings off the unit sphere, where the distance
# matrix's rounding is largest
{ cat run.cfg; echo net.normalize_output=false; } > raw.cfg
python3 -m heteroembed.cli train --config raw.cfg --data data.hem --out raw.ckpt \
  --log-out raw.log.csv > /dev/null
python3 -m heteroembed.cli eval --checkpoint raw.ckpt --config raw.cfg --data data.hem > raw.eval.out
# data.hem with the last line's first feature spelled x: the exit code and the
# error line go to refusal.out, and the failing command does not stop the script
sed '$ s/,[^, ]* /,x /' data.hem > bad.hem
{ python3 -m heteroembed.cli train --config run.cfg --data bad.hem --out bad.ckpt 2>&1 >/dev/null \
  && echo "exit 0" || echo "exit $?"; } > refusal.out
# an empty --config is a path that cannot be opened, not a missing option
{ python3 -m heteroembed.cli synth --config '' --out empty.hem 2>&1 >/dev/null \
  && echo "exit 0" || echo "exit $?"; } >> refusal.out
# a --seed the config's seed check refuses
{ python3 -m heteroembed.cli train --config run.cfg --seed -4 --data data.hem --out neg.ckpt 2>&1 >/dev/null \
  && echo "exit 0" || echo "exit $?"; } >> refusal.out
