#!/bin/sh
# Runs synth, train, eval and compare with one small config file, then a train
# the manifest reader refuses, and writes their ten outputs (listed in the
# workflow's CLI_OUTPUTS) into DIR, which must not exist yet. SRC is the
# directory that holds the heteroembed package.
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
# data.hem with the last line's first feature spelled x: the exit code and the
# error line go to refusal.out, and the failing command does not stop the script
sed '$ s/,[^, ]* /,x /' data.hem > bad.hem
{ python3 -m heteroembed.cli train --config run.cfg --data bad.hem --out bad.ckpt 2>&1 >/dev/null \
  && echo "exit 0" || echo "exit $?"; } > refusal.out
