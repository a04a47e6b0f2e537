#!/usr/bin/env bash
# Byte-identical reruns across processes: runs every artifact-writing command
# under PYTHONHASHSEED 1 and then 2, each into its own directory under OUT_DIR,
# and fails unless `diff -r` finds the two trees equal.
#
# A set iterated in hash order would write different bytes under another
# PYTHONHASHSEED; within one process the tests cannot see it. The horizon list
# and the alpha sweep call fit several times in one process, so state one fit
# leaves behind would show there too. Every command that trains or counts at
# the first horizon joins the diff, and a tiny config with dropout 0.1 covers
# the dropout path, whose masks and rebuilt activations the --tiny preset never
# records. `synth` with noise covers the noise substream, and `export-spectra
# --checkpoint` the checkpoint load. A new command that writes artifacts
# belongs in this list.
#
# usage: .github/rerun_diff.sh OUT_DIR   (from the repository root)
set -euo pipefail

out_dir=${1:?usage: $0 OUT_DIR}
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
for seed in 1 2; do
  out="$out_dir/rerun-$seed"
  export PYTHONHASHSEED=$seed
  python -m spectral_forecaster.cli run --tiny --out "$out/run"
  python -m spectral_forecaster.cli run --tiny --horizon 8,12 --out "$out/horizons"
  python -m spectral_forecaster.cli ablate-alpha --tiny --out "$out/alpha"
  python -m spectral_forecaster.cli ablate-layers --tiny --attention-blocks 0,1 --out "$out/layers"
  python -m spectral_forecaster.cli ablate-placement --tiny --out "$out/placement"
  python -m spectral_forecaster.cli export-spectra --tiny --out "$out/spectra"
  python -m spectral_forecaster.cli param-count --tiny > "$out/param_count.json"
  python -m spectral_forecaster.cli run --config tests/fixtures/tiny_dropout.yaml --out "$out/dropout"
  printf '{"length": 400, "noise": 0.3}\n' > "$out/noise_spec.json"
  python -m spectral_forecaster.cli synth --spec "$out/noise_spec.json" --seed 3 --out "$out/synth_noise.csv"
  python -m spectral_forecaster.cli export-spectra --tiny --checkpoint "$out/run/tiny_h8.ckpt" \
    --out "$out/spectra_ckpt"
done
diff -r "$out_dir/rerun-1" "$out_dir/rerun-2"
