#!/bin/bash
# Regenerates every table and figure of the paper. Outputs land in results/:
# results/<bin>.txt holds a bin's stdout, results/<bin>.log its stderr under
# a header naming the commit and the bin's wall time.
# Build first: cargo build --release -p amdgcnn-bench
set -u
cd "$(dirname "$0")"
COMMIT=$(git describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)

run() {
  local bin=$1
  shift
  echo "=== $bin${*:+ $*} ($(date +%H:%M:%S)) ==="
  local start=$SECONDS status=0
  ./target/release/"$bin" "$@" > results/"$bin".txt 2> results/"$bin".log.tmp || status=$?
  {
    echo "commit: $COMMIT"
    echo "wall_s: $((SECONDS - start))"
    if [ "$status" -ne 0 ]; then echo "exit: $status"; fi
    cat results/"$bin".log.tmp
  } > results/"$bin".log
  rm -f results/"$bin".log.tmp
  if [ "$status" -ne 0 ]; then echo "FAILED: $bin"; fi
}

BINS="table2_datasets table3_accuracy fig3_cora_epochs fig4_primekg_epochs fig5_biokg_epochs fig6_wn18_epochs fig7_primekg_samples fig8_biokg_samples fig9_wn18_samples ablation_edge_attrs ablation_subgraph_mode baseline_heuristics baseline_rgcn"
for bin in $BINS; do
  run "$bin"
done
# Table I: autotune on wn18 with a budget of 8 trials.
run table1_autotune wn18 8
echo "ALL_DONE ($(date +%H:%M:%S))"
