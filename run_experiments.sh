#!/usr/bin/env bash
# Regenerates every table and figure from the paper (see EXPERIMENTS.md).
# Outputs are written to target/experiment-logs/.
set -euo pipefail
mkdir -p target/experiment-logs
bins=(
  fig5_size_dist fig6_burstiness fig7_distill_latency fig8_self_tuning
  table1_comparison table2_scalability cache_perf manager_capacity
  san_saturation hotbot_degradation ablation_stale_lb economics
)
for b in "${bins[@]}"; do
  echo "== $b"
  cargo run -q -p sns-bench --release --bin "$b" | tee "target/experiment-logs/$b.txt"
done
