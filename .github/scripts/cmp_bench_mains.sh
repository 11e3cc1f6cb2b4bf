#!/usr/bin/env bash
# Compare the standard output of the deterministic bench mains between
# <base-rev> and the working tree.
#
#   .github/scripts/cmp_bench_mains.sh <base-rev>
#
# <base-rev> is checked out in a git worktree under target/ and built
# there. Both trees run the same 19 bench mains at CI scale
# (CLOUDFOG_SCALE=0.02 CLOUDFOG_SECS=10 CLOUDFOG_REPS=1), where their
# stdout is a pure function of the simulated runs; `micro` and
# `harness_scaling` print wall times and are left out. Each main's stdout
# is written to target/cmp-bench-mains/{base,head}/<bench>.txt and the two
# are compared with `cmp`. Exits 1 if any main failed or printed
# differently, 0 if all 19 are byte-identical.
set -euo pipefail

base=${1:?usage: cmp_bench_mains.sh <base-rev>}
root=$(git rev-parse --show-toplevel)
cd "$root"

benches=(
  ablation_backups ablation_coop ablation_decay ablation_hysteresis
  ablation_up_probe chaos_resilience econ_model fig10_rate_adaptation
  fig11_buffer_scheduling fig2_quality_table
  fig5a_coverage_datacenters_sim fig5b_coverage_supernodes_sim
  fig6a_coverage_datacenters_plab fig6b_coverage_supernodes_plab
  fig7_bandwidth fig8_response_latency fig9_continuity genre_qoe
  latency_cdf
)

tree="$root/target/cmp-base"
out="$root/target/cmp-bench-mains"
rm -rf "$out"
mkdir -p "$out/base" "$out/head"
if [ -e "$tree" ]; then
  git worktree remove --force "$tree"
fi
git worktree add --detach "$tree" "$base"
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

export CLOUDFOG_SCALE=0.02 CLOUDFOG_SECS=10 CLOUDFOG_REPS=1
run_side() {
  local dir=$1 side=$2
  for bench in "${benches[@]}"; do
    (cd "$dir" && cargo bench -q -p cloudfog-bench --bench "$bench") > "$out/$side/$bench.txt"
  done
}
run_side "$tree" base
run_side "$root" head

status=0
for bench in "${benches[@]}"; do
  if cmp "$out/base/$bench.txt" "$out/head/$bench.txt"; then
    echo "identical: $bench"
  else
    status=1
  fi
done
exit $status
