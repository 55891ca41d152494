#!/usr/bin/env bash
# Regenerate every checked-in deterministic baseline in one command:
#
#   ci/smoke-counters.txt   probe/span/series counters of the smoke run
#   ci/faults-digest.txt    fault-matrix probe digest at the default seed
#   ci/series-digest.txt    series digests of the partition, reconfig-cut
#                           and eventual-partition runs, one line each
#   ci/plan-default.txt     saturn-cli plan's default Algorithm-3 solve
#   ci/lint-waivers.txt     saturn-lint waiver inventory (the ratchet)
#   BENCH_smoke.json        smoke-run headline numbers (saturn-bench-smoke/1)
#   BENCH_engine.json       per-tier engine speed (saturn-bench-engine/1)
#   BENCH_shootout.json     per-system visibility + metadata bytes/op
#                           (saturn-bench-shootout/1)
#
# Run this after any change that legitimately shifts the gated numbers
# (new instrumentation, different event batching, a workload change) and
# commit the diff together with the change that caused it — the diff IS
# the reviewable statement of what moved.
set -euo pipefail
cd "$(dirname "$0")/.."

# --lint-baseline: refresh only the lint waiver inventory. Adding or
# removing a (* lint: allow ... *) comment fails `dune build @lint` until
# this file moves with it — the diff is the reviewable statement that the
# waiver set changed on purpose.
if [[ "${1:-}" == "--lint-baseline" ]]; then
  dune build bin/saturn_lint.exe
  dune exec bin/saturn_lint.exe -- --root . --waivers-out ci/lint-waivers.txt lib bin > /dev/null
  echo "regenerated ci/lint-waivers.txt:"
  git --no-pager diff --stat -- ci/lint-waivers.txt
  exit 0
fi

# Each baseline regenerates under step(), so a failure names the baseline
# left stale instead of dying on an anonymous non-zero exit.
step() {
  local baseline=$1
  shift
  if ! "$@"; then
    echo >&2
    echo "regen.sh: FAILED regenerating $baseline" >&2
    echo "hint: the checked-in $baseline is now STALE — fix the failure above" >&2
    echo "      and re-run ci/regen.sh before committing, or CI's gate on" >&2
    echo "      $baseline will compare against the old numbers." >&2
    exit 1
  fi
}

step "(build)" dune build bin bench

step ci/smoke-counters.txt \
  dune exec bin/saturn_cli.exe -- obs --counters-out ci/smoke-counters.txt > /dev/null
step ci/faults-digest.txt \
  dune exec bin/saturn_cli.exe -- faults --digest-out ci/faults-digest.txt > /dev/null
step ci/series-digest.txt \
  sh -c 'for args in "--scenario partition" "--scenario reconfig-cut" \
           "--scenario partition --system eventual"; do
           dune exec bin/saturn_cli.exe -- series $args | grep "^series digest:" || exit 1
         done > ci/series-digest.txt'
step ci/plan-default.txt \
  sh -c 'dune exec bin/saturn_cli.exe -- plan > ci/plan-default.txt'
step BENCH_smoke.json \
  dune exec bench/main.exe -- smoke --bench-out BENCH_smoke.json > /dev/null
step BENCH_engine.json \
  dune exec bench/main.exe -- engine --out BENCH_engine.json
step BENCH_shootout.json \
  dune exec bench/main.exe -- shootout --out BENCH_shootout.json > /dev/null
step ci/lint-waivers.txt \
  dune exec bin/saturn_lint.exe -- --root . --waivers-out ci/lint-waivers.txt lib bin > /dev/null

echo
echo "regenerated baselines:"
git --no-pager diff --stat -- ci/smoke-counters.txt ci/faults-digest.txt ci/series-digest.txt ci/plan-default.txt ci/lint-waivers.txt BENCH_smoke.json BENCH_engine.json BENCH_shootout.json
