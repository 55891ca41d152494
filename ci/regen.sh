#!/usr/bin/env bash
# Regenerate every checked-in deterministic baseline in one command:
#
#   ci/smoke-counters.txt   probe/span/series counters of the smoke run
#   ci/faults-digest.txt    fault-matrix probe digest at the default seed
#   ci/series-digest.txt    series digests of the partition, reconfig-cut
#                           and eventual-partition runs, one line each
#   ci/plan-default.txt     saturn-cli plan's default Algorithm-3 solve
#   BENCH_smoke.json        smoke-run headline numbers (saturn-bench-smoke/1)
#   BENCH_shootout.json     per-system visibility + metadata bytes/op
#                           (saturn-bench-shootout/1)
#   BENCH_engine.json       per-tier engine speed (saturn-bench-engine/1)
#   ci/lint-waivers.txt     saturn-lint waiver inventory (the ratchet)
#
# The first six are written by one `saturn-cli gate --write` run, the same
# run and map from scenario to baseline that CI's gate compares against.
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
    echo "hint: fix the failure above and re-run ci/regen.sh before committing;" >&2
    echo "      until then CI gates $baseline against stale numbers." >&2
    exit 1
  fi
}

step "(build)" dune build bin bench

# the six scenario baselines come from one gate run; its manifest is scratch
gate_dir=$(mktemp -d)
trap 'rm -rf "$gate_dir"' EXIT
step "the six gate baselines" \
  dune exec bin/saturn_cli.exe -- gate --write --out "$gate_dir" > /dev/null
step BENCH_engine.json \
  dune exec bench/main.exe -- engine --out BENCH_engine.json
step ci/lint-waivers.txt \
  dune exec bin/saturn_lint.exe -- --root . --waivers-out ci/lint-waivers.txt lib bin > /dev/null

echo
echo "regenerated baselines:"
git --no-pager diff --stat -- ci/smoke-counters.txt ci/faults-digest.txt ci/series-digest.txt ci/plan-default.txt ci/lint-waivers.txt BENCH_smoke.json BENCH_engine.json BENCH_shootout.json
