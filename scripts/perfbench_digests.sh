#!/usr/bin/env bash
# Paper-scale output guard: run each perfbench workload for one short pass
# and compare its `digest` line against scripts/perfbench_digests.txt.
# The digest folds every simulated statistic of the workload, so any
# change to simulated output at paper scale fails here even when the
# test-scale gates pass. Takes about 30 s on a 2-core host once perfbench
# is built.
#
#   scripts/perfbench_digests.sh
set -euo pipefail
cd "$(dirname "$0")/.."

expected=scripts/perfbench_digests.txt
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml

status=0
while read -r workload want; do
  case "$workload" in ''|'#'*) continue ;; esac
  out=$(cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0)
  line=$(grep '^digest ' <<<"$out" || true)
  got=$(awk '{print $3}' <<<"$line")
  if [[ "$got" == "$want" && "$line" == *"identical in all"*": true)" ]]; then
    echo "perfbench digest $workload $got ok"
  else
    echo "perfbench digest $workload: expected $want, got '${line:-no digest line}'" >&2
    status=1
  fi
done < "$expected"
exit "$status"
