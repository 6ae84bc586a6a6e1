# Shared jq gates for the CI smoke jobs. Source this file, then call
# the gate functions; every gate exits non-zero on violation so a bare
# call fails the step.
#
#   source ci/gates.sh
#   bench_schema bench.json
#   speedup_gate bench.json core.run.miss-chain.skip speedup_vs_naive 2
#   bench_mbps_gate hash.bench BenchmarkHashBytes 400

set -euo pipefail

# bench_schema FILE — FILE is a non-empty BENCH_*.json array and every
# row carries the BenchResult core fields.
bench_schema() {
  jq -e 'type == "array" and length > 0 and
         all(.[]; (.name | type) == "string" and
                  (.iterations | type) == "number" and
                  (.ns_per_op | type) == "number")' "$1" > /dev/null
}

# speedup_gate FILE ROW FIELD MIN — exactly one row named ROW exists in
# FILE and its FIELD is at least MIN.
speedup_gate() {
  jq -e --arg name "$2" --arg field "$3" --argjson min "$4" \
     '[.[] | select(.name == $name) | .[$field] >= $min]
      | all and length == 1' "$1" > /dev/null
}

# campaign_consistency FILE — a faultsim/harpocrates one-line campaign
# summary's outcome counters are self-consistent: the five outcome
# classes partition the injections, and detected is their non-masked
# sum.
campaign_consistency() {
  jq -e '.masked + .sdc + .crash + .hang + .trap == .n' "$1" > /dev/null
  jq -e '.detected == .sdc + .crash + .hang + .trap' "$1" > /dev/null
}

# bench_mbps_gate FILE NAME MIN — FILE is `go test -bench` output with
# exactly one result line for benchmark NAME (b.SetBytes), at MIN MB/s
# or more.
bench_mbps_gate() {
  awk -v name="$2" -v min="$3" '
    $1 ~ "^" name "(-[0-9]+)?$" {
      for (i = 2; i < NF; i++) if ($(i + 1) == "MB/s") { n++; if ($i + 0 < min) slow = 1 }
    }
    END { exit !(n == 1 && !slow) }' "$1"
}
