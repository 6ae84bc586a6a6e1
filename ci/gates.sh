# Shared jq gates for the CI smoke jobs. Source this file, then call
# the gate functions; every gate exits non-zero on violation so a bare
# call fails the step.
#
#   source ci/gates.sh
#   campaign_consistency camp.json
#   bench_mbps_gate hash.bench BenchmarkHashBytes 400
#   test_time_gate race.json 1440

set -euo pipefail

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

# test_time_gate FILE BUDGET_SECONDS — FILE is `go test -json` output.
# Prints the ten slowest top-level tests and the summed package time
# (each package's elapsed seconds, added up), and fails when that sum
# passes BUDGET_SECONDS.
test_time_gate() {
  jq -rs '[.[] | select(.Test != null and (.Test | contains("/") | not)
                        and (.Action == "pass" or .Action == "fail"))]
          | sort_by(-.Elapsed) | .[:10][] | "\(.Elapsed) s\t\(.Package) \(.Test)"' "$1"
  local total
  total=$(jq -s '[.[] | select(.Test == null and (.Action == "pass" or .Action == "fail")) | .Elapsed] | add // 0' "$1")
  echo "summed package time: $total s (budget $2 s)"
  awk -v t="$total" -v b="$2" 'BEGIN { exit !(t <= b) }'
}
