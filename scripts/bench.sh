#!/usr/bin/env bash
# bench.sh — run the hot-path micro-benchmarks and emit a JSON snapshot
# (BENCH_<N>.json) so the performance trajectory of the aggregation, codec
# and RPC layers is tracked across PRs.
#
# Usage:
#   scripts/bench.sh              # writes the next unused BENCH_<N>.json
#   scripts/bench.sh out.json     # explicit output path (may overwrite)
#   BENCHTIME=100x scripts/bench.sh       # override iteration count
#
# Without an argument the script picks the first BENCH_<N>.json that does
# not exist yet — snapshots are an append-only series, one per PR, and a
# default that silently clobbered the newest one destroyed the history it
# exists to record. Overwriting therefore requires naming the file
# explicitly.
#
# For statistically-sound comparisons between two checkouts, run the
# benchmarks several times per side and feed them to benchstat:
#   go test -run '^$' -bench . -benchmem -count 10 . > old.txt  # on main
#   go test -run '^$' -bench . -benchmem -count 10 . > new.txt  # on branch
#   benchstat old.txt new.txt
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ge 1 ]; then
  OUT="$1"
else
  n=1
  while [ -e "BENCH_${n}.json" ]; do
    n=$((n + 1))
  done
  OUT="BENCH_${n}.json"
fi
BENCHTIME="${BENCHTIME:-20x}"
BENCHES='BenchmarkGARKrum$|BenchmarkGARMultiKrum$|BenchmarkGARMDA$|BenchmarkGARBulyan$|BenchmarkGARMedian$|BenchmarkVectorCodec$|BenchmarkRPCPullFirstQ$|BenchmarkLiveSSMWIteration$|BenchmarkCompressFP64$|BenchmarkCompressFP16$|BenchmarkCompressInt8$|BenchmarkCompressTopK$|BenchmarkCompressedPull$|BenchmarkShardedAggregation$|BenchmarkLinearSoftmaxGradient$'

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$BENCHES" -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

awk -v benchtime="$BENCHTIME" '
BEGIN { n = 0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($(i+1) == "ns/op")     ns = $i
		if ($(i+1) == "B/op")      bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns != "") {
		names[n] = name; nss[n] = ns; bs[n] = bytes; as[n] = allocs; n++
	}
}
END {
	printf "{\n"
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			names[i], nss[i], bs[i] == "" ? "null" : bs[i], as[i] == "" ? "null" : as[i], i < n-1 ? "," : ""
	}
	printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
