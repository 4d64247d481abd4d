#!/usr/bin/env bash
# Coverage ledger: which statements under internal/ the product reaches
# (`scalebench -quick all` and every examples/* main), which only tests
# reach, and which nothing reaches. Informational: it prints what it finds
# and fails on nothing but a broken build.
#
#   bash scripts/coverage-ledger.sh [WORKDIR]
#
# WORKDIR (default .cover/) receives the instrumented binaries, the counter
# files and three profiles: product.out, tests.out and merged.out. The
# benchmark/ module is not a source, so code only it calls (for instance
# scalerpc.Server.WorkerDebug, nic.NIC.Snapshot) reads as reached by nothing.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mkdir -p "${1:-$root/.cover}" && cd "${1:-$root/.cover}" && pwd)
cd "$root"
rm -rf "$work/bin" "$work/counters"
mkdir -p "$work/bin" "$work/counters"

# A -coverpkg that leaves out the main package itself writes no counter
# files, so each binary names its own.
mains=(./cmd/scalebench $(ls -d ./examples/*/ | sed 's:/$::'))
for m in "${mains[@]}"; do
	go build -cover -coverpkg="./internal/...,$m" -o "$work/bin/$(basename "$m")" "$m"
done
for m in "${mains[@]}"; do
	args=()
	[ "$(basename "$m")" = scalebench ] && args=(-quick all)
	(cd "$work" && GOCOVERDIR="$work/counters" "$work/bin/$(basename "$m")" "${args[@]}" >/dev/null)
done
go tool covdata textfmt -i="$work/counters" -o "$work/product.out"
# The ledger is informational: a failing test does not stop it.
go test -count=1 -coverpkg=./internal/... -coverprofile="$work/tests.out" ./... >/dev/null ||
	echo "note: go test failed; the ledger counts what ran" >&2

# One line per block: "file:span statements count". A block is reached when
# any line for it in a profile has a non-zero count.
awk -v merged="$work/merged.out" '
	FNR == 1 { next }
	{ stmts[$1] = $2 }
	FILENAME == ARGV[1] && $3 > 0 { prod[$1] = 1 }
	FILENAME == ARGV[2] && $3 > 0 { test[$1] = 1 }
	END {
		print "mode: set" > merged
		for (b in stmts) {
			print b, stmts[b], (prod[b] || test[b]) ? 1 : 0 > merged
			if (b !~ /^scalerpc\/internal\//) continue
			all += stmts[b]
			if (!prod[b] && test[b]) tonly += stmts[b]
			if (!prod[b] && !test[b]) none += stmts[b]
		}
		printf "statements under internal/: %d\n", all
		printf "reached only by tests:      %d\n", tonly
		printf "reached by nothing:         %d\n", none
	}' "$work/product.out" "$work/tests.out"
echo "functions under internal/ reached by nothing:"
go tool cover -func="$work/merged.out" | awk '$1 ~ /^scalerpc\/internal\// && $NF == "0.0%" { print "  " $1, $2 }'
