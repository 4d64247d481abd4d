#!/usr/bin/env bash
# Golden artifact set: every experiment `scalebench list` names, run in
# -quick mode with its CSV and JSON artifacts and its printed report (the
# wall-time line dropped), then one SHA256SUMS over the lot.
#
#   bash scripts/golden.sh DIR
#
# The committed set is results/golden/. A change that keeps behaviour
# leaves every file identical, which
#
#   (cd DIR && sha256sum -c --quiet "$OLDPWD/results/golden/SHA256SUMS")
#
# checks; a change meant to move behaviour re-commits the files that moved.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 DIR" >&2; exit 2; }
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
(cd "$root" && go build -o "$bindir/scalebench" ./cmd/scalebench)
bin=$bindir/scalebench
for id in $("$bin" list | awk '{ print $1 }'); do
	(cd "$out" && "$bin" -quick -csv . -artifacts . "$id") |
		grep -v '^(.* wall time: .*)$' >"$out/$id.stdout"
done
(cd "$out" && rm -f SHA256SUMS && find . -type f ! -name SHA256SUMS | sed 's:^\./::' | LC_ALL=C sort |
	xargs sha256sum >SHA256SUMS)
