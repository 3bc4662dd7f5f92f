#!/bin/sh
# loc.sh — non-test Go line counts, as every PR reports them.
#
#   ./scripts/loc.sh
#
# Prints the root module's total (everything outside the nested bench/
# module), bench/'s total, then the six largest root packages.
# Build and VCS directories (.bench_build/, .git/) are skipped.
set -eu
cd "$(dirname "$0")/.."

files() {
	find "$@" \( -name .git -o -name .bench_build \) -prune -o \
		-name '*.go' ! -name '*_test.go' -print
}

files . -path ./bench -prune -o | xargs cat | wc -l | awk '{print "root  " $1}'
files bench | xargs cat | wc -l | awk '{print "bench " $1}'
files . -path ./bench -prune -o | xargs wc -l | grep -v ' total$' |
	awk '{d = $2; sub(/\/[^\/]*$/, "", d); s[d] += $1} END {for (d in s) print s[d], d}' |
	sort -rn | head -6
