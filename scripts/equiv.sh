#!/usr/bin/env bash
# equiv.sh — check that a change leaves every reference output
# byte-identical to its base.
#
# Usage: scripts/equiv.sh BASE [HEAD]
#
# Builds figgen, flowsim and screamsim at BASE and at HEAD (a commit; the
# working tree when HEAD is left out), each commit from a temporary checkout
# made with git archive, and runs every command of testdata/equiv/corpus
# with both builds. Each side runs in its own checkout (the working tree
# runs in the repository), so a relative path in a command reads that
# side's file. A command's stdout, and the file it writes for -trace TRACE,
# are compared byte for byte, except for three things that carry wall-clock
# time or a temporary path rather than results:
#   - figgen's " (generated in ...)" annotation on each figure heading is
#     dropped;
#   - the rows of FigScale keep only their fields 1-7 (the node count and
#     the deterministic series: spatial slots, index and matrix sizes); its
#     later fields are timings;
#   - the trace file's temporary path, which flowsim prints, reads TRACE,
#     so a digest is the same from one run of this script to the next.
#
# It prints one line per output: a 64-bit digest (the first 16 hex digits
# of the sha256 of HEAD's output), "same", "DIFF" or "FAIL", which output
# (stdout or trace) and the command, and the first lines of each
# difference on stderr. It exits non-zero on any difference, or when a
# command fails on one side (DIFF) or both (FAIL: the corpus is broken),
# and removes its temporary files. The figures run at full fidelity, so a
# whole corpus takes a few minutes.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: scripts/equiv.sh BASE [HEAD]" >&2
	exit 2
fi
repo=$(git rev-parse --show-toplevel)
corpus="$repo/testdata/equiv/corpus"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# checkout REV DIR: DIR gets REV's tree, or the working tree's path when
# REV is empty; its builds land in DIR/bin.
checkout() {
	if [ -n "$1" ]; then
		mkdir -p "$2/src"
		git -C "$repo" archive "$1" | tar -x -C "$2/src"
		echo "$2/src"
	else
		echo "$repo"
	fi
}
build() {
	for cmd in figgen flowsim screamsim; do
		(cd "$1" && GOFLAGS= go build -o "$2/bin/$cmd" "./cmd/$cmd")
	done
}

base_src=$(checkout "$1" "$tmp/base")
head_src=$(checkout "${2:-}" "$tmp/head")
build "$base_src" "$tmp/base"
build "$head_src" "$tmp/head"

# normalize drops figgen's wall-time annotations and FigScale's timing
# fields, and names the trace file TRACE; other output passes through
# unchanged.
normalize() {
	sed -e 's/ (generated in [^)]*)//' -e "s|$tmp/trace.jsonl|TRACE|g" | awk -F'\t' '
		/^## / { scale = ($0 ~ /^## FigScale/) }
		scale && NF > 7 { print $1 "\t" $2 "\t" $3 "\t" $4 "\t" $5 "\t" $6 "\t" $7; next }
		{ print }'
}

# run SIDE LINE: runs one corpus command with SIDE's build in SIDE's
# checkout, writing SIDE/stdout and, for -trace TRACE, SIDE/trace. Both
# sides write the trace to one path, which normalize names TRACE.
run() {
	local dir="$tmp/$1" src
	src=$([ "$1" = base ] && echo "$base_src" || echo "$head_src")
	local -a argv
	read -r -a argv <<<"$2"
	argv[0]="$dir/bin/${argv[0]}"
	for i in "${!argv[@]}"; do
		[ "${argv[$i]}" = TRACE ] && argv[$i]="$tmp/trace.jsonl"
	done
	rm -f "$tmp/trace.jsonl" "$dir/trace"
	(cd "$src" && "${argv[@]}") >"$dir/raw" 2>"$dir/err" || return 1
	[ -f "$tmp/trace.jsonl" ] && mv "$tmp/trace.jsonl" "$dir/trace"
	normalize <"$dir/raw" >"$dir/stdout"
}

status=0
report() { # report KIND LINE: compares base/KIND with head/KIND
	local a="$tmp/base/$1" b="$tmp/head/$1" digest="(none)" verdict=same
	[ -f "$b" ] && digest=$(sha256sum <"$b" | cut -c1-16)
	if ! cmp -s "$a" "$b"; then
		verdict=DIFF
		status=1
		diff "$a" "$b" | head -n 10 >&2 || true
	fi
	printf '%s  %-4s  %-6s  %s\n' "$digest" "$verdict" "$1" "$2"
}

while IFS= read -r line; do
	case "$line" in '' | '#'*) continue ;; esac
	ok_base=0 ok_head=0
	run base "$line" && ok_base=1
	run head "$line" && ok_head=1
	if [ $ok_base = 0 ] || [ $ok_head = 0 ]; then
		verdict=DIFF
		[ $ok_base = 0 ] && [ $ok_head = 0 ] && verdict=FAIL
		printf '%s  %-4s  %-6s  %s\n' "----------------" "$verdict" "exit" "$line"
		cat "$tmp/base/err" "$tmp/head/err" | head -n 10 >&2
		status=1
		continue
	fi
	report stdout "$line"
	case " $line " in *" TRACE "*) report trace "$line" ;; esac
done <"$corpus"
exit $status
