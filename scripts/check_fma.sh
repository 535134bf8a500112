#!/bin/sh
# check_fma.sh — fail if a compiler fuses a multiply with an add or subtract
# anywhere in the repo's own code. The Go spec lets a compiler compute
# x*y + z with one rounding; amd64 never does, arm64, ppc64le and riscv64 do,
# and a fused site would let a received power, a position, a percentile or
# an admission sum differ in the last bit from the amd64 value every
# reference output rests on. An explicit float64(x*y) rounds the product on
# its own and keeps it unfused.
#
# For each architecture it cross-compiles the commands (./cmd/...) and the
# internal/phys test binary for linux with the local toolchain (nothing is
# downloaded), and searches the disassembly of every function whose symbol
# starts with scream/ for the fused instructions FMADD, FMSUB, FNMADD and
# FNMSUB, with or without a D or S suffix. The standard library's own fused
# instructions (math.Log, math.Pow, ...) are outside the search.
#
# s390x fuses too, but its disassembly names the instructions in the
# machine's own syntax (MADBR, MSDBR, ...), and it fuses no repo function
# that arm64 does not, so it is left out. go tool objdump disassembles
# riscv64 only from Go 1.24 on.
#
# Usage: scripts/check_fma.sh [arch ...]   (default: arm64 ppc64le riscv64)
set -eu

archs=${*:-arm64 ppc64le riscv64}

out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT

status=0
for arch in $archs; do
    mkdir "$out/$arch"
    GOOS=linux GOARCH=$arch go build -o "$out/$arch/" ./cmd/...
    GOOS=linux GOARCH=$arch go test -c -o "$out/$arch/phys.test" ./internal/phys
    for bin in "$out/$arch"/*; do
        name="$arch $(basename "$bin")"
        go tool objdump -s '^scream/' "$bin" > "$out/dis"
        if ! grep -q '^TEXT scream/' "$out/dis"; then
            echo "check_fma: no scream/ function in $name" >&2
            exit 1
        fi
        if ! awk -v name="$name" '
            /^TEXT/ { fn = $2 }
            /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS]?[[:space:]]/ { print name ": " fn ": " $0; bad = 1 }
            END { exit bad }
        ' "$out/dis"; then
            echo "check_fma: fused multiply-add in $name; round the product with float64(...)" >&2
            status=1
        fi
    done
done
[ "$status" -eq 0 ] && echo "check_fma: no fused multiply-add in any scream/ function ($archs)"
exit "$status"
