#!/bin/sh
# check_fma.sh — fail if the arm64 compiler fuses a multiply with an add or
# subtract anywhere in scream/internal/phys. The Go spec lets a compiler
# compute x*y + z with one rounding; amd64 never does, arm64 does, and a
# fused site would let a received power, a gain or an admission sum differ
# in the last bit from the amd64 value every reference output rests on. An
# explicit float64(x*y) rounds the product on its own and keeps it unfused.
#
# It cross-compiles ./cmd/flowsim and the internal/phys test binary for
# linux/arm64 with the local toolchain (nothing is downloaded) and searches
# their disassembly for FMADD, FMSUB, FNMADD and FNMSUB in functions whose
# symbol starts with scream/internal/phys (its subpackages included).
#
# Usage: scripts/check_fma.sh
set -eu

out=$(mktemp -d) || exit 1
trap 'rm -rf "$out"' EXIT

GOOS=linux GOARCH=arm64 go build -o "$out/flowsim" ./cmd/flowsim
GOOS=linux GOARCH=arm64 go test -c -o "$out/phys.test" ./internal/phys

status=0
for bin in "$out/flowsim" "$out/phys.test"; do
    go tool objdump -s '^scream/internal/phys' "$bin" > "$out/dis"
    if ! grep -q '^TEXT scream/internal/phys' "$out/dis"; then
        echo "check_fma: no scream/internal/phys function in $(basename "$bin")" >&2
        exit 1
    fi
    if ! awk '
        /^TEXT/ { fn = $2 }
        /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[DS]?[[:space:]]/ { print fn ": " $0; bad = 1 }
        END { exit bad }
    ' "$out/dis"; then
        echo "check_fma: fused multiply-add in scream/internal/phys ($(basename "$bin")); round the product with float64(...)" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "check_fma: no fused multiply-add in scream/internal/phys (arm64)"
exit "$status"
