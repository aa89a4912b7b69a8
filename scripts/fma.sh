#!/bin/sh
# Fused multiply-add gate. The Go spec lets the compiler fuse x*y + z into
# one instruction that rounds once; only an explicit float64() conversion
# of the product stops it. amd64 never fuses, other architectures do, and
# a source mirror that fuses is not the same filter as a server that does
# not. This cross-builds dkf-source and dkf-server for each architecture
# in ARCHES (no emulator: nothing runs), disassembles the filter packages
# and exits 1 if any fused opcode appears there, listing each site.
#
#   sh scripts/fma.sh
set -eu
cd "$(dirname "$0")/.."
ARCHES="arm64 ppc64le riscv64 s390x"
PKGS='internal/(kalman|mat|model|core)\.'
# The fused opcodes as go tool objdump spells them: arm64 and riscv64
# (FMADDD …), ppc64le (FMADD …) and s390x (MADBR, MSDBR).
OPS='FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADD|FMSUB|FNMADD|FNMSUB|MADBR|MSDBR'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0
for arch in $ARCHES; do
    for cmd in dkf-source dkf-server; do
        bin="$tmp/$cmd-$arch"
        GOOS=linux GOARCH=$arch go build -o "$bin" "./cmd/$cmd"
        go tool objdump -s "$PKGS" "$bin" | grep -wE "$OPS" >"$tmp/hits" || true
        n=$(wc -l <"$tmp/hits")
        printf '%-8s %-11s %3d fused\n' "$arch" "$cmd" "$n"
        if [ "$n" -gt 0 ]; then
            awk '{print $1, $4}' "$tmp/hits" | sort | uniq -c
            fail=1
        fi
    done
done
exit "$fail"
