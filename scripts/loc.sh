#!/bin/sh
# Non-test Go lines of the serving stack, per directory (wc -l over
# non-_test.go files). Exits 1 when the total exceeds CEILING — set to
# the tree's own count, so it only ratchets down: lower it whenever a
# change shrinks the stack. A package created to hold code moved out of
# these directories joins DIRS.
set -eu
cd "$(dirname "$0")/.."
DIRS="internal/dsms internal/dsms/cluster internal/dsms/engine internal/dsms/wire"
CEILING=10303
total=0
for d in $DIRS; do
    n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%-24s %6d\n' "$d" "$n"
    total=$((total + n))
done
printf '%-24s %6d  (ceiling %d)\n' total "$total" "$CEILING"
[ "$total" -le "$CEILING" ]
