#!/bin/sh
# Non-test Go lines (wc -l over non-_test.go files) under two ceilings:
# the serving stack, per directory of DIRS, against CEILING; and the rest
# of the module outside DIRS and bench/ (the library, the facade, cmd/
# and examples/) against LIB_CEILING. Exits 1 when either total exceeds
# its ceiling. Both are set to the tree's own count, so they only ratchet
# down: lower one whenever a change shrinks its side. A package created
# to hold code moved out of these directories joins DIRS.
set -eu
cd "$(dirname "$0")/.."
DIRS="internal/dsms internal/dsms/cluster internal/dsms/engine internal/dsms/wire"
CEILING=9994
LIB_CEILING=14010
total=0
for d in $DIRS; do
    n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    printf '%-24s %6d\n' "$d" "$n"
    total=$((total + n))
done
printf '%-24s %6d  (ceiling %d)\n' total "$total" "$CEILING"
lib=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    grep -vE "^\./($(echo "$DIRS" | tr ' ' '|'))/[^/]+\$" | xargs cat | wc -l)
printf '%-24s %6d  (ceiling %d)\n' "library (outside DIRS)" "$lib" "$LIB_CEILING"
[ "$total" -le "$CEILING" ] && [ "$lib" -le "$LIB_CEILING" ]
