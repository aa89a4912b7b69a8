#!/bin/sh
# Non-test Go lines (wc -l over non-_test.go files) under three ceilings:
# the serving stack, per directory of DIRS, against CEILING; the rest of
# the module outside DIRS and bench/ (the library, the facade, cmd/ and
# examples/) against LIB_CEILING; and the serving stack's observability
# files, OBS (ROADMAP item 6(c)), against OBS_CEILING. Exits 1 when any
# total exceeds its ceiling. Each is set to the tree's own count, so they
# only ratchet down: lower one whenever a change shrinks its side. A
# package created to hold code moved out of these directories joins DIRS.
set -eu
cd "$(dirname "$0")/.."
DIRS="internal/dsms internal/dsms/cluster internal/dsms/engine internal/dsms/wire"
OBS="internal/dsms/selfmon.go internal/dsms/statusz.go internal/dsms/history.go
    internal/dsms/admin.go internal/dsms/telemetry.go internal/dsms/cluster/admin.go
    internal/dsms/cluster/fleet.go internal/dsms/cluster/events.go
    internal/dsms/cluster/trace.go internal/dsms/cluster/telemetry.go"
CEILING=9569
LIB_CEILING=13130
OBS_CEILING=1748
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
# shellcheck disable=SC2086 # OBS is a word list
obs=$(cat $OBS | wc -l)
printf '%-24s %6d  (ceiling %d)\n' "observability (OBS)" "$obs" "$OBS_CEILING"
[ "$total" -le "$CEILING" ] && [ "$lib" -le "$LIB_CEILING" ] && [ "$obs" -le "$OBS_CEILING" ]
