#!/usr/bin/env bash
# CPU profiles of the saturate phase of two commits, side by side (ROADMAP
# 5(a)), and with -block the off-CPU half — time spent waiting on mutexes:
#
#   scripts/profile-pair.sh <parent> <change> [-workload W] [-runs N] [-block]
#
# Checks both commits out under .bench_build/profile/parent and change with
# git archive, as pair.sh does, and in those copies only wraps the saturate phase's
# r.saturate call in bench/run.go in pprof.StartCPUProfile/StopCPUProfile
# (with -block, in runtime/trace Start/Stop too). Then runs
# `bash bench/run.sh -workload W -trace 0` in each, N runs a side
# (default tcp_durable_dense, 3), alternating which side runs first, and
# prints one row per run: its readings_per_s and the profile's self seconds
# summed per package — kalman, core, dsms, wire, wal, engine, cluster,
# runtime, syscall, sync (sync, internal/sync and sync/atomic: locks and
# atomics inlined anywhere), harness (the benchmark's own main.*),
# everything else — with the benchmark's reference kernel (main.refKernel,
# which times the machine) in a column of its own.
# With -block a second table follows: per run, the seconds goroutines
# waited to lock a sync.Mutex or RWMutex, from `go tool trace -pprof=sync`,
# charged to the function that called Lock — the wal.(*Log).AppendBatch
# row, then the five largest others. A CPU profile cannot show that time.
# Profiles, traces and run output are kept in a directory of the set's
# own, .bench_build/profile/<UTC time>-<parent7>-<change7>/, which a later
# set leaves alone: only the checkouts are rebuilt. Needs git, tar, jq
# and awk.
#
# An uncommitted change can be profiled as `$(git stash create)` after
# `git add -A`.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
[ $# -ge 2 ] || { sed -n '2,29p' "$0" >&2; exit 2; }
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")
shift 2
workload=tcp_durable_dense
runs=3
block=0
while [ $# -gt 0 ]; do
    case $1 in
    -workload) workload=$2; shift ;;
    -runs) runs=$2; shift ;;
    -block) block=1 ;;
    *) echo "profile-pair.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift
done

out="$root/.bench_build/profile"
set_dir="$out/$(date -u +%Y%m%dT%H%M%SZ)-${parent:0:7}-${change:0:7}"
mkdir -p "$set_dir"
echo "profile-pair.sh: this set is kept in $set_dir" >&2
call='	sat, err := r.saturate('
for side in parent change; do
    rm -rf "${out:?}/$side"
    mkdir -p "$out/$side"
    git -C "$root" archive "${!side}" | tar -x -C "$out/$side"
    run_go="$out/$side/bench/run.go"
    grep -qF "$call" "$run_go" || { echo "profile-pair.sh: $side: no r.saturate call in bench/run.go" >&2; exit 1; }
    awk -v call="$call" -v block="$block" '
        /^import \($/ && !imported {
            print; print "\t\"runtime/pprof\""
            if (block) print "\trtrace \"runtime/trace\""
            imported = 1; next
        }
        index($0, call) == 1 {
            print "\tprof, perr := os.Create(os.Getenv(\"DKF_E2E_CPUPROFILE\"))"
            print "\tif perr != nil {"
            print "\t\treturn nil, perr"
            print "\t}"
            print "\tif perr = pprof.StartCPUProfile(prof); perr != nil {"
            print "\t\treturn nil, perr"
            print "\t}"
            if (block) {
                print "\ttf, terr := os.Create(os.Getenv(\"DKF_E2E_TRACE\"))"
                print "\tif terr != nil {"
                print "\t\treturn nil, terr"
                print "\t}"
                print "\tif terr = rtrace.Start(tf); terr != nil {"
                print "\t\treturn nil, terr"
                print "\t}"
            }
            print
            if (block) { print "\trtrace.Stop()"; print "\ttf.Close()" }
            print "\tpprof.StopCPUProfile()"
            print "\tprof.Close()"
            next
        }
        { print }' "$run_go" >"$run_go.new"
    mv "$run_go.new" "$run_go"
done

# self seconds per package of one profile, as "bucket seconds" lines.
buckets() {
    go tool pprof -top -nodecount=1000000 -unit=s "$1" 2>/dev/null | awk '
        $2 ~ /%$/ && $1 ~ /s$/ {
            name = $6
            for (i = 7; i <= NF; i++) name = name " " $i
            flat = substr($1, 1, length($1) - 1) + 0
            if (name == "main.refKernel") { sum["ref"] += flat; next }
            pkg = name
            sub(/[(\[].*$/, "", pkg) # receiver and type arguments may hold slashes
            sub(/\.[^\/]*$/, "", pkg) # the import path
            if (pkg ~ /^(sync|internal\/sync|sync\/atomic)$/) pkg = "sync"
            else if (pkg == "main") pkg = "harness"
            else {
                sub(/^.*\//, "", pkg) # the last path element
                if (pkg !~ /^(kalman|core|dsms|wire|wal|engine|cluster|runtime|syscall)$/) pkg = "other"
            }
            sum[pkg] += flat
        }
        END { for (p in sum) print p, sum[p] }'
}

# mutex wait seconds per calling function of one trace, largest first, as
# "function seconds" lines: only waits inside sync.Mutex/RWMutex locks
# count (the sync profile also holds channel and select waits), and sync,
# internal/sync and runtime frames are hidden, so a wait is charged to the
# function that called Lock.
mutexwait() {
    go tool trace -pprof=sync "$1" >"$1.sync.pprof" 2>/dev/null &&
        go tool pprof -top -nodecount=1000000 -unit=ms -focus='^sync\.\(\*(RW)?Mutex\)\.R?Lock' \
            -hide='^(sync|internal/sync|runtime)\.' "$1.sync.pprof" 2>/dev/null |
        awk '$2 ~ /%$/ && $1 ~ /ms$/ {
            name = $6
            for (i = 7; i <= NF; i++) name = name " " $i
            sub(/^.*\//, "", name)
            printf "%s %.3f\n", name, substr($1, 1, length($1) - 2) / 1000
        }'
}

cols="kalman core dsms wire wal engine cluster runtime syscall sync harness other ref"
echo "| side | run | readings_per_s | $(echo $cols | sed 's/ / | /g') |"
echo "|---|---|---:|$(for c in $cols; do printf -- '---:|'; done)"
for i in $(seq 1 "$runs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        log="$set_dir/$side.$i.out"
        prof="$set_dir/$side.$i.pprof"
        tr="$set_dir/$side.$i.trace"
        echo "profile-pair.sh: $workload run $i/$runs: $side" >&2
        DKF_E2E_CPUPROFILE="$prof" DKF_E2E_TRACE="$tr" bash "$out/$side/bench/run.sh" -workload "$workload" -trace 0 >"$log" 2>&1 || true
        rate=$(tail -n 1 "$log" | jq -r '.metrics.readings_per_s.value // "failed"' 2>/dev/null || echo failed)
        row="| $side | $i | $rate |"
        if [ -s "$prof" ]; then
            b=$(buckets "$prof")
            for c in $cols; do
                row="$row $(echo "$b" | awk -v c="$c" '$1 == c { v = $2 } END { printf "%.2f", v }') |"
            done
        else
            row="$row no profile |"
        fi
        echo "$row"
        if [ "$block" = 1 ]; then
            row="| $side | $i | $rate |"
            if [ -s "$tr" ] && w=$(mutexwait "$tr"); then
                row="$row $(echo "$w" | awk '$1 == "wal.(*Log).AppendBatch" { v = $2 } END { printf "%.3f", v }') |"
                row="$row $(echo "$w" | awk '$1 != "wal.(*Log).AppendBatch" && n < 5 { printf "%s%s %s", (n++ ? ", " : ""), $1, $2 }') |"
            else
                row="$row no trace | |"
            fi
            blockrows="${blockrows:-}$row"$'\n'
        fi
    done
done
if [ "$block" = 1 ]; then
    echo
    echo "| side | run | readings_per_s | mutex wait in wal.(*Log).AppendBatch, s | top five other callers of Lock, s |"
    echo "|---|---|---:|---:|---|"
    printf '%s' "$blockrows"
fi
