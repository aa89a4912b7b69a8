#!/usr/bin/env bash
# CPU profiles of the saturate phase of two commits, side by side (ROADMAP
# 5(a), first half):
#
#   scripts/profile-pair.sh <parent> <change> [-workload W] [-runs N]
#
# Checks both commits out under .bench_build/profile/ with git archive, as
# pair.sh does, and in those copies only wraps the saturate phase's
# r.saturate call in bench/run.go in pprof.StartCPUProfile/StopCPUProfile.
# Then runs `bash bench/run.sh -workload W -trace 0` in each, N runs a side
# (default tcp_durable_dense, 3), alternating which side runs first, and
# prints one row per run: its readings_per_s and the profile's self seconds
# summed per package — kalman, core, dsms, wire, wal, engine, cluster,
# runtime, syscall, everything else — with the benchmark's reference
# kernel (main.refKernel, which times the machine) in a column of its own.
# Profiles and run output stay beside the checkouts. Needs git, tar, jq
# and awk.
#
# An uncommitted change can be profiled as `$(git stash create)` after
# `git add -A`.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
[ $# -ge 2 ] || { sed -n '2,20p' "$0" >&2; exit 2; }
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")
shift 2
workload=tcp_durable_dense
runs=3
while [ $# -gt 0 ]; do
    case $1 in
    -workload) workload=$2 ;;
    -runs) runs=$2 ;;
    *) echo "profile-pair.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done

out="$root/.bench_build/profile"
rm -rf "$out"
call='	sat, err := r.saturate('
for side in parent change; do
    mkdir -p "$out/$side"
    git -C "$root" archive "${!side}" | tar -x -C "$out/$side"
    run_go="$out/$side/bench/run.go"
    grep -qF "$call" "$run_go" || { echo "profile-pair.sh: $side: no r.saturate call in bench/run.go" >&2; exit 1; }
    awk -v call="$call" '
        /^import \($/ && !imported { print; print "\t\"runtime/pprof\""; imported = 1; next }
        index($0, call) == 1 {
            print "\tprof, perr := os.Create(os.Getenv(\"DKF_E2E_CPUPROFILE\"))"
            print "\tif perr != nil {"
            print "\t\treturn nil, perr"
            print "\t}"
            print "\tif perr = pprof.StartCPUProfile(prof); perr != nil {"
            print "\t\treturn nil, perr"
            print "\t}"
            print
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
            sub(/^.*\//, "", pkg)    # the last path element
            sub(/\..*$/, "", pkg)
            if (pkg !~ /^(kalman|core|dsms|wire|wal|engine|cluster|runtime|syscall)$/) pkg = "other"
            sum[pkg] += flat
        }
        END { for (p in sum) print p, sum[p] }'
}

cols="kalman core dsms wire wal engine cluster runtime syscall other ref"
echo "| side | run | readings_per_s | $(echo $cols | sed 's/ / | /g') |"
echo "|---|---|---:|$(for c in $cols; do printf -- '---:|'; done)"
for i in $(seq 1 "$runs"); do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        log="$out/$side.$i.out"
        prof="$out/$side.$i.pprof"
        echo "profile-pair.sh: $workload run $i/$runs: $side" >&2
        DKF_E2E_CPUPROFILE="$prof" bash "$out/$side/bench/run.sh" -workload "$workload" -trace 0 >"$log" 2>&1 || true
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
    done
done
