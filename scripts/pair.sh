#!/usr/bin/env bash
# Paired benchmark runs of two commits (ROADMAP 5, the ledger):
#
#   scripts/pair.sh <parent> <change> [-workload W] [-pairs N] [-seconds S]
#
# Checks both commits out under .bench_build/pair/parent and change (git
# archive, so the repository's own work tree and refs are untouched), then runs
# `bash bench/run.sh -workload W -trace 0` in each, N pairs per workload
# (default 10, every workload), alternating which side runs first; -seconds
# is passed on to run.sh (its default, 12, otherwise). Prints
# one JSON object — per (workload, end-to-end metric) the parent's and the
# change's q1/median/q3, the ratio of medians, in how many pairs the
# change read better, a verdict against the metric's BENCHMARK.json bound
# and whether a gain is resolved (the change read better in at least nine
# pairs in ten and its median is better than the parent's by more than the
# parent's q3 − q1; "unresolved" otherwise); plus each side's total of
# failed operations — and then the same rows as the markdown table
# CHANGES.md uses. Each set keeps every run's
# output, its runs.jsonl and its result.json in a directory of its own,
# .bench_build/pair/<UTC time>-<parent7>-<change7>/, which a later set
# leaves alone: only the checkouts are rebuilt. The run set is appended as
# one line — commits, date, host, go version, the phases' seconds, each row's quartiles,
# verdict and gain — to the committed BENCH_TRAJECTORY.jsonl (ROADMAP 5).
# Needs git, tar and jq.
#
# An uncommitted change can be measured as `$(git stash create)` after
# `git add -A`.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
[ $# -ge 2 ] || { sed -n '2,27p' "$0" >&2; exit 2; }
parent=$(git -C "$root" rev-parse --verify "$1^{commit}")
change=$(git -C "$root" rev-parse --verify "$2^{commit}")
shift 2
workloads=$(jq -r '.workloads[].name' "$root/BENCHMARK.json")
pairs=10
seconds=
while [ $# -gt 0 ]; do
    case $1 in
    -workload) workloads=$2 ;;
    -pairs) pairs=$2 ;;
    -seconds) seconds=$2 ;;
    *) echo "pair.sh: unknown flag $1" >&2; exit 2 ;;
    esac
    shift 2
done

out="$root/.bench_build/pair"
set_dir="$out/$(date -u +%Y%m%dT%H%M%SZ)-${parent:0:7}-${change:0:7}"
for side in parent change; do
    rm -rf "${out:?}/$side"
    mkdir -p "$out/$side"
    git -C "$root" archive "${!side}" | tar -x -C "$out/$side"
done
mkdir -p "$set_dir"
echo "pair.sh: this set is kept in $set_dir" >&2

runs="$set_dir/runs.jsonl"
: >"$runs"
for w in $workloads; do
    for i in $(seq 1 "$pairs"); do
        order="parent change"
        [ $((i % 2)) -eq 0 ] && order="change parent"
        for side in $order; do
            log="$set_dir/$side.$w.$i.out"
            echo "pair.sh: $w pair $i/$pairs: $side" >&2
            # A failed run still ends in its result line; a run with none
            # is recorded as one failed operation.
            bash "$out/$side/bench/run.sh" -workload "$w" -trace 0 ${seconds:+-seconds "$seconds"} >"$log" 2>&1 || true
            tail -n 1 "$log" | jq -c --arg side "$side" --arg w "$w" --argjson i "$i" \
                '{side: $side, workload: $w, pair: $i} + .' >>"$runs" 2>/dev/null ||
                echo "{\"side\":\"$side\",\"workload\":\"$w\",\"pair\":$i,\"correct\":false,\"failed\":1,\"metrics\":{}}" >>"$runs"
        done
    done
done

# The seconds the runs measured, as their header lines print them.
seconds=$(grep -ho '^# dkf-e2e .* seconds=[^ ]*' "$set_dir"/*.out | sed -n '1s/.*seconds=//p' || true)
jq -s --slurpfile bm "$root/BENCHMARK.json" --arg parent "$parent" --arg change "$change" --argjson pairs "$pairs" \
    --argjson seconds "${seconds:-null}" '
def q(p): sort as $s | ((($s | length) - 1) * p) as $h | ($h | floor) as $lo
    | $s[$lo] + ($h - $lo) * (($s[$lo + 1] // $s[$lo]) - $s[$lo]);
def quartiles: {q1: q(0.25), median: q(0.5), q3: q(0.75)};
. as $runs
| {parent: $parent, change: $change, pairs: $pairs, seconds: $seconds,
   failed: (["parent", "change"] | map({key: ., value: (. as $s | [$runs[] | select(.side == $s) | .failed] | add)}) | from_entries),
   rows: [($runs | map(.workload) | unique[]) as $w | $bm[0].end_to_end[] as $m
     | [$runs[] | select(.workload == $w and .side == "parent") | .metrics[$m.name].value // empty] as $p
     | [$runs[] | select(.workload == $w and .side == "change") | .metrics[$m.name].value // empty] as $c
     | select(($p | length) > 0 and ($c | length) > 0)
     | (if $m.better == "lower" then 1 else -1 end) as $sign
     | ($p | quartiles) as $pq | ($c | quartiles) as $cq
     | ($sign * ($cq.median - $pq.median) / $pq.median) as $worse
     | ([($p | length), ($c | length)] | min) as $n
     | ([range(0; $n) | select($sign * ($c[.] - $p[.]) < 0)] | length) as $wins
     | {workload: $w, metric: $m.name, bound: $m.bound, parent: $pq, change: $cq,
        ratio: ($cq.median / $pq.median), wins: $wins,
        verdict: (if $worse > $m.bound then "worse"
                  elif ($pq.q3 - $pq.q1) / $pq.median > $m.bound
                       and ([$c[] | $sign * .] | max) >= ([$p[] | $sign * .] | min) then "unresolved"
                  else "no worse" end),
        gain: (if 10 * $wins >= 9 * $n and $sign * ($pq.median - $cq.median) > $pq.q3 - $pq.q1
               then "resolved" else "unresolved" end)}]}
' "$runs" | tee "$set_dir/result.json"

jq -c --arg date "$(date -u +%F)" --arg host "$(uname -srm), $(nproc) vCPU" --arg go "$(go env GOVERSION)" \
    '{date: $date, parent, change, host: $host, go: $go, pairs, seconds, failed, rows: [.rows[] | {workload, metric, parent, change, verdict, gain}]}' \
    "$set_dir/result.json" >>"$root/BENCH_TRAJECTORY.jsonl"

jq -r '
def f: if . == (. | floor) then tostring else (. * 10000 | round / 10000 | tostring) end;
def cell(m): if m == "wire_bytes_per_reading" then map(tostring) else map(f) end | join(" / ");
"| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | ratio | wins | verdict | gain |",
"|---|---|---|---|---|---|---|---|",
(.pairs as $n | .rows[] | .metric as $m
    | "| \(.workload) | \($m) | \([.parent.q1, .parent.median, .parent.q3] | cell($m)) | \([.change.q1, .change.median, .change.q3] | cell($m)) | \(.ratio * 1000 | round / 1000) | \(.wins)/\($n) | \(.verdict) | \(.gain) |"),
"| | pairs=\(.pairs) failed parent=\(.failed.parent) change=\(.failed.change) | | | | | | |"
' "$set_dir/result.json"
