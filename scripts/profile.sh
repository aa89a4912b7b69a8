#!/bin/sh
# Profile a live dkf-server under generated load.
#
# Usage: scripts/profile.sh cpu|heap [outfile]
#
# Starts dkf-server with one query per load source, streams $SOURCES
# dkf-source processes (httptraffic, $READINGS readings each, a seed
# apiece) against it, and fetches the requested profile from the admin
# endpoint's /debug/pprof while ingest is running. Inspect the result
# with `go tool pprof <outfile>`.
set -eu

KIND="${1:?usage: profile.sh cpu|heap [outfile]}"
OUT="${2:-/tmp/dkf-$KIND.pprof}"
GO="${GO:-go}"
LISTEN="${LISTEN:-127.0.0.1:7474}"
ADMIN="${ADMIN:-127.0.0.1:7475}"
SOURCES="${SOURCES:-4}"
READINGS="${READINGS:-200000}"
SECONDS_CPU="${SECONDS_CPU:-5}"

case "$KIND" in
cpu)  PPROF_URL="http://$ADMIN/debug/pprof/profile?seconds=$SECONDS_CPU" ;;
heap) PPROF_URL="http://$ADMIN/debug/pprof/heap" ;;
*)    echo "profile.sh: unknown profile kind '$KIND' (want cpu or heap)" >&2; exit 2 ;;
esac

BIN="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM
"$GO" build -o "$BIN" ./cmd/dkf-server ./cmd/dkf-source

QUERY_FLAGS=""
i=0
while [ "$i" -lt "$SOURCES" ]; do
    QUERY_FLAGS="$QUERY_FLAGS -query q$i:load-$i:linear:0.5"
    i=$((i + 1))
done

# shellcheck disable=SC2086  # QUERY_FLAGS is a deliberate word list
"$BIN/dkf-server" -listen "$LISTEN" -admin "$ADMIN" -stats 0 $QUERY_FLAGS &
SERVER_PID=$!

# Wait for the admin endpoint to come up.
i=0
until curl -sf "http://$ADMIN/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 50 ] || { echo "profile.sh: admin endpoint never came up" >&2; exit 1; }
    sleep 0.1
done

LOAD_PIDS=""
i=0
while [ "$i" -lt "$SOURCES" ]; do
    "$BIN/dkf-source" -server "$LISTEN" -source "load-$i" -dataset httptraffic -n "$READINGS" \
        -seed "$((i + 1))" -log-level warn &
    LOAD_PIDS="$LOAD_PIDS $!"
    i=$((i + 1))
done

echo "fetching $PPROF_URL ..."
curl -sf -o "$OUT" "$PPROF_URL"

# shellcheck disable=SC2086  # LOAD_PIDS is a deliberate word list
wait $LOAD_PIDS
kill "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true

echo "profile written to $OUT"
echo "inspect with: $GO tool pprof $OUT"
