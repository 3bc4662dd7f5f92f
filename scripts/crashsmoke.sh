#!/bin/sh
# crashsmoke.sh — end-to-end kill -9 recovery check on the real
# binaries, shell-level (the in-process differential suite lives in
# cmd/assocd/crash_test.go; this proves the same property for the
# shipped assocd + loadgen with nothing mocked):
#
#   1. reference: stream a 20k-event trace into a journaled daemon
#      uninterrupted; record /v1/assoc and /v1/loads
#   2. crash: stream the same trace paced, SIGKILL the daemon
#      mid-stream, restart it on the same data dir and port, let
#      loadgen reconnect and resume
#   3. the recovered run's final assoc and loads must be
#      byte-identical to the reference, loadgen must report at least
#      one reconnect, and the restarted daemon must log a recovery
#   4. the data dir holds exactly one scenario file (the scenario is
#      stored once, not per checkpoint) and at most two checkpoints
set -eu

cd "$(dirname "$0")/.."

dir=$(mktemp -d)
dpid=""
lg=""
# Kill the daemon and the background loadgen on every exit path, so a
# failed or interrupted run leaves no process behind.
trap 'for p in $dpid $lg; do kill -9 "$p" 2>/dev/null; done; rm -rf "$dir"' EXIT

echo "== build"
go build -o "$dir/assocd" ./cmd/assocd
go build -o "$dir/loadgen" ./cmd/loadgen

# start_daemon <data-dir> <addr> <log>: launches assocd -serve and
# waits until it announces its listen address; sets $dpid and $base.
start_daemon() {
    "$dir/assocd" -serve -addr "$2" -shards 2 -data-dir "$1" \
        -fsync interval -snapshot-events 256 >/dev/null 2>"$3" &
    dpid=$!
    base=""
    for _ in $(seq 1 100); do
        base=$(sed -n 's/^assocd: serving on \(http:.*\)$/\1/p' "$3")
        test -n "$base" && return 0
        kill -0 "$dpid" 2>/dev/null || { cat "$3" >&2; return 1; }
        sleep 0.1
    done
    echo "crashsmoke: daemon did not come up" >&2
    return 1
}

LG="$dir/loadgen -aps 20 -users 80 -sessions 3 -active 60 -seed 3 -events 20000 -window 256"

echo "== reference run (uninterrupted)"
start_daemon "$dir/ref-data" 127.0.0.1:0 "$dir/ref-daemon.log"
$LG -addr "$base" -out "$dir/ref.json" 2>"$dir/ref-loadgen.log"
curl -fsS "$base/v1/assoc" >"$dir/ref-assoc.json"
curl -fsS "$base/v1/loads" >"$dir/ref-loads.json"
kill -9 "$dpid"; wait "$dpid" 2>/dev/null || true; dpid=""

echo "== crash run (SIGKILL mid-stream, restart, resume)"
start_daemon "$dir/data" 127.0.0.1:0 "$dir/daemon-1.log"
addr=${base#http://}
# Paced to ~5s so the kill lands mid-stream with durable progress.
$LG -addr "$base" -rate 4000 -session smoke -max-reconnects 16 \
    -out "$dir/crash.json" 2>"$dir/loadgen.log" &
lg=$!
sleep 1.5
if ! kill -0 "$lg" 2>/dev/null; then
    echo "crashsmoke: loadgen finished before the kill; nothing was tested" >&2
    exit 1
fi
kill -9 "$dpid"; wait "$dpid" 2>/dev/null || true; dpid=""
start_daemon "$dir/data" "$addr" "$dir/daemon-2.log"
if ! wait "$lg"; then
    echo "crashsmoke: loadgen failed to finish after the restart" >&2
    cat "$dir/loadgen.log" >&2
    exit 1
fi
lg=""
curl -fsS "$base/v1/assoc" >"$dir/assoc.json"
curl -fsS "$base/v1/loads" >"$dir/loads.json"

echo "== verify"
grep -q 'assocd: recovered snapshot\|assocd: replayed' "$dir/daemon-2.log" || {
    echo "crashsmoke: restarted daemon logged no recovery" >&2
    cat "$dir/daemon-2.log" >&2
    exit 1
}
grep -q '"reconnects": *[1-9]' "$dir/crash.json" || {
    echo "crashsmoke: loadgen report shows no reconnects" >&2
    cat "$dir/crash.json" >&2
    exit 1
}
cmp "$dir/ref-assoc.json" "$dir/assoc.json" || {
    echo "crashsmoke: recovered associations diverge from the reference" >&2
    exit 1
}
cmp "$dir/ref-loads.json" "$dir/loads.json" || {
    echo "crashsmoke: recovered loads diverge from the reference" >&2
    exit 1
}
scenarios=$(find "$dir/data" -maxdepth 1 -name 'scenario-*' | wc -l)
snaps=$(find "$dir/data" -maxdepth 1 -name 'snap-*' | wc -l)
if [ "$scenarios" -ne 1 ] || [ "$snaps" -gt 2 ]; then
    echo "crashsmoke: data dir holds $scenarios scenario files and $snaps checkpoints, want 1 and at most 2:" >&2
    ls -l "$dir/data" >&2
    exit 1
fi

echo "ok: killed mid-stream, resumed, state matches the uninterrupted run"
