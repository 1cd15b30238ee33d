#!/bin/sh
# check.sh is the repo's verify entrypoint: formatting, vet, build,
# tests (with the race detector) and the project's own static analysis.
# Run from anywhere; it cds to the repo root first.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# Artifact directory shared by the SARIF and repro-smoke steps. CI sets
# CHECK_ARTIFACT_DIR to a directory it uploads; local runs use a
# throwaway temp dir.
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
    tmp="$CHECK_ARTIFACT_DIR"
    mkdir -p "$tmp"
else
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
fi

echo "== iprunelint"
status=0
go run ./cmd/iprunelint -cache -cachestats -json ./... > "$tmp/iprunelint.json" || status=$?
cat "$tmp/iprunelint.json"
[ "$status" -eq 0 ] || exit "$status"

# Cache soundness: an immediate rerun over unchanged sources must be
# fully warm — any miss or invalidation means the cache key omits an
# input that the first run just wrote, i.e. the cache would silently
# serve stale diagnostics after that input changes.
echo "== iprunelint cache soundness"
warm=$(go run ./cmd/iprunelint -cache -cachestats ./... 2>&1 >/dev/null)
echo "$warm"
case "$warm" in
*" 0 miss(es), 0 invalidation(s)"*) ;;
*)
    echo "iprunelint: warm rerun was not fully cached (unsound cache key?)" >&2
    exit 1
    ;;
esac

# Budget audit: the measured energy of an intermittent run must respect
# the same per-power-cycle bound the regionbudget analyzer proves
# statically, and the lint report above must carry zero regionbudget
# findings.
echo "== budget audit"
go run ./cmd/isim -model HAR -power weak -audit -auditlint "$tmp/iprunelint.json"

# Regenerate the findings as SARIF for code scanning and validate the
# emitter's output shape. Exit 1 means findings (already gated by the
# JSON run above); anything higher is an analyzer failure.
echo "== iprunelint sarif"
status=0
go run ./cmd/iprunelint -cache -sarif ./... > "$tmp/iprunelint.sarif" || status=$?
[ "$status" -le 1 ] || exit "$status"
go run scripts/sarifcheck.go "$tmp/iprunelint.sarif"

# Trace-pipeline smoke test: a quick-scale fig2 regeneration must leave
# a parseable, non-empty Chrome trace artifact behind.
echo "== repro trace smoke"
go run ./cmd/repro -scale quick -artifacts "$tmp" -q fig2 > /dev/null
test -s "$tmp/fig2/trace.json"
go run scripts/jsoncheck.go "$tmp/fig2/trace.json"

# Fleet scenario smoke: the shipped scenario must validate, pass its
# assertions (ifleet run exits non-zero on a violation), and produce
# byte-identical summaries and traces at any fan-out width.
echo "== fleet smoke"
go run ./cmd/ifleet validate examples/fleet/smoke.json
go run ./cmd/ifleet run -workers 1 -trace "$tmp/fleet1.trace" examples/fleet/smoke.json > "$tmp/fleet1.out"
go run ./cmd/ifleet run -workers 4 -trace "$tmp/fleet4.trace" examples/fleet/smoke.json > "$tmp/fleet4.out"
cmp "$tmp/fleet1.out" "$tmp/fleet4.out"
cmp "$tmp/fleet1.trace" "$tmp/fleet4.trace"
cat "$tmp/fleet1.out"

# Sweep smoke: an isim power sweep must match its recorded golden and
# print the same points at any fan-out width. The header line names the
# worker count, so the width comparison drops it.
echo "== sweep smoke"
sups=2mW,4mW,8mW,strong,weak,continuous
go run ./cmd/isim -model SQN -sweep "$sups" -workers 1 > "$tmp/sweep1.out"
go run ./cmd/isim -model SQN -sweep "$sups" -workers 2 > "$tmp/sweep2.out"
cmp "$tmp/sweep1.out" cmd/isim/testdata/sweep_sqn.golden
grep -v '^sweep: ' "$tmp/sweep1.out" > "$tmp/sweep1.points"
grep -v '^sweep: ' "$tmp/sweep2.out" > "$tmp/sweep2.points"
cmp "$tmp/sweep1.points" "$tmp/sweep2.points"
cat "$tmp/sweep1.out"

# Fuzz smoke: a short bounded run of each parser fuzz target, on top of
# the checked-in seed corpus that go test already replays. The contract
# is an error for malformed input, never a panic. Each entry is
# <package>:<target>.
echo "== fuzz smoke"
for spec in obs:FuzzReadStatsCSV obs:FuzzReadHistogramsCSV power:FuzzParseSupply energy:FuzzParseBudget; do
    go test -run='^$' -fuzz="^${spec#*:}\$" -fuzztime=10s "./internal/${spec%%:*}"
done

# Benchmark regression gate: when at least two BENCH_<date>.json
# snapshots exist, diff the two most recent (lexical date sort) and fail
# on hot-path regressions. One snapshot alone is just a baseline.
snaps=$(ls BENCH_*.json 2>/dev/null | sort | tail -2 || true)
if [ "$(printf '%s\n' "$snaps" | grep -c .)" -ge 2 ]; then
    old=$(printf '%s\n' "$snaps" | head -1)
    new=$(printf '%s\n' "$snaps" | tail -1)
    echo "== benchdiff $old -> $new"
    go run ./cmd/benchdiff "$old" "$new"
fi

echo "OK"
