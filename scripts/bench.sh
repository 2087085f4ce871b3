#!/bin/sh
# Regenerate the machine-readable performance reports:
#  - BENCH_PR1.json: breakpoint-solver / parallel-runner / event-freelist
#    optimization vs its seed baselines (README "Performance").
#  - BENCH_PR4.json: observability hook overhead — channel ops with hooks
#    disabled vs metrics installed, compared against the pre-probe tree's
#    hot path (DESIGN.md §9). The pre-probe ns/op baselines are measured
#    by checking the PR4_SEED_REV commit out into a throwaway worktree
#    and parsing the "runtime:" row of its own Table 2 output, so both
#    sides run on the same host back to back.
#  - BENCH_PR5.json: simulation-core throughput — bucket-queue scheduler
#    vs the heap oracle, SPSC channel fast path vs the locked oracle, and
#    the 1000-run campaign wall-clock against the PR5_SEED_REV worktree
#    (timed here, fed in via -seed-campaign-ns). The same worktree's DES
#    benchmarks are diffed against the new tree with benchstat when it is
#    installed; otherwise both raw outputs are printed.
#  - BENCH_PR9.json: detection-latency distribution over generated
#    topologies with the flight recorder armed, each latency checked
#    against its analytic (m,k) bound and its forensic reconstruction
#    (DESIGN.md §14). The probe-hook overhead rows are compared against
#    the pre-recorder tree (PR9_SEED_REV) with the same worktree recipe
#    as BENCH_PR4, so "what did the recorder hooks cost" is measured on
#    one host back to back.
# Finishes with the go-bench view of the same targets for eyeballing.
set -eu
cd "$(dirname "$0")/.."

go run ./cmd/ftpnsim -exp bench -out BENCH_PR1.json

echo
echo "== BENCH_PR4: observability hook overhead =="
PR4_SEED_REV=${PR4_SEED_REV:-2d673fa}
seed_sel=0
seed_rep=0
if git rev-parse --verify --quiet "$PR4_SEED_REV^{commit}" >/dev/null; then
    wt=$(mktemp -d)
    git worktree add --detach --force "$wt" "$PR4_SEED_REV" >/dev/null
    line=$( (cd "$wt" && go run ./cmd/ftpnsim -exp table2 -app mjpeg -runs 2 -tokens 120) \
        | grep 'runtime: selector' || true)
    git worktree remove --force "$wt" >/dev/null
    seed_sel=$(printf '%s' "$line" | sed -n 's/.*selector \([0-9][0-9]*\)ns\/op.*/\1/p')
    seed_rep=$(printf '%s' "$line" | sed -n 's/.*replicator \([0-9][0-9]*\)ns\/op.*/\1/p')
    echo "seed ($PR4_SEED_REV): selector ${seed_sel:-?}ns/op, replicator ${seed_rep:-?}ns/op"
else
    echo "seed revision $PR4_SEED_REV unavailable; skipping seed comparison"
fi
go run ./cmd/ftpnsim -exp obsbench -out BENCH_PR4.json \
    -seed-sel-ns "${seed_sel:-0}" -seed-rep-ns "${seed_rep:-0}"

echo
echo "== BENCH_PR5: simulation-core throughput =="
PR5_SEED_REV=${PR5_SEED_REV:-e403b6e}
seed_campaign_ns=0
old_bench=""
if git rev-parse --verify --quiet "$PR5_SEED_REV^{commit}" >/dev/null; then
    wt=$(mktemp -d)
    git worktree add --detach --force "$wt" "$PR5_SEED_REV" >/dev/null
    (cd "$wt" && go build -o ftpnsim ./cmd/ftpnsim)
    start=$(date +%s%N)
    "$wt/ftpnsim" -exp campaign -n 1000 -seed 1 -out /dev/null >/dev/null
    seed_campaign_ns=$(( $(date +%s%N) - start ))
    echo "seed ($PR5_SEED_REV): 1000-run campaign took ${seed_campaign_ns}ns"
    old_bench=$(mktemp)
    if ! (cd "$wt" && go test -run xxx -bench . -benchmem -count 5 ./internal/des/) >"$old_bench"; then
        old_bench=""
    fi
    git worktree remove --force "$wt" >/dev/null
else
    echo "seed revision $PR5_SEED_REV unavailable; skipping seed comparison"
fi
go run ./cmd/ftpnsim -exp corebench -n 1000 \
    -seed-campaign-ns "$seed_campaign_ns" -out BENCH_PR5.json
if [ -n "$old_bench" ]; then
    new_bench=$(mktemp)
    go test -run xxx -bench . -benchmem -count 5 ./internal/des/ >"$new_bench"
    if command -v benchstat >/dev/null 2>&1; then
        benchstat "$old_bench" "$new_bench"
    else
        echo "benchstat not installed; raw DES benchmark outputs follow"
        echo "--- seed ($PR5_SEED_REV)"
        cat "$old_bench"
        echo "--- this tree"
        cat "$new_bench"
    fi
fi

echo
echo "== BENCH_PR9: detection-latency + flight-recorder overhead =="
PR9_SEED_REV=${PR9_SEED_REV:-42b1fb0}
seed_sel=0
seed_rep=0
if git rev-parse --verify --quiet "$PR9_SEED_REV^{commit}" >/dev/null; then
    wt=$(mktemp -d)
    git worktree add --detach --force "$wt" "$PR9_SEED_REV" >/dev/null
    line=$( (cd "$wt" && go run ./cmd/ftpnsim -exp table2 -app mjpeg -runs 2 -tokens 120) \
        | grep 'runtime: selector' || true)
    git worktree remove --force "$wt" >/dev/null
    seed_sel=$(printf '%s' "$line" | sed -n 's/.*selector \([0-9][0-9]*\)ns\/op.*/\1/p')
    seed_rep=$(printf '%s' "$line" | sed -n 's/.*replicator \([0-9][0-9]*\)ns\/op.*/\1/p')
    echo "seed ($PR9_SEED_REV): selector ${seed_sel:-?}ns/op, replicator ${seed_rep:-?}ns/op"
else
    echo "seed revision $PR9_SEED_REV unavailable; skipping seed comparison"
fi
go run ./cmd/ftpnsim -exp latbench -n 500 -seed 1 -out BENCH_PR9.json \
    -seed-sel-ns "${seed_sel:-0}" -seed-rep-ns "${seed_rep:-0}"

echo
echo "== go test -bench view =="
go test -run xxx -bench 'Table2MJPEG' -benchmem .
go test -run xxx -bench 'SupDiff|DetectionBound|DelayBound|OutputBound$' -benchmem ./internal/rtc/
go test -run xxx -bench . -benchmem ./internal/des/
go test -run xxx -bench 'SelectorHotPath|CounterInc|HistogramObserve|FlightRecord' -benchmem ./internal/ft/ ./internal/obs/
