#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite.
#
#   scripts/ci.sh          # everything (what CI runs)
#   scripts/ci.sh --fast   # skip the release build, test in debug only
#
# All cargo invocations run --offline: the workspace vendors its
# third-party surface as in-repo shims (see shims/README.md), so a CI
# host never needs the network.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

if [[ "$FAST" == "0" ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --offline --release
fi

echo "==> cargo test (tier-1)"
cargo test --offline -q

echo "==> fault suite + fuzz smoke (release)"
# The adversarial battery and the 30k-case mutational fuzz sweep rerun
# in release mode: optimization changes overflow/bounds behaviour, and
# these suites exist precisely to catch decoder edges.
cargo test --offline --release -q -p nx-core \
    --test adversarial --test fuzz_smoke --test fault_recovery

echo "==> decode-path panic gate"
# No .unwrap()/.expect( in non-test code on the untrusted-input decode
# paths: a hostile stream must map to a typed error, never a panic.
# (#[cfg(test)] modules sit at the bottom of each file; everything
# before that marker is production code.)
DECODE_PATHS=(
    crates/deflate/src/decoder.rs
    crates/deflate/src/huffman/decode.rs
    # Parallel inflate feeds untrusted member offsets and seek-index bit
    # offsets through this.
    crates/core/src/parallel_inflate.rs
    crates/deflate/src/bitio.rs
    crates/deflate/src/gzip.rs
    crates/deflate/src/zlib.rs
    crates/deflate/src/stream.rs
    # The scratch/pool layer sits on every reuse-path request.
    crates/core/src/scratch.rs
    crates/p842/src/decode.rs
    crates/p842/src/bitio.rs
    crates/core/src/framing.rs
    crates/core/src/software.rs
    crates/accel/src/decomp.rs
    # Telemetry emit/export paths run inside every instrumented request;
    # an observability layer must never be the thing that panics.
    crates/telemetry/src/histogram.rs
    crates/telemetry/src/registry.rs
    crates/telemetry/src/sink.rs
    crates/telemetry/src/span.rs
    crates/telemetry/src/export.rs
    crates/telemetry/src/clock.rs
    crates/telemetry/src/buckets.rs
    # The PR 8 observability layer: trace propagation runs inside every
    # request, the SLO monitor inside every completion, and the flight
    # recorder must survive the very faults it exists to record.
    crates/telemetry/src/trace.rs
    crates/telemetry/src/slo.rs
    crates/telemetry/src/flight.rs
    # Encoder hot paths: the level ladder routes arbitrary user input
    # through these, so they carry the same no-panic contract.
    crates/deflate/src/encoder.rs
    crates/deflate/src/lz77/mod.rs
    crates/deflate/src/lz77/hash4.rs
    # The batched speculative matcher is the default Fastest/Fast engine,
    # so arbitrary user input flows through its window walk and cover
    # resolution on every throughput-rung compress call.
    crates/deflate/src/lz77/batch.rs
    crates/deflate/src/lz77/cover.rs
    # Canned profiles: the one-pass encoder runs on every small-payload
    # request and the registry deserializer parses untrusted startup
    # bytes -- both must fail with typed errors.
    crates/deflate/src/profile.rs
    # The multi-tenant service front end handles hostile tenants by
    # design: admission, scheduling and the storm driver must reject
    # with typed errors, never panic.
    crates/core/src/service/mod.rs
    crates/core/src/service/sched.rs
    crates/core/src/service/loadgen.rs
)
GATE_FAIL=0
for f in "${DECODE_PATHS[@]}"; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{print FILENAME":"FNR": "$0}' "$f")
    if [[ -n "$hits" ]]; then
        echo "panic-prone call on a decode path:"
        echo "$hits"
        GATE_FAIL=1
    fi
done
if [[ "$GATE_FAIL" != "0" ]]; then
    echo "==> FAIL: decode paths must return typed errors, not panic"
    exit 1
fi

if [[ "$FAST" == "0" ]]; then
    echo "==> telemetry overhead gate (E19, bar 5%)"
    # E19 interleaves instrumented vs no-op-sink runs and double-runs a
    # pinned faulted trace; it writes BENCH_OBS.json + BENCH_TRACE.json.
    cargo run --offline --release -p nx-bench --bin tables -- e19 > /dev/null
    max_pct=$(awk -F'"max_overhead_pct": ' '/max_overhead_pct/{split($2,a,","); print a[1]}' BENCH_OBS.json)
    if ! awk -v p="$max_pct" 'BEGIN{exit !(p <= 5.0)}'; then
        # Overhead percentages are a ratio of two noisy timings; give the
        # gate the same one-re-measure damper as the E20-E23 gates below.
        echo "    telemetry overhead ${max_pct}% above the 5% bar; re-measuring once"
        cargo run --offline --release -p nx-bench --bin tables -- e19 > /dev/null
        max_pct=$(awk -F'"max_overhead_pct": ' '/max_overhead_pct/{split($2,a,","); print a[1]}' BENCH_OBS.json)
    fi
    if ! awk -v p="$max_pct" 'BEGIN{exit !(p <= 5.0)}'; then
        echo "==> FAIL: telemetry overhead ${max_pct}% exceeds the 5% bar"
        exit 1
    fi
    echo "    max overhead: ${max_pct}% (bar 5%)"
    if ! grep -q '"trace_deterministic": true' BENCH_OBS.json; then
        echo "==> FAIL: pinned-seed trace dumps were not byte-identical"
        exit 1
    fi
    echo "==> Chrome trace validation"
    # The exporter hand-rolls JSON; prove it parses with a real parser.
    python3 -m json.tool BENCH_TRACE.json > /dev/null
    echo "    BENCH_TRACE.json is well-formed JSON"

    echo "==> inflate superloop gate (E20, regression bar 10%)"
    # Snapshot the committed baseline before e20 overwrites the file,
    # then fail if aggregate inflate throughput regressed by >10%.
    baseline=$(awk -F'"section": "summary".*"inflate_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_KERNELS.json)
    cargo run --offline --release -p nx-bench --bin tables -- e20 > /dev/null
    fresh=$(awk -F'"section": "summary".*"inflate_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_KERNELS.json)
    python3 -m json.tool BENCH_KERNELS.json > /dev/null
    if ! grep -q '"all_identical": true' BENCH_KERNELS.json; then
        echo "==> FAIL: fast and careful decoders diverged"
        exit 1
    fi
    if [[ -n "$baseline" ]]; then
        if ! awk -v f="$fresh" -v b="$baseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            # Bench-host throughput swings run to run on shared machines;
            # re-measure once before declaring a regression (same damper
            # as the E21/E22 gates below).
            echo "    inflate ${fresh} MB/s below 0.9x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e20 > /dev/null
            fresh=$(awk -F'"section": "summary".*"inflate_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_KERNELS.json)
        fi
        if ! awk -v f="$fresh" -v b="$baseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            echo "==> FAIL: inflate ${fresh} MB/s regressed >10% vs committed ${baseline} MB/s"
            exit 1
        fi
        echo "    inflate: ${fresh} MB/s (committed baseline ${baseline} MB/s)"
    else
        echo "    no committed baseline found; recorded ${fresh} MB/s"
    fi

    echo "==> deflate ladder gate (E21, regression bar 10%)"
    # Same pattern as E20: snapshot the committed default-level deflate
    # throughput, rerun the sweep, fail on a >10% regression, and require
    # both our decoder and gzip(1) to have verified every output.
    dbaseline=$(awk -F'"section": "summary".*"deflate_default_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_DEFLATE.json)
    cargo run --offline --release -p nx-bench --bin tables -- e21 > /dev/null
    dfresh=$(awk -F'"section": "summary".*"deflate_default_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_DEFLATE.json)
    python3 -m json.tool BENCH_DEFLATE.json > /dev/null
    if ! grep -q '"all_identical": true' BENCH_DEFLATE.json; then
        echo "==> FAIL: an encoder output failed to round-trip through our decoder"
        exit 1
    fi
    if grep -q '"gzip_verified": false' BENCH_DEFLATE.json; then
        echo "==> FAIL: gzip(1) rejected an encoder output"
        exit 1
    fi
    if grep -q '"ladder_monotone": false' BENCH_DEFLATE.json; then
        echo "==> FAIL: a slower ladder rung produced a >2% larger output"
        exit 1
    fi
    if [[ -n "$dbaseline" ]]; then
        if ! awk -v f="$dfresh" -v b="$dbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            # Compression timing is noisier than inflate on shared hosts;
            # re-measure once before declaring a regression.
            echo "    deflate ${dfresh} MB/s below 0.9x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e21 > /dev/null
            dfresh=$(awk -F'"section": "summary".*"deflate_default_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_DEFLATE.json)
        fi
        if ! awk -v f="$dfresh" -v b="$dbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            echo "==> FAIL: deflate ${dfresh} MB/s regressed >10% vs committed ${dbaseline} MB/s"
            exit 1
        fi
        echo "    deflate: ${dfresh} MB/s (committed baseline ${dbaseline} MB/s)"
    else
        echo "    no committed baseline found; recorded ${dfresh} MB/s"
    fi

    echo "==> parallel inflate gate (E22, regression bar 10%)"
    # Same pattern as E21: snapshot the committed 4-worker multi-member
    # decode throughput, rerun the sweep, fail on a >10% regression, and
    # require every parallel decode (member fan-out, single streams on
    # the serial core, seek-index reads, prefix decodes) to have matched
    # the serial bytes exactly.
    pbaseline=$(awk -F'"section": "summary".*"multi_member_4w_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_INFLATE_PAR.json)
    cargo run --offline --release -p nx-bench --bin tables -- e22 > /dev/null
    pfresh=$(awk -F'"section": "summary".*"multi_member_4w_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_INFLATE_PAR.json)
    python3 -m json.tool BENCH_INFLATE_PAR.json > /dev/null
    if ! grep -q '"all_identical": true' BENCH_INFLATE_PAR.json; then
        echo "==> FAIL: a parallel decode diverged from the serial bytes"
        exit 1
    fi
    if [[ -n "$pbaseline" ]]; then
        if ! awk -v f="$pfresh" -v b="$pbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            # Thread scheduling is noisy on shared hosts; re-measure once
            # before declaring a regression.
            echo "    parallel inflate ${pfresh} MB/s below 0.9x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e22 > /dev/null
            pfresh=$(awk -F'"section": "summary".*"multi_member_4w_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_INFLATE_PAR.json)
        fi
        if ! awk -v f="$pfresh" -v b="$pbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            echo "==> FAIL: parallel inflate ${pfresh} MB/s regressed >10% vs committed ${pbaseline} MB/s"
            exit 1
        fi
        echo "    parallel inflate: ${pfresh} MB/s (committed baseline ${pbaseline} MB/s)"
    else
        echo "    no committed baseline found; recorded ${pfresh} MB/s"
    fi
    # The seek index exists to beat a prefix decode: on the two deep
    # rows (4 MiB and 8 MiB - 256 KiB) a ranged read through the index
    # must cost less than decoding the member up to the range's end.
    python3 - <<'EOF'
import json

with open("BENCH_INFLATE_PAR.json") as f:
    rows = json.load(f)
deep_offsets = (4 << 20, (8 << 20) - (256 << 10))
deep = [r for r in rows if r["section"] == "seek" and r["offset"] in deep_offsets]
assert len(deep) == 2, f"expected the two deep seek rows, found {len(deep)}"
for r in deep:
    print(f"    seek at {r['offset']}: {r['seek_us']} us vs prefix decode {r['prefix_decode_us']} us")
    if not r["seek_us"] < r["prefix_decode_us"]:
        raise SystemExit(f"==> FAIL: seek at offset {r['offset']} is no faster than a prefix decode")
EOF

    echo "==> speculative matcher gate (E25, regression bar 10%)"
    # Snapshot the committed mixed-corpus speculative Fastest throughput,
    # rerun the frontier sweep, fail on a >10% regression, and require
    # the run's own acceptance booleans: the speculative engine must beat
    # the forced-sequential ladder on speed without losing ratio, and
    # every output must have round-tripped through our inflate and
    # gzip(1).
    xbaseline=$(awk -F'"section": "summary".*"speculative_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SPECULATIVE.json)
    cargo run --offline --release -p nx-bench --bin tables -- e25 > /dev/null
    xfresh=$(awk -F'"section": "summary".*"speculative_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SPECULATIVE.json)
    python3 -m json.tool BENCH_SPECULATIVE.json > /dev/null
    if ! grep -q '"all_identical": true' BENCH_SPECULATIVE.json; then
        echo "==> FAIL: a speculative output failed to round-trip through our decoder"
        exit 1
    fi
    if grep -q '"gzip_verified": false' BENCH_SPECULATIVE.json; then
        echo "==> FAIL: gzip(1) rejected a speculative output"
        exit 1
    fi
    if ! grep -q '"spec_ratio_not_worse": true' BENCH_SPECULATIVE.json; then
        echo "==> FAIL: speculative mixed-corpus ratio fell below the sequential ladder"
        exit 1
    fi
    if ! grep -q '"spec_faster_than_sequential": true' BENCH_SPECULATIVE.json; then
        # Head-to-head speed on a shared host is noisy; one re-measure.
        echo "    speculative engine did not beat sequential; re-measuring once"
        cargo run --offline --release -p nx-bench --bin tables -- e25 > /dev/null
        xfresh=$(awk -F'"section": "summary".*"speculative_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SPECULATIVE.json)
        if ! grep -q '"spec_faster_than_sequential": true' BENCH_SPECULATIVE.json; then
            echo "==> FAIL: speculative engine slower than the sequential ladder at Fastest"
            exit 1
        fi
    fi
    if [[ -n "$xbaseline" ]]; then
        if ! awk -v f="$xfresh" -v b="$xbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            # Same one-re-measure damper as E20-E24.
            echo "    speculative ${xfresh} MB/s below 0.9x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e25 > /dev/null
            xfresh=$(awk -F'"section": "summary".*"speculative_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SPECULATIVE.json)
        fi
        if ! awk -v f="$xfresh" -v b="$xbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            echo "==> FAIL: speculative ${xfresh} MB/s regressed >10% vs committed ${xbaseline} MB/s"
            exit 1
        fi
        echo "    speculative: ${xfresh} MB/s (committed baseline ${xbaseline} MB/s)"
    else
        echo "    no committed baseline found; recorded ${xfresh} MB/s"
    fi

    echo "==> canned-profile gate (E26, regression bar 10%)"
    # Snapshot the committed small-payload canned throughput, rerun the
    # 1-16 KiB sweep, fail on a >10% regression, and require the run's
    # own acceptance booleans: every canned output must round-trip
    # through our inflate (and gzip(1) for the non-FDICT members), and
    # the dictionary-primed one-pass path must hold aggregate ratio at
    # or above the default ladder.
    cbaseline=$(awk -F'"section": "summary".*"canned_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SMALL.json)
    cargo run --offline --release -p nx-bench --bin tables -- e26 > /dev/null
    cfresh=$(awk -F'"section": "summary".*"canned_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SMALL.json)
    python3 -m json.tool BENCH_SMALL.json > /dev/null
    if ! grep -q '"all_identical": true' BENCH_SMALL.json; then
        echo "==> FAIL: a canned output failed to round-trip through our decoder"
        exit 1
    fi
    if grep -q '"gzip_verified": false' BENCH_SMALL.json; then
        echo "==> FAIL: gzip(1) rejected a canned gzip member"
        exit 1
    fi
    if ! grep -q '"ratio_not_worse": true' BENCH_SMALL.json; then
        echo "==> FAIL: canned aggregate ratio fell below the default ladder"
        exit 1
    fi
    if [[ -n "$cbaseline" ]]; then
        if ! awk -v f="$cfresh" -v b="$cbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            # Same one-re-measure damper as E20-E25.
            echo "    canned ${cfresh} MB/s below 0.9x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e26 > /dev/null
            cfresh=$(awk -F'"section": "summary".*"canned_mb_per_s": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SMALL.json)
        fi
        if ! awk -v f="$cfresh" -v b="$cbaseline" 'BEGIN{exit !(f >= 0.9 * b)}'; then
            echo "==> FAIL: canned ${cfresh} MB/s regressed >10% vs committed ${cbaseline} MB/s"
            exit 1
        fi
        echo "    canned one-pass: ${cfresh} MB/s (committed baseline ${cbaseline} MB/s)"
    else
        echo "    no committed baseline found; recorded ${cfresh} MB/s"
    fi

    echo "==> multi-tenant service gate (E23: fairness, QoS, tail latency)"
    # The storm runs on a virtual cycle clock, so fairness and latency are
    # deterministic; only the coalescing-identity pass touches threads
    # (and checks bytes, not time). Snapshot the committed Latency-class
    # p99 before e23 overwrites the file, then gate:
    #   - credit conservation: zero violations, clean and chaos storms
    #   - Jain fairness >= 0.8 over per-tenant goodput
    #   - QoS priority: Latency-class p99 under Background-class p50
    #   - coalesced batches byte-identical to individual submissions
    #   - tail latency within 1.1x the committed baseline
    sbaseline=$(awk -F'"section": "summary".*"latency_p99_us": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SERVICE.json)
    cargo run --offline --release -p nx-bench --bin tables -- e23 > /dev/null
    sfresh=$(awk -F'"section": "summary".*"latency_p99_us": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SERVICE.json)
    python3 -m json.tool BENCH_SERVICE.json > /dev/null
    if ! grep -q '"credit_violations": 0' BENCH_SERVICE.json; then
        echo "==> FAIL: the storm leaked window credits"
        exit 1
    fi
    if ! grep -q '"chaos_credit_violations": 0' BENCH_SERVICE.json; then
        echo "==> FAIL: fault recovery leaked window credits"
        exit 1
    fi
    if ! grep -q '"qos_priority_holds": true' BENCH_SERVICE.json; then
        echo "==> FAIL: Latency-class p99 not under Background-class p50"
        exit 1
    fi
    if ! grep -q '"coalesce_identical": true' BENCH_SERVICE.json; then
        echo "==> FAIL: a coalesced batch diverged from individual submissions"
        exit 1
    fi
    jain=$(awk -F'"section": "summary".*"jain_fairness": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SERVICE.json)
    if ! awk -v j="$jain" 'BEGIN{exit !(j >= 0.8)}'; then
        echo "==> FAIL: Jain fairness ${jain} under the 0.8 bar"
        exit 1
    fi
    echo "    Jain fairness: ${jain} (bar 0.8)"
    if [[ -n "$sbaseline" ]]; then
        if ! awk -v f="$sfresh" -v b="$sbaseline" 'BEGIN{exit !(f <= 1.1 * b)}'; then
            # The virtual clock is deterministic, but keep the same
            # one-re-measure damper as the E20-E22 gates so a stray
            # stale build never trips the gate.
            echo "    service p99 ${sfresh} us above 1.1x baseline; re-measuring once"
            cargo run --offline --release -p nx-bench --bin tables -- e23 > /dev/null
            sfresh=$(awk -F'"section": "summary".*"latency_p99_us": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_SERVICE.json)
        fi
        if ! awk -v f="$sfresh" -v b="$sbaseline" 'BEGIN{exit !(f <= 1.1 * b)}'; then
            echo "==> FAIL: service p99 ${sfresh} us regressed >10% vs committed ${sbaseline} us"
            exit 1
        fi
        echo "    Latency-class p99: ${sfresh} us (committed baseline ${sbaseline} us)"
    else
        echo "    no committed baseline found; recorded ${sfresh} us"
    fi

    echo "==> tracing overhead gate (E24: always-on 5%, 1-in-256 1%)"
    # E24 interleaves tracing-off / always-sample / 1-in-256 handles at
    # request granularity and takes per-request floors, so the bars can
    # be tight; it also proves every latency-bucket exemplar resolves to
    # a live span in the ring.
    cargo run --offline --release -p nx-bench --bin tables -- e24 > /dev/null
    always_pct=$(awk -F'"always_overhead_pct": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_TRACING.json)
    sampled_pct=$(awk -F'"sampled_overhead_pct": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_TRACING.json)
    python3 -m json.tool BENCH_TRACING.json > /dev/null
    if ! awk -v a="$always_pct" -v s="$sampled_pct" 'BEGIN{exit !(a <= 5.0 && s <= 1.0)}'; then
        # Same one-re-measure damper as every other timing gate.
        echo "    tracing overhead always ${always_pct}% / sampled ${sampled_pct}% above bars; re-measuring once"
        cargo run --offline --release -p nx-bench --bin tables -- e24 > /dev/null
        always_pct=$(awk -F'"always_overhead_pct": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_TRACING.json)
        sampled_pct=$(awk -F'"sampled_overhead_pct": ' '/"section": "summary"/{split($2,a,","); print a[1]}' BENCH_TRACING.json)
    fi
    if ! awk -v p="$always_pct" 'BEGIN{exit !(p <= 5.0)}'; then
        echo "==> FAIL: always-sample tracing overhead ${always_pct}% exceeds the 5% bar"
        exit 1
    fi
    if ! awk -v p="$sampled_pct" 'BEGIN{exit !(p <= 1.0)}'; then
        echo "==> FAIL: 1-in-256 tracing overhead ${sampled_pct}% exceeds the 1% bar"
        exit 1
    fi
    if ! grep -q '"exemplars_resolve": true' BENCH_TRACING.json; then
        echo "==> FAIL: a latency-bucket exemplar did not resolve to a live span"
        exit 1
    fi
    echo "    tracing overhead: always ${always_pct}% (bar 5%), 1-in-256 ${sampled_pct}% (bar 1%)"

    echo "==> flight-recorder smoke (black box parses, holds a complete trace)"
    # The accel_server example runs a faulted storm whose report carries
    # the flight recorder's dump; prove the black box is real JSON and
    # that at least one trace in it is complete admission-to-completion.
    cargo run --offline --release -p nx-core --example accel_server > /dev/null
    python3 -m json.tool FLIGHT_DUMP.json > /dev/null
    python3 - <<'EOF'
import json

with open("FLIGHT_DUMP.json") as f:
    dump = json.load(f)
assert dump["version"] == 1, "unknown flight-dump version"
assert dump["reason"] in ("fault-storm", "slo-breach"), dump["reason"]
traces = {}
for span in dump["spans"]:
    traces.setdefault(span["trace"], set()).add(span["stage"])
need = {"admit", "queue_wait", "dispatch", "engine", "complete"}
complete = [t for t, stages in traces.items() if need <= stages]
assert complete, f"no complete trace in the black box ({len(traces)} traces)"
print(f"    flight dump: {len(dump['spans'])} spans, "
      f"{len(complete)}/{len(traces)} complete traces, "
      f"{len(dump['counters'])} counter notes, "
      f"{len(dump['slo_events'])} slo events")
EOF
fi

echo "==> OK"
