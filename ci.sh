#!/usr/bin/env bash
# Tier-1 CI gate for the roots workspace (offline: all deps vendored
# under vendor/, see Cargo.toml).
#
#   1. release build of every crate;
#   2. full test suite;
#   2a. the serving crate, the wire codec (`dns-wire`), the hash and
#      signature crate (`dns-crypto`), the simulator crate, the farm's root
#      tests (`farm_*` in tests/farm_invariants.rs), every literal pin in
#      tests/golden_replay.rs (all of it, zero failures), the serving byte
#      pins (tests/rootd_serving.rs, tests/wire_interop.rs,
#      tests/chaos_refresh.rs — the local root's copy answers through the
#      arena encoder over zones transferred through fault injection), the
#      zone-integrity suite (tests/zone_integrity.rs), the attack suite
#      (tests/attack_rrl.rs: RRL's window and slip arithmetic and the
#      attack engine's tick-to-chunk mapping),
#      the analysis, zone and trace crates, the measurement
#      and scenario crates, and the pipeline's own tests (`roots-core
#      --lib`) once more at release optimisation with debug assertions and
#      overflow checks on (own target dir): the serve
#      kernels' and the response digest's arithmetic, the SHA-2 rounds and
#      SIMSIG's keyed digests, the canonical form's offsets (owner keys,
#      span offsets, the TTL patched into signed data), the encoder's
#      arena walk (owner length bytes, RDLENGTH, same-owner pointer
#      targets) and the writer's name table, `propagate`'s packed
#      rank (shifts, the path-length field) and its `u32` kilometre sums,
#      the shared-set debug_assert!, the serving epoch's images (the
#      `-p rootd` run builds 1- to 1 500-TLD zones and holds every cached
#      and uncached answer and every NXDOMAIN template to the build they
#      replaced: the answer cache's block and template offsets, spans and
#      fixups, the index's key image and RRset ranges, and the offset
#      tables' slot and probe arithmetic), the analyses' dense
#      indices — the RTT cell `(region · targets + target) · 2 + family`,
#      the traffic bucket `(day − first) · 25 + hour slot`, the
#      `day << 32 | client` key, the
#      count-to-offset prefix sums and `from_sorted`'s order assertion —
#      and the measurement's slot tables — the session slot `(vp · 14 +
#      target) · 2 + family`, the probe-plan slot `(vp · 13 + letter) · 2
#      + family`, the `u32` plan offsets and their shift when VP ranges
#      merge — and the pipeline's stale-window re-runs and duplicate-key
#      check over the packed records — run checked at the optimisation
#      level they ship at;
#   2b. the frozen benchmark package (benchmark/, a workspace of its own):
#      release build against its committed lock file, and its unit tests —
#      a break of the public surface it is pinned to fails here;
#   2c. the driver's view of the repo: benchmark/run.sh, one second of
#      every workload with tracing off and on, each required to exit 0
#      with "correct":true and "failed":0 — a failed output check or a
#      failed `unattributed` bound fails here — and to leave benchmark/
#      and BENCHMARK.json as committed;
#   3. examples build + smoke runs (tiny scale, temp output dirs), each
#      required to exit 0 — none is grepped: their invariants are tier-1
#      (attack_report's in tests/attack_rrl.rs, clock_chaos_demo's and
#      chaos_report's in tests/chaos_refresh.rs, planner_report's in
#      tests/planner_demo.rs, farm_report's and farm_chaos_report's in
#      tests/farm_invariants.rs, at the very runs the examples render);
#   4. bench smoke run refreshing the committed BENCH_results.json,
#      followed by the bench_guard regression gate (fails on >25%
#      regression of rootd/loadgen/qps, rootd/serve_*, or codec/* vs the
#      committed baseline, and on any absolute ceiling: among them the
#      uncached path's rootd/serve_fallback_{referral_do,nxdomain_do,tc512}
#      and codec/encode_referral on the 1 500-TLD zone, the chaos run's
#      word-wise rootd/chaos/digest_ps_per_byte, the cached serve
#      path's rootd/serve_hit_slab32_{ns,junk_do_ns} and set-up's
#      routing/propagate_{b,f}_v4, these four held by ceiling alone;
#      rootd/farm/chaos_wall_pct is recorded and printed, not gated);
#   5. rustdoc with warnings promoted to errors;
#   6. formatting check;
#   7. clippy with warnings promoted to errors.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test -q --offline

# Checked arithmetic where the kernels live: release optimisation, debug
# assertions and overflow checks on. Of tests/farm_invariants.rs only the
# farm's own tests (`farm_`) are selected; golden_replay runs whole: since
# `netgeo::city::CITIES` became a `static` compared by IATA code, a release
# build lays out the same world as a debug one, so every literal it pins
# must hold here too. The serving suites (rootd_serving, wire_interop) and
# zone_integrity hold answers to each other, to the wire and to their own
# zones; attack_rrl runs the demo flood through RRL's window and slip
# arithmetic and the attack engine's tick-to-chunk mapping; and zone_integrity and `dns-crypto` run the hash rounds and the
# signing arithmetic the zone code shares. The analysis, zone, trace,
# measurement and scenario crates' own tests and `roots-core`'s unit tests
# run their per-record and per-slot index arithmetic here with the checks
# a release build drops.
checked() {
    CARGO_TARGET_DIR=target/checked \
        RUSTFLAGS="-C debug-assertions=on -C overflow-checks=on" \
        cargo test --release --offline -q "$@"
}
checked -p rootd
checked -p dns-wire
checked -p dns-crypto
checked -p netsim
checked -p roots-core --test farm_invariants farm_
checked -p roots-core --test golden_replay
checked -p roots-core --test rootd_serving --test wire_interop --test chaos_refresh
checked -p roots-core --test attack_rrl
checked -p roots-core --test zone_integrity
checked -p analysis -p dns-zone -p traces
checked -p vantage -p scenario
checked -p roots-core --lib

# rootbench is a package of its own with a frozen Cargo.lock: build it
# --locked so a changed dependency edge or a broken pinned signature
# (benchmark/README.md, "Public functions the benchmark is pinned to")
# fails in CI rather than in the driver.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# What the driver runs: every workload for a second, untraced and traced.
# run.sh builds without --locked and would rewrite benchmark/Cargo.lock on
# a changed dependency edge, hence the diff after it. A failed run prints
# its exit status and its FAILED CHECK and warning lines, which name the
# check that failed.
for workload in farm_hit farm_rootzone farm_slowpath farm_reload farm_chaos pipeline_small; do
    for trace in 0 1; do
        status=0
        output="$(benchmark/run.sh --workload "$workload" --seed 7 --seconds 1 --trace "$trace")" || status=$?
        result="$(tail -n 1 <<<"$output")"
        if [[ $status -ne 0 || "$result" != *'"correct":true'* || "$result" != *'"failed":0,'* ]]; then
            echo "ci: rootbench $workload --trace $trace exited $status: $result" >&2
            grep -E '^(FAILED CHECK|warning):' <<<"$output" >&2 || true
            exit 1
        fi
    done
done
git diff --quiet -- benchmark BENCHMARK.json

cargo build --release --offline --examples
figdir="$(mktemp -d)"
trap 'rm -rf "$figdir"' EXIT
cargo run -q --release --offline --example quickstart > /dev/null
cargo run -q --release --offline --example paper_report -- tiny > /dev/null
cargo run -q --release --offline --example zone_integrity_audit > /dev/null
cargo run -q --release --offline --example local_root_daemon > /dev/null
cargo run -q --release --offline --example anycast_explorer > /dev/null
cargo run -q --release --offline --example broot_renumbering > /dev/null
cargo run -q --release --offline --example export_figures -- "$figdir" > /dev/null
cargo run -q --release --offline --example scenario_report > /dev/null
cargo run -q --release --offline --example rootd_bench -- tiny 20000 > /dev/null
# Chaos smoke: sweep the fault matrix at a fixed seed; it must render
# and exit 0 (its invariants — corrupt copies never activate,
# convergence, SOA-bounded staleness, deterministic replay, at this seed
# too — are tier-1: tests/chaos_refresh.rs).
cargo run -q --release --offline --example chaos_report -- 49374 > /dev/null
# Virtual-clock smoke: the farm under a scenario's site failure, the same
# scenario's fault windows, and refresh backoff co-executed on one clock
# must render and exit 0 (its invariants — refresh escapes the blackhole
# by backing off, the farm withdraws and restores the dark site, the run
# replays bit-identically across shard counts — are tier-1:
# tests/chaos_refresh.rs).
cargo run -q --release --offline --example clock_chaos_demo > /dev/null
# Adversarial-traffic smoke: the demo attack scenario against a
# rate-limited fleet must render and exit 0 (its invariants — legit
# service through every flood window, byte identity with the unlimited
# twin, replay across worker counts — are tier-1: tests/attack_rrl.rs).
cargo run -q --release --offline --example attack_report > /dev/null
# Planner smoke: a 1000-candidate what-if sweep over b.root must render
# and exit 0 (its invariants — the baseline matches the world's routing
# bit-for-bit, the identity candidate scores exactly zero, and scores
# are identical for every worker count 1..=5 — are tier-1:
# tests/planner_demo.rs).
cargo run -q --release --offline --example planner_report > /dev/null
# Serving-farm smoke: a scaled-down constellation (2 letters × 4 sites)
# under catchment-steered load through the batched datagram path must
# render and exit 0 (it exits 1 on a violation; the report's consistency
# at this very run, and replay identity across shard counts, are tier-1:
# tests/farm_invariants.rs).
cargo run -q --release --offline --example farm_report > /dev/null
# Self-healing-farm smoke: three concurrent site failures, a stalled
# shard, a poisoned reload and a junk flood against the health-checked
# farm must render and exit 0 (it exits 1 on a violation; ≥99% of legit
# queries served, every answer byte-identical to the fault-free twin, the
# poisoned push refused, both crashes recovered within the backoff budget
# — at this very run, plus fingerprint identity across 1..=8 shards and
# seeds — are tier-1: tests/farm_invariants.rs).
cargo run -q --release --offline --example farm_chaos_report > /dev/null

# Bench smoke: every bench target runs end to end and merges its numbers
# into the committed BENCH_results.json, including the rootd loadgen's
# million-query throughput/latency figures (a few seconds of wall clock).
# The committed file is snapshotted first so bench_guard can diff the
# fresh numbers against what the branch shipped with.
cp BENCH_results.json "$figdir/bench_baseline.json"
BENCH_RESULTS_PATH="$PWD/BENCH_results.json" cargo bench --offline -q > /dev/null
cargo run -q --release --offline -p bench --bin bench_guard -- \
    "$figdir/bench_baseline.json" BENCH_results.json

RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet

cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "ci: all gates green"
