//! The serving farm's invariants in tier-1: what `examples/farm_report.rs`
//! and `examples/farm_chaos_report.rs` print `… invariants: OK` for, at
//! tiny scale — empty `violations()`, at the very runs those examples
//! render too, fingerprints identical for every shard count 1..=8, and
//! fingerprints that move with the seed.

use rootd::FarmConfig;
use roots_core::{FarmChaosRun, FarmRun, Scale};
use rss::RootLetter;

/// The shard count the examples run at: the host's cores, at most eight.
fn example_shards() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
}

/// `farm_report`'s default run: A+B × 4 sites, 20 000 queries.
#[test]
fn farm_report_example_run_has_no_violations() {
    let mut cfg = FarmConfig::tiny(0x2024_0610);
    cfg.queries = 20_000;
    cfg.shards = example_shards();
    let run = FarmRun::run(Scale::Tiny, &[RootLetter::A, RootLetter::B], 4, &cfg);
    assert_eq!(run.report.violations(), Vec::<String>::new());
}

/// `farm_chaos_report`'s default run: the demo schedule at 30 000 queries.
#[test]
fn farm_chaos_report_example_run_has_no_violations() {
    let run = FarmChaosRun::demo(Scale::Tiny, 0x2025_0417, 30_000, example_shards());
    assert_eq!(run.violations(), Vec::<String>::new());
}

#[test]
fn farm_run_is_sound_and_replays_identically_for_one_through_eight_shards() {
    let run_at = |seed: u64, shards: usize| {
        let mut cfg = FarmConfig::tiny(seed);
        cfg.queries = 5_000;
        cfg.shards = shards;
        FarmRun::run(Scale::Tiny, &[RootLetter::A, RootLetter::B], 4, &cfg)
    };
    let base = run_at(0x2024_0610, 1);
    assert_eq!(base.report.violations(), Vec::<String>::new());
    for shards in 2..=8 {
        let replay = run_at(0x2024_0610, shards);
        assert_eq!(replay.report.violations(), Vec::<String>::new());
        assert_eq!(
            replay.report.fingerprint(),
            base.report.fingerprint(),
            "shards={shards}"
        );
    }
    assert_ne!(
        run_at(0x2024_0611, 3).report.fingerprint(),
        base.report.fingerprint(),
        "a different seed must change the replay identity"
    );
}

#[test]
fn farm_chaos_run_holds_the_gates_and_replays_identically_for_one_through_eight_shards() {
    let run_at = |seed: u64, shards: usize| FarmChaosRun::demo(Scale::Tiny, seed, 6_000, shards);
    let base = run_at(0x2025_0417, 1);
    assert_eq!(base.violations(), Vec::<String>::new());
    // The schedule really bit: failover, shedding and a refused push all
    // happened.
    assert!(base.report.served_hedged > 0 && base.report.shed_junk > 0);
    assert_eq!(base.report.reloads_rejected, 1);
    assert_eq!(base.report.recoveries.len(), 2);
    for shards in 2..=8 {
        let replay = run_at(0x2025_0417, shards);
        assert_eq!(replay.violations(), Vec::<String>::new(), "shards={shards}");
        assert_eq!(
            replay.report.fingerprint(),
            base.report.fingerprint(),
            "shards={shards}"
        );
    }
    let reseeded = run_at(0x2025_0417 ^ 0x5eed, 2);
    assert_eq!(reseeded.violations(), Vec::<String>::new());
    assert_ne!(
        reseeded.report.fingerprint(),
        base.report.fingerprint(),
        "a different seed must change the replay identity"
    );
    assert_eq!(
        run_at(0x2025_0417 ^ 0x5eed, 5).report.fingerprint(),
        reseeded.report.fingerprint(),
        "the second seed must be shard-invariant too"
    );
}

/// Digests and flags are per query, so nothing a chaos run reports may
/// depend on how many datagrams share a flush: the demo schedule replays
/// to the `golden_replay::farm_chaos_report_fingerprint` literal at every
/// batch size — including the sizes below, at and just past a small
/// power of two, and one past the default cap.
#[test]
fn farm_chaos_fingerprint_is_batch_size_invariant() {
    let (seed, queries) = (0x2025_0417, 6_000);
    let scheduled_on = FarmChaosRun::demo(Scale::Tiny, seed, queries, 1);
    // Re-pinned in PR 20 with `golden_replay`'s: `digests` are word-wise.
    assert_eq!(scheduled_on.report.fingerprint(), 1313993887827905740);
    for batch in [1, 2, 3, 4, 5, 7, 32, 33] {
        for shards in [1, 3] {
            let mut cfg = FarmChaosRun::demo_schedule(&scheduled_on.farm, seed, queries, shards);
            cfg.farm.batch = batch;
            let run = FarmChaosRun::run(
                Scale::Tiny,
                &FarmChaosRun::DEMO_LETTERS,
                FarmChaosRun::DEMO_SITES,
                &cfg,
            );
            let at = format!("batch={batch} shards={shards}");
            assert_eq!(run.violations(), Vec::<String>::new(), "{at}");
            assert_eq!(run.report.diff_twin(&run.twin), Vec::<u64>::new(), "{at}");
            // Re-pinned in PR 20: the same word-wise digests at every size.
            assert_eq!(run.report.fingerprint(), 1313993887827905740, "{at}");
        }
    }
}
