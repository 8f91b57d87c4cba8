//! The `farm_chaos` failure schedule: `examples/farm_chaos_report.rs`'s
//! incidents, stretched with the query count so every window covers the
//! same share of arrivals at any block size.

use rootd::recovery::FailureKind;
use rootd::{Farm, FarmChaosConfig, FloodWindow};
use rss::RootLetter;

/// Query count at which the reference windows (virtual ms, one arrival
/// per ms) span the whole run: the last window, the flood, ends at 6000.
const REFERENCE_QUERIES: u64 = 6_000;

/// Reload validation one day into the day-0 zone's RRSIG window: clean
/// zones pass, poisoned ones fail on their digest, not on expiry.
const VALIDATE_NOW_S: u32 = 86_400;

/// `[start, end)` in virtual ms, scaled from the reference run to one of
/// `queries` arrivals.
pub fn scale_window(window: (u64, u64), queries: u64) -> (u64, u64) {
    let scale = |t: u64| t * queries / REFERENCE_QUERIES;
    (scale(window.0), scale(window.1))
}

/// The sites the schedule takes down or stalls, as (letter, index into
/// the letter's deployment, what happens, reference window).
pub const INCIDENTS: [(RootLetter, usize, FailureKind, (u64, u64)); 4] = [
    (RootLetter::A, 1, FailureKind::Crash, (1_000, 4_000)),
    (RootLetter::B, 0, FailureKind::Blackhole, (1_500, 3_500)),
    (RootLetter::C, 1, FailureKind::Crash, (1_200, 3_800)),
    (
        RootLetter::C,
        0,
        FailureKind::Stall { delay_ms: 250 },
        (1_000, 5_000),
    ),
];

const POISONED_RELOAD: (RootLetter, u64) = (RootLetter::B, 2_500);
const FLOOD: ((u64, u64), f64) = ((2_000, 6_000), 8.0);

/// Id of `letter`'s `index`-th deployed site.
pub fn site_id(farm: &Farm, letter: RootLetter, index: usize) -> u32 {
    farm.deployment(letter)
        .expect("farm serves every letter")
        .sites[index]
        .id
        .0
}

/// The chaos run of `queries` single-shard arrivals against `farm`.
pub fn chaos_config(farm: &Farm, seed: u64, queries: usize) -> FarmChaosConfig {
    let mut cfg = FarmChaosConfig::tiny(seed, VALIDATE_NOW_S);
    cfg.farm.queries = queries;
    cfg.farm.shards = 1;
    let q = queries as u64;
    for (letter, index, kind, window) in INCIDENTS {
        cfg.plan.add(
            letter,
            site_id(farm, letter, index),
            kind,
            scale_window(window, q),
        );
    }
    cfg.plan
        .add_poisoned_reload(POISONED_RELOAD.0, scale_window((POISONED_RELOAD.1, 0), q).0);
    let (start_ms, end_ms) = scale_window(FLOOD.0, q);
    cfg.floods.push(FloodWindow {
        start_ms,
        end_ms,
        amplification: FLOOD.1,
    });
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_keep_their_share_of_arrivals() {
        // Identity at the reference size.
        assert_eq!(scale_window((1_000, 4_000), 6_000), (1_000, 4_000));
        // The example's default 30k-query run is 5x the reference.
        assert_eq!(scale_window((1_500, 3_500), 30_000), (7_500, 17_500));
        // At a million arrivals the flood still ends with the run and
        // every window covers the same fraction of it.
        for q in [6_000u64, 200_000, 1_000_000] {
            for (_, _, _, w) in INCIDENTS {
                let (s, e) = scale_window(w, q);
                let share = (e - s) as f64 / q as f64;
                let reference = (w.1 - w.0) as f64 / REFERENCE_QUERIES as f64;
                assert!((share - reference).abs() < 1e-3, "{w:?} at {q}");
                assert!(e <= q);
            }
            assert_eq!(scale_window(FLOOD.0, q).1, q);
        }
    }
}
