//! The batch worker pool.
//!
//! Same discipline as `vantage`'s `run_parallel`, through the same
//! [`netsim::shard`] primitive: the candidate list is cut into contiguous
//! index ranges, each worker owns its range exclusively with a private
//! [`EvalContext`], and the parts concatenate in range order — so the
//! output is bit-identical for any worker count, which
//! [`scores_fingerprint`] makes cheap to assert.

use crate::eval::{CandidateScore, EvalContext, TimelineSpec};
use crate::moves::CandidatePlan;
use netsim::{shard, Fingerprint};
use rss::RootLetter;
use vantage::World;

/// Evaluate `plans` for `letter` across `workers` threads. Scores come
/// back in plan order regardless of worker count.
pub fn evaluate_batch(
    world: &World,
    letter: RootLetter,
    plans: &[CandidatePlan],
    workers: usize,
    timeline: Option<TimelineSpec>,
) -> Vec<CandidateScore> {
    let workers = workers.clamp(1, plans.len().max(1));
    shard::fold(shard::run(plans.len(), workers, |range| {
        if range.is_empty() {
            return Vec::new();
        }
        let mut ctx = EvalContext::new(world, letter, timeline);
        plans[range].iter().map(|p| ctx.evaluate(p)).collect()
    }))
}

/// Order-sensitive digest over every score's ranking-relevant numbers
/// (exact f64 bit patterns, not rounded displays). Equal fingerprints ⇒
/// the sweeps scored and would rank identically.
pub fn scores_fingerprint(scores: &[CandidateScore]) -> u64 {
    let mut h = Fingerprint::new();
    for s in scores {
        h.mix(u64::from(s.id));
        h.mix(s.delta.rtt_combined().to_bits());
        h.mix(s.delta.locality.to_bits());
        h.mix(s.delta.loss.to_bits());
        h.mix(s.delta.shift.to_bits());
        h.mix(s.churn.to_bits());
        match &s.worst_epoch {
            Some(e) => {
                h.mix(e.epoch as u64 + 1);
                h.mix(e.delta.rtt_combined().to_bits());
                h.mix(e.churn.to_bits());
            }
            None => h.mix(0),
        }
    }
    h.finish()
}
