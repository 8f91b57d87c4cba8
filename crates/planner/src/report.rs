//! Deterministic ranking, Pareto frontier, and per-region tables.
//!
//! Everything here is pure arithmetic over [`CandidateScore`]s in
//! candidate-id order with `total_cmp` tie-breaks ending in the id, so
//! the ranking and frontier are as bit-stable as the scores themselves.

use crate::batch::scores_fingerprint;
use crate::eval::CandidateScore;
use netgeo::Region;
use netsim::Fingerprint;
use rss::RootLetter;
use std::fmt::Write as _;

/// Whether `a` Pareto-dominates `b` on (RTT delta ↓, locality delta ↑,
/// churn ↓): no worse on every axis, strictly better on at least one.
fn dominates(a: &CandidateScore, b: &CandidateScore) -> bool {
    let (ar, al, ac) = a.axes();
    let (br, bl, bc) = b.axes();
    ar <= br && al >= bl && ac <= bc && (ar < br || al > bl || ac < bc)
}

/// Ids of the non-dominated candidates, in id order.
pub fn pareto_frontier(scores: &[CandidateScore]) -> Vec<u32> {
    scores
        .iter()
        .filter(|s| !scores.iter().any(|o| dominates(o, s)))
        .map(|s| s.id)
        .collect()
}

/// A completed sweep: scores in candidate-id order, the overall ranking,
/// and the Pareto frontier.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub letter: RootLetter,
    /// Scores in candidate-id order (as evaluated).
    pub scores: Vec<CandidateScore>,
    /// Candidate ids ranked best-first by (RTT delta ↑ is worse, locality
    /// delta ↓ is worse, churn, id).
    pub ranking: Vec<u32>,
    /// Non-dominated candidate ids (RTT vs locality vs churn), id order.
    pub frontier: Vec<u32>,
}

impl SweepReport {
    pub fn build(letter: RootLetter, scores: Vec<CandidateScore>) -> SweepReport {
        let mut ranking: Vec<usize> = (0..scores.len()).collect();
        ranking.sort_by(|&i, &j| {
            let (ar, al, ac) = scores[i].axes();
            let (br, bl, bc) = scores[j].axes();
            ar.total_cmp(&br)
                .then(bl.total_cmp(&al))
                .then(ac.total_cmp(&bc))
                .then(scores[i].id.cmp(&scores[j].id))
        });
        let frontier = pareto_frontier(&scores);
        SweepReport {
            letter,
            ranking: ranking.into_iter().map(|i| scores[i].id).collect(),
            frontier,
            scores,
        }
    }

    /// Score by candidate id (ids are dense in generated sweeps, but the
    /// lookup scans so partial sweeps work too).
    pub fn score(&self, id: u32) -> Option<&CandidateScore> {
        if let Some(s) = self.scores.get(id as usize) {
            if s.id == id {
                return Some(s);
            }
        }
        self.scores.iter().find(|s| s.id == id)
    }

    /// Top `k` candidates for one client region, best regional RTT delta
    /// first (candidates without samples in that region rank last),
    /// tie-broken by churn then id.
    pub fn top_k_for_region(&self, region: Region, k: usize) -> Vec<&CandidateScore> {
        let mut idx: Vec<&CandidateScore> = self.scores.iter().collect();
        idx.sort_by(|a, b| {
            let ar = a.delta.rtt_region_combined(region);
            let br = b.delta.rtt_region_combined(region);
            match (ar, br) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }
            .then(a.churn.total_cmp(&b.churn))
            .then(a.id.cmp(&b.id))
        });
        idx.truncate(k);
        idx
    }

    /// Digest over scores + ranking + frontier; equal across worker
    /// counts by construction, which the report example asserts.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::resume(scores_fingerprint(&self.scores));
        for &id in self.ranking.iter().chain(&self.frontier) {
            h.mix(u64::from(id));
        }
        h.finish()
    }

    /// Render the frontier table plus per-region top-`k` tables.
    pub fn render(&self, k: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "What-if sweep — {} ({} candidates, {} on the Pareto frontier)",
            self.letter.label(),
            self.scores.len(),
            self.frontier.len()
        );
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>9} {:>7} {:>7} {:<40}",
            "id", "ΔRTT ms", "Δlocal", "churn", "shift", "plan"
        );
        for &id in &self.frontier {
            if let Some(s) = self.score(id) {
                let _ = writeln!(
                    out,
                    "{:<6} {:>+9.3} {:>+9.4} {:>7.3} {:>7.3} {:<40}",
                    s.id,
                    s.delta.rtt_combined(),
                    s.delta.locality,
                    s.churn,
                    s.delta.shift,
                    s.label
                );
            }
        }
        for region in Region::ALL {
            let top = self.top_k_for_region(region, k);
            let _ = writeln!(out, "\ntop {k} for {region}:");
            for s in top {
                let rtt = s
                    .delta
                    .rtt_region_combined(region)
                    .map(|d| format!("{d:+.3}"))
                    .unwrap_or_else(|| "-".to_string());
                let _ = writeln!(
                    out,
                    "  #{:<5} {:>9} ms  churn {:>5.3}  {}",
                    s.id, rtt, s.churn, s.label
                );
            }
        }
        out
    }
}
