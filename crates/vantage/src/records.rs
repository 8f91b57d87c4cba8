//! Compact observation records.
//!
//! The paper's raw dataset is 7.7 B queries; storing every response body is
//! infeasible and unnecessary — each analysis needs a handful of fields per
//! probe. These records capture exactly those fields. Zone transfers are
//! recorded by *reference* (zone serial + fault tag): the validation
//! pipeline re-materializes the affected zone copies once per distinct
//! combination instead of per transfer, which is also how the paper's
//! pipeline deduplicated 75 M transfers into 15 distinct failing files.

use crate::population::VpId;
use netsim::anycast::SiteId;
use netsim::Family;
use rss::{BRootPhase, IdentityId, RootLetter};
use serde::{Deserialize, Serialize};

/// A probe target: a letter, with b.root split into old/new addresses
/// (the measurement script probes both during the transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Target {
    pub letter: RootLetter,
    pub b_phase: BRootPhase,
}

impl Target {
    /// How many targets a VP probes every round.
    pub const COUNT: usize = 14;

    /// The 14 probe targets: a..m plus the second b.root address.
    pub fn all() -> Vec<Target> {
        let mut out = Vec::with_capacity(Target::COUNT);
        for letter in RootLetter::ALL {
            out.push(Target {
                letter,
                b_phase: BRootPhase::Old,
            });
            if letter == RootLetter::B {
                out.push(Target {
                    letter,
                    b_phase: BRootPhase::New,
                });
            }
        }
        out
    }

    /// Figure label, e.g. `b.root (new)` / `g.root`.
    pub fn label(&self) -> String {
        if self.letter == RootLetter::B {
            match self.b_phase {
                BRootPhase::Old => "b.root (old)".to_string(),
                BRootPhase::New => "b.root (new)".to_string(),
            }
        } else {
            self.letter.label()
        }
    }
}

/// One active probe observation (one VP, one target, one family, one round).
///
/// Plain data with no heap pointer: a run writes millions of these, each
/// once, into a buffer sized up front.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Round time (seconds since epoch).
    pub time: u32,
    pub vp: VpId,
    pub target: Target,
    pub family: Family,
    /// The anycast site that answered (None = unreachable/timeout).
    pub site: Option<SiteId>,
    /// Measured RTT in ms (None when unreachable).
    pub rtt_ms: Option<f64>,
    /// Second-to-last traceroute hop identity (None = hop missing).
    pub second_to_last_hop: Option<u64>,
    /// `hostname.bind`/`id.server` answer, as observed: a handle into the
    /// catalog's identity table ([`rss::RootCatalog::identity`]).
    pub identity: Option<IdentityId>,
}

// A record that grows a heap pointer or a cache line costs every probe.
const _: () = {
    const fn plain<T: Copy>() {}
    plain::<ProbeRecord>();
    plain::<TransferRecord>();
    assert!(std::mem::size_of::<ProbeRecord>() <= 64);
};

/// Fault tags attached to a zone transfer observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TransferFault {
    /// Single-bit corruption on the receiving VP; the seed reproduces the
    /// exact flip.
    Bitflip { seed: u64 },
    /// The answering site served a stale zone with this serial.
    Stale { serial: u32 },
}

/// One zone-transfer observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// True (wall-clock) observation time.
    pub time: u32,
    /// The VP's *local* clock at observation time (differs under skew; this
    /// is the timestamp validation uses, reproducing the paper's
    /// clock-skew-induced errors).
    pub vp_clock: u32,
    pub vp: VpId,
    pub target: Target,
    pub family: Family,
    /// Serial of the zone copy received (None = transfer failed).
    pub serial: Option<u32>,
    pub fault: Option<TransferFault>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_targets() {
        let all = Target::all();
        assert_eq!(all.len(), Target::COUNT);
        let b_targets: Vec<&Target> = all.iter().filter(|t| t.letter == RootLetter::B).collect();
        assert_eq!(b_targets.len(), 2);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(
            Target {
                letter: RootLetter::B,
                b_phase: BRootPhase::New
            }
            .label(),
            "b.root (new)"
        );
        assert_eq!(
            Target {
                letter: RootLetter::G,
                b_phase: BRootPhase::Old
            }
            .label(),
            "g.root"
        );
    }

    #[test]
    fn targets_unique() {
        let all = Target::all();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
