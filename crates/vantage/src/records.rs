//! Compact observation records.
//!
//! The paper's raw dataset is 7.7 B queries; storing every response body is
//! infeasible and unnecessary — each analysis needs a handful of fields per
//! probe. These records capture exactly those fields. Zone transfers are
//! recorded by *reference* (zone serial + fault tag): the validation
//! pipeline re-materializes the affected zone copies once per distinct
//! combination instead of per transfer, which is also how the paper's
//! pipeline deduplicated 75 M transfers into 15 distinct failing files.
//!
//! A run holds millions of records, so they are packed (DESIGN §7): every
//! optional field is a plain word whose presence is one bit of a tag byte,
//! read through an accessor that returns the `Option` it stands for. An
//! absent field's word is always zero, so the derived equality compares
//! exactly what the accessors return. A probe is 32 bytes and a transfer
//! 28, where padded `Option`s made them 64 and 40.

use crate::population::VpId;
use netsim::anycast::SiteId;
use netsim::Family;
use rss::{BRootPhase, IdentityId, RootLetter};
use serde::{Deserialize, Serialize, Value};

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
/// once, into a buffer sized up front. Built by [`ProbeRecord::new`] and
/// the `with_*` methods; the optional fields are read through accessors.
#[derive(Clone, Copy, PartialEq)]
pub struct ProbeRecord {
    /// `rtt_ms()`'s value when present, else `0.0`.
    rtt_ms: f64,
    /// Round time (seconds since epoch).
    pub time: u32,
    pub vp: VpId,
    /// `site()`'s, `identity()`'s and `second_to_last_hop()`'s values when
    /// present, else 0. A hop is `(facility << 8) | 0xE0`, so 32 bits hold
    /// one for every facility id below 2^24.
    site: u32,
    identity: u32,
    hop: u32,
    pub target: Target,
    pub family: Family,
    /// One `PROBE_*` bit per optional field that is present.
    present: u8,
}

const PROBE_SITE: u8 = 1;
const PROBE_RTT: u8 = 1 << 1;
const PROBE_HOP: u8 = 1 << 2;
const PROBE_IDENTITY: u8 = 1 << 3;

/// `Some(word)` when `bit` is set in `tag`.
fn get(tag: u8, bit: u8, word: u32) -> Option<u32> {
    (tag & bit != 0).then_some(word)
}

/// `tag` with `bit` set as `value` says, and `value`'s word (0 if absent).
fn put(tag: u8, bit: u8, value: Option<u32>) -> (u8, u32) {
    match value {
        Some(word) => (tag | bit, word),
        None => (tag & !bit, 0),
    }
}

impl ProbeRecord {
    /// A probe of `target` over `family` by `vp` in the round at `time`
    /// that nothing answered: every optional field absent.
    pub const fn new(time: u32, vp: VpId, target: Target, family: Family) -> ProbeRecord {
        ProbeRecord {
            rtt_ms: 0.0,
            time,
            vp,
            site: 0,
            identity: 0,
            hop: 0,
            target,
            family,
            present: 0,
        }
    }

    /// The anycast site that answered (None = unreachable/timeout).
    #[inline]
    pub fn site(self) -> Option<SiteId> {
        get(self.present, PROBE_SITE, self.site).map(SiteId)
    }

    /// Measured RTT in ms (None when unreachable).
    #[inline]
    pub fn rtt_ms(self) -> Option<f64> {
        (self.present & PROBE_RTT != 0).then_some(self.rtt_ms)
    }

    /// Second-to-last traceroute hop identity (None = hop missing).
    #[inline]
    pub fn second_to_last_hop(self) -> Option<u64> {
        get(self.present, PROBE_HOP, self.hop).map(u64::from)
    }

    /// `hostname.bind`/`id.server` answer, as observed: a handle into the
    /// catalog's identity table ([`rss::RootCatalog::identity`]).
    #[inline]
    pub fn identity(self) -> Option<IdentityId> {
        get(self.present, PROBE_IDENTITY, self.identity).map(IdentityId)
    }

    /// This record with `site()` set to `site`.
    #[inline]
    pub fn with_site(mut self, site: Option<SiteId>) -> ProbeRecord {
        (self.present, self.site) = put(self.present, PROBE_SITE, site.map(|s| s.0));
        self
    }

    /// This record with `rtt_ms()` set to `rtt_ms`.
    #[inline]
    pub fn with_rtt_ms(mut self, rtt_ms: Option<f64>) -> ProbeRecord {
        match rtt_ms {
            Some(ms) => (self.present, self.rtt_ms) = (self.present | PROBE_RTT, ms),
            None => (self.present, self.rtt_ms) = (self.present & !PROBE_RTT, 0.0),
        }
        self
    }

    /// This record with `identity()` set to `identity`.
    #[inline]
    pub fn with_identity(mut self, identity: Option<IdentityId>) -> ProbeRecord {
        (self.present, self.identity) = put(self.present, PROBE_IDENTITY, identity.map(|i| i.0));
        self
    }

    /// This record with `second_to_last_hop()` set to `hop`, or `None` if
    /// `hop` does not fit the record's 32 bits.
    #[inline]
    pub fn with_second_to_last_hop(mut self, hop: Option<u64>) -> Option<ProbeRecord> {
        let hop = match hop {
            Some(hop) => Some(u32::try_from(hop).ok()?),
            None => None,
        };
        (self.present, self.hop) = put(self.present, PROBE_HOP, hop);
        Some(self)
    }
}

/// `ProbeRecord`'s JSON object, field for field: the dataset's line schema.
#[derive(Serialize, Deserialize)]
struct ProbeLine {
    time: u32,
    vp: VpId,
    target: Target,
    family: Family,
    site: Option<SiteId>,
    rtt_ms: Option<f64>,
    second_to_last_hop: Option<u64>,
    identity: Option<IdentityId>,
}

impl Serialize for ProbeRecord {
    fn to_value(&self) -> Value {
        ProbeLine {
            time: self.time,
            vp: self.vp,
            target: self.target,
            family: self.family,
            site: self.site(),
            rtt_ms: self.rtt_ms(),
            second_to_last_hop: self.second_to_last_hop(),
            identity: self.identity(),
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for ProbeRecord {
    /// Rejects a value the record has no encoding for (a hop wider than
    /// 32 bits) instead of truncating it.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let line = ProbeLine::from_value(v)?;
        ProbeRecord::new(line.time, line.vp, line.target, line.family)
            .with_site(line.site)
            .with_rtt_ms(line.rtt_ms)
            .with_identity(line.identity)
            .with_second_to_last_hop(line.second_to_last_hop)
            .ok_or_else(|| {
                serde::Error::custom(format!(
                    "field \"second_to_last_hop\": {} does not fit 32 bits",
                    line.second_to_last_hop.unwrap_or_default()
                ))
            })
    }
}

impl std::fmt::Debug for ProbeRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeRecord")
            .field("time", &self.time)
            .field("vp", &self.vp)
            .field("target", &self.target)
            .field("family", &self.family)
            .field("site", &self.site())
            .field("rtt_ms", &self.rtt_ms())
            .field("second_to_last_hop", &self.second_to_last_hop())
            .field("identity", &self.identity())
            .finish()
    }
}

/// Fault tags attached to a zone transfer observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TransferFault {
    /// Single-bit corruption on the receiving VP; the seed reproduces the
    /// exact flip.
    Bitflip { seed: u64 },
    /// The answering site served a stale zone with this serial.
    Stale { serial: u32 },
}

/// One zone-transfer observation. Built by [`TransferRecord::new`] and
/// the `with_*` methods; the serial and the fault are read through
/// accessors.
#[derive(Clone, Copy, PartialEq)]
pub struct TransferRecord {
    /// True (wall-clock) observation time.
    pub time: u32,
    /// The VP's *local* clock at observation time (differs under skew; this
    /// is the timestamp validation uses, reproducing the paper's
    /// clock-skew-induced errors).
    pub vp_clock: u32,
    pub vp: VpId,
    /// `serial()`'s value when present, else 0.
    serial: u32,
    /// The fault's payload, else zeros: a bitflip seed as (low, high)
    /// words, or a stale serial and 0. Two `u32`s keep the record's
    /// alignment at 4.
    payload: [u32; 2],
    pub target: Target,
    pub family: Family,
    /// `TRANSFER_SERIAL` if the serial is present, plus at most one fault
    /// kind bit.
    tag: u8,
}

const TRANSFER_SERIAL: u8 = 1;
const TRANSFER_BITFLIP: u8 = 1 << 1;
const TRANSFER_STALE: u8 = 1 << 2;

// A record that grows a heap pointer or a padded word costs every probe.
const _: () = {
    const fn plain<T: Copy>() {}
    plain::<ProbeRecord>();
    plain::<TransferRecord>();
    assert!(std::mem::size_of::<ProbeRecord>() == 32);
    assert!(std::mem::size_of::<TransferRecord>() == 28);
};

impl TransferRecord {
    /// A transfer of `target`'s zone over `family` by `vp` at `time` (its
    /// own clock reading `vp_clock`) that delivered nothing: no serial, no
    /// fault.
    pub const fn new(
        time: u32,
        vp_clock: u32,
        vp: VpId,
        target: Target,
        family: Family,
    ) -> TransferRecord {
        TransferRecord {
            time,
            vp_clock,
            vp,
            serial: 0,
            payload: [0; 2],
            target,
            family,
            tag: 0,
        }
    }

    /// Serial of the zone copy received (None = transfer failed).
    #[inline]
    pub fn serial(self) -> Option<u32> {
        get(self.tag, TRANSFER_SERIAL, self.serial)
    }

    /// What went wrong with the copy received, if anything.
    #[inline]
    pub fn fault(self) -> Option<TransferFault> {
        let [lo, hi] = self.payload;
        if self.tag & TRANSFER_BITFLIP != 0 {
            Some(TransferFault::Bitflip {
                seed: (u64::from(hi) << 32) | u64::from(lo),
            })
        } else if self.tag & TRANSFER_STALE != 0 {
            Some(TransferFault::Stale { serial: lo })
        } else {
            None
        }
    }

    /// This record with `serial()` set to `serial`.
    #[inline]
    pub fn with_serial(mut self, serial: Option<u32>) -> TransferRecord {
        (self.tag, self.serial) = put(self.tag, TRANSFER_SERIAL, serial);
        self
    }

    /// This record with `fault()` set to `fault`.
    #[inline]
    pub fn with_fault(mut self, fault: Option<TransferFault>) -> TransferRecord {
        let (kind, payload) = match fault {
            None => (0, [0; 2]),
            Some(TransferFault::Bitflip { seed }) => {
                (TRANSFER_BITFLIP, [seed as u32, (seed >> 32) as u32])
            }
            Some(TransferFault::Stale { serial }) => (TRANSFER_STALE, [serial, 0]),
        };
        self.tag = (self.tag & TRANSFER_SERIAL) | kind;
        self.payload = payload;
        self
    }
}

/// `TransferRecord`'s JSON object, field for field: the dataset's line schema.
#[derive(Serialize, Deserialize)]
struct TransferLine {
    time: u32,
    vp_clock: u32,
    vp: VpId,
    target: Target,
    family: Family,
    serial: Option<u32>,
    fault: Option<TransferFault>,
}

impl Serialize for TransferRecord {
    fn to_value(&self) -> Value {
        TransferLine {
            time: self.time,
            vp_clock: self.vp_clock,
            vp: self.vp,
            target: self.target,
            family: self.family,
            serial: self.serial(),
            fault: self.fault(),
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for TransferRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let line = TransferLine::from_value(v)?;
        Ok(
            TransferRecord::new(line.time, line.vp_clock, line.vp, line.target, line.family)
                .with_serial(line.serial)
                .with_fault(line.fault),
        )
    }
}

impl std::fmt::Debug for TransferRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferRecord")
            .field("time", &self.time)
            .field("vp_clock", &self.vp_clock)
            .field("vp", &self.vp)
            .field("target", &self.target)
            .field("family", &self.family)
            .field("serial", &self.serial())
            .field("fault", &self.fault())
            .finish()
    }
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

    const K: Target = Target {
        letter: RootLetter::K,
        b_phase: BRootPhase::Old,
    };

    #[test]
    fn every_combination_of_probe_fields_round_trips() {
        let sites = [None, Some(SiteId(0)), Some(SiteId(u32::MAX))];
        let rtts = [None, Some(0.0), Some(-0.0), Some(12.5), Some(f64::MAX)];
        let hops = [None, Some(0), Some(0x30fe0), Some(u64::from(u32::MAX))];
        let ids = [None, Some(IdentityId(0)), Some(IdentityId(u32::MAX))];
        for site in sites {
            for rtt in rtts {
                for hop in hops {
                    for id in ids {
                        let r = ProbeRecord::new(7, VpId(3), K, Family::V6)
                            .with_site(site)
                            .with_rtt_ms(rtt)
                            .with_second_to_last_hop(hop)
                            .unwrap()
                            .with_identity(id);
                        assert_eq!(
                            (r.site(), r.rtt_ms(), r.second_to_last_hop(), r.identity()),
                            (site, rtt, hop, id)
                        );
                        assert_eq!(r.rtt_ms().map(f64::to_bits), rtt.map(f64::to_bits));
                        // Clearing every field leaves the unanswered record.
                        let cleared = r
                            .with_site(None)
                            .with_rtt_ms(None)
                            .with_second_to_last_hop(None)
                            .unwrap()
                            .with_identity(None);
                        assert_eq!(cleared, ProbeRecord::new(7, VpId(3), K, Family::V6));
                    }
                }
            }
        }
    }

    #[test]
    fn probe_equality_is_equality_of_the_accessors() {
        let base = ProbeRecord::new(7, VpId(3), K, Family::V4);
        // An absent RTT is not a zero one, and a zero site is a site.
        assert_ne!(base, base.with_rtt_ms(Some(0.0)));
        assert_ne!(base, base.with_site(Some(SiteId(0))));
        // `-0.0 == 0.0` and NaN != NaN, as for `Option<f64>`.
        assert_eq!(base.with_rtt_ms(Some(-0.0)), base.with_rtt_ms(Some(0.0)));
        let nan = base.with_rtt_ms(Some(f64::NAN));
        assert!(nan != nan);
        assert!(nan.rtt_ms().unwrap().is_nan());
    }

    #[test]
    fn a_hop_wider_than_32_bits_is_refused() {
        let base = ProbeRecord::new(7, VpId(3), K, Family::V4);
        assert!(base
            .with_second_to_last_hop(Some(u64::from(u32::MAX) + 1))
            .is_none());
        assert!(base.with_second_to_last_hop(Some(u64::MAX)).is_none());
    }

    #[test]
    fn every_transfer_fault_round_trips() {
        let faults = [
            None,
            Some(TransferFault::Bitflip { seed: 0 }),
            Some(TransferFault::Bitflip { seed: u64::MAX }),
            Some(TransferFault::Bitflip {
                seed: 0x0123_4567_89ab_cdef,
            }),
            Some(TransferFault::Stale { serial: 0 }),
            Some(TransferFault::Stale { serial: u32::MAX }),
        ];
        for serial in [None, Some(0), Some(2023070300), Some(u32::MAX)] {
            for fault in faults {
                let t = TransferRecord::new(9, 8, VpId(1), K, Family::V4)
                    .with_serial(serial)
                    .with_fault(fault);
                assert_eq!((t.serial(), t.fault()), (serial, fault));
                // Overwriting keeps the other field and zeroes what is unused.
                let back = t.with_fault(None).with_serial(None);
                assert_eq!(back, TransferRecord::new(9, 8, VpId(1), K, Family::V4));
                assert_eq!(t.with_fault(None).serial(), serial);
                assert_eq!(t.with_serial(None).fault(), fault);
            }
        }
    }

    #[test]
    fn debug_and_json_keep_the_field_layout_of_the_options() {
        let r = ProbeRecord::new(1, VpId(2), K, Family::V4)
            .with_site(Some(SiteId(3)))
            .with_rtt_ms(Some(4.5))
            .with_identity(Some(IdentityId(6)));
        assert_eq!(
            format!("{r:?}"),
            "ProbeRecord { time: 1, vp: VpId(2), target: Target { letter: K, b_phase: Old }, \
             family: V4, site: Some(SiteId(3)), rtt_ms: Some(4.5), second_to_last_hop: None, \
             identity: Some(IdentityId(6)) }"
        );
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            r#"{"time":1,"vp":2,"target":{"letter":"K","b_phase":"Old"},"family":"V4","site":3,"rtt_ms":4.5,"second_to_last_hop":null,"identity":6}"#
        );
        let t = TransferRecord::new(1, 2, VpId(3), K, Family::V6)
            .with_serial(Some(4))
            .with_fault(Some(TransferFault::Stale { serial: 5 }));
        assert_eq!(
            serde_json::to_string(&t).unwrap(),
            r#"{"time":1,"vp_clock":2,"vp":3,"target":{"letter":"K","b_phase":"Old"},"family":"V6","serial":4,"fault":{"Stale":{"serial":5}}}"#
        );
    }
}
