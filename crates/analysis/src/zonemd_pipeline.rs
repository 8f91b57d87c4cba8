//! The zone-integrity pipeline (§7, Table 2, Figure 10).
//!
//! Validates every transferred zone copy the way the paper's `ldnsutils`
//! pipeline did: recompute ZONEMD and verify all RRSIGs against the
//! DNSKEYs, at the VP's *local* observation clock — which is how clock
//! skew produces "Sig. not incepted" findings. Distinct failing zone files
//! are grouped into the Table 2 rows (reason × serial set × affected
//! servers × VPs), and bitflipped copies are diffed against the reference
//! zone to produce the Figure 10 two-line rendering.
//!
//! One pass over the transfers: each distinct observation key is
//! classified when it first appears, and every observation of a failing
//! key joins its row's footprint as the pass reaches it. Validating a copy
//! splits in two: the clock-free half — structure, every RRSIG's
//! cryptographic verdict, the ZONEMD digest ([`ZoneVerdicts`]) — runs once
//! per distinct copy, and each key applies its own clock to those
//! verdicts, which yields the issue list `validate_zone` would, in order.
//! The stream runs in long stretches of one key (a round's transfers
//! share a serial, and mostly a clock hour), so the pass compares a
//! record's key with the previous one's before it looks anything up.

use dns_zone::corrupt::flip_rrsig_bit;
use dns_zone::validate::{bitflip_diff, BitflipReport, ValidationIssue, ZoneVerdicts};
use dns_zone::Zone;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use vantage::records::{TransferFault, TransferRecord};
use vantage::World;

/// Why a transferred zone failed validation (Table 2 "Reason" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FailureReason {
    /// VP clock before signature inception.
    SigNotIncepted,
    /// Cryptographic verification failed (bitflip).
    BogusSignature,
    /// Signatures expired (stale zone file).
    SignatureExpired,
}

impl FailureReason {
    /// The label used in Table 2.
    pub fn label(self) -> &'static str {
        match self {
            FailureReason::SigNotIncepted => "Sig. not incepted",
            FailureReason::BogusSignature => "Bogus Signature",
            FailureReason::SignatureExpired => "Signature expired",
        }
    }
}

/// One Table 2 row: a failure class with its footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    pub reason: FailureReason,
    /// Distinct zone serials involved (#SOA column).
    pub serials: BTreeSet<u32>,
    /// First and last observation times.
    pub first_obs: u32,
    pub last_obs: u32,
    /// Number of observations.
    pub observations: u32,
    /// Affected (target label, family label) pairs ("Server" column).
    pub servers: BTreeSet<String>,
    /// Affected VPs.
    pub vps: BTreeSet<u32>,
}

/// The Table 2 result.
#[derive(Debug, Clone, Default)]
pub struct Table2 {
    pub rows: Vec<Table2Row>,
    /// Total transfers validated.
    pub total_transfers: u64,
    /// Distinct failing zone copies (the paper: 15 distinct files).
    pub distinct_failing: u64,
}

impl Table2 {
    /// Render like the paper's Table 2.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Table 2: ZONEMD/RRSIG validation errors for zones from AXFRs\n\
             Reason            | #SOA | First Obs -> Last Obs | #Obs | Servers | #VPs\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:17} | {:4} | {} -> {} | {:4} | {} | {}\n",
                row.reason.label(),
                row.serials.len(),
                dns_crypto::validity::timestamp_to_ymd(row.first_obs),
                dns_crypto::validity::timestamp_to_ymd(row.last_obs),
                row.observations,
                row.servers.iter().cloned().collect::<Vec<_>>().join(","),
                row.vps.len(),
            ));
        }
        out.push_str(&format!(
            "validated {} transfers, {} distinct failing copies\n",
            self.total_transfers, self.distinct_failing
        ));
        out
    }
}

/// Validate all transfer records against the world's zone store.
///
/// Validation is deduplicated: one cryptographic pass per distinct zone
/// copy (the day's zone, bitflipped or not, or a stale day's), and one
/// clock applied to it per distinct `(serial, fault, clock hour)` of the
/// observations.
pub fn validate_transfers(world: &World, transfers: &[TransferRecord]) -> Table2 {
    // Observations are distinct by `(serial, fault, clock hour)`: the
    // outcome only depends on which side of the validity window the clock
    // falls, and bucketing to the hour keeps dedup effective while never
    // mixing outcomes in practice. Each distinct key is classified at its
    // first observation in the stream, as every observation of it is.
    type ObsKey = (u32, Option<TransferFault>, u32);
    let mut keys: HashMap<ObsKey, Option<FailureReason>> = HashMap::new();
    // The clock-free half of each copy's validation, by the copy `materialize`
    // builds: the base zone's day, and the fault.
    let mut copies: HashMap<(u32, Option<TransferFault>), ZoneVerdicts> = HashMap::new();
    let mut failures: BTreeMap<FailureReason, Table2Row> = BTreeMap::new();
    let mut last: Option<(ObsKey, Option<FailureReason>)> = None;
    for t in transfers {
        let Some(serial) = t.serial() else { continue };
        let key = (serial, t.fault(), t.vp_clock / 3600);
        let reason = match last {
            Some((held, reason)) if held == key => reason,
            _ => {
                let reason = *keys.entry(key).or_insert_with(|| {
                    let copy = copies
                        .entry((base_day(t), t.fault()))
                        .or_insert_with(|| ZoneVerdicts::of(&materialize(world, t)));
                    classify(&copy.at(t.vp_clock).issues)
                });
                last = Some((key, reason));
                reason
            }
        };
        let Some(reason) = reason else { continue };
        let row = failures.entry(reason).or_insert_with(|| Table2Row {
            reason,
            serials: BTreeSet::new(),
            first_obs: u32::MAX,
            last_obs: 0,
            observations: 0,
            servers: BTreeSet::new(),
            vps: BTreeSet::new(),
        });
        row.serials.insert(serial);
        row.first_obs = row.first_obs.min(t.time);
        row.last_obs = row.last_obs.max(t.time);
        row.observations += 1;
        row.servers
            .insert(format!("{}({})", t.target.label(), t.family.label()));
        row.vps.insert(t.vp.0);
    }
    Table2 {
        rows: failures.into_values().collect(),
        total_transfers: transfers.len() as u64,
        distinct_failing: keys.values().filter(|reason| reason.is_some()).count() as u64,
    }
}

/// The day of the zone a transfer's copy is built from.
fn base_day(t: &TransferRecord) -> u32 {
    match t.fault() {
        // The stale zone is the one whose serial matches: reconstruct
        // from the day encoded in the serial.
        Some(TransferFault::Stale { serial }) => day_of_serial(serial),
        _ => t.time - t.time % 86400,
    }
}

/// Rebuild the exact zone copy a transfer delivered.
pub fn materialize(world: &World, t: &TransferRecord) -> Arc<Zone> {
    let base = world.zone_at(base_day(t));
    match t.fault() {
        Some(TransferFault::Bitflip { seed }) => {
            let mut corrupted = (*base).clone();
            flip_rrsig_bit(&mut corrupted, seed);
            Arc::new(corrupted)
        }
        _ => base,
    }
}

/// Timestamp of the day a `YYYYMMDDnn` serial encodes.
fn day_of_serial(serial: u32) -> u32 {
    let ymd = format!("{:08}000000", serial / 100);
    dns_crypto::validity::timestamp_from_ymd(&ymd).expect("serial encodes a date")
}

/// Map validation issues to the dominant Table 2 reason.
fn classify(issues: &[ValidationIssue]) -> Option<FailureReason> {
    let mut bogus = false;
    let mut expired = false;
    let mut not_incepted = false;
    for i in issues {
        match i {
            ValidationIssue::BogusSignature { .. } | ValidationIssue::Zonemd(_) => bogus = true,
            ValidationIssue::SignatureExpired { .. } => expired = true,
            ValidationIssue::SignatureNotIncepted { .. } => not_incepted = true,
            _ => {}
        }
    }
    // Bitflips break crypto regardless of clock; staleness shows as
    // expiry; inception errors only matter when nothing else is wrong.
    if bogus {
        Some(FailureReason::BogusSignature)
    } else if expired {
        Some(FailureReason::SignatureExpired)
    } else if not_incepted {
        Some(FailureReason::SigNotIncepted)
    } else {
        None
    }
}

/// Produce the Figure 10 rendering for a bitflipped transfer: the diff
/// between the reference zone and the received copy.
pub fn bitflip_report(world: &World, t: &TransferRecord) -> Option<BitflipReport> {
    matches!(t.fault(), Some(TransferFault::Bitflip { .. })).then(|| {
        let reference = world.zone_at(t.time - t.time % 86400);
        let observed = materialize(world, t);
        bitflip_diff(&reference, &observed)
    })?
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_zone::validate::validate_zone;
    use netsim::Family;
    use rss::{BRootPhase, RootLetter};
    use vantage::population::VpId;
    use vantage::records::Target;
    use vantage::{World, WorldBuildConfig};

    fn world() -> World {
        World::build(&WorldBuildConfig::tiny())
    }

    fn transfer(time: u32, vp_clock: u32, vp: u32, fault: Option<TransferFault>) -> TransferRecord {
        let target = Target {
            letter: RootLetter::D,
            b_phase: BRootPhase::Old,
        };
        TransferRecord::new(time, vp_clock, VpId(vp), target, Family::V6)
            .with_serial(Some(vantage::engine::serial_of_day(time - time % 86400)))
            .with_fault(fault)
    }

    const T0: u32 = vantage::schedule::MEASUREMENT_START + 40 * 86400;

    /// `validate_transfers` as it was: every observation pushed into its
    /// copy's group, groups validated and collected in one loop.
    fn validate_reference(world: &World, transfers: &[TransferRecord]) -> Table2 {
        type ObsKey = (u32, Option<TransferFault>, u32);
        let mut groups: BTreeMap<ObsKey, Vec<&TransferRecord>> = BTreeMap::new();
        for t in transfers {
            let Some(serial) = t.serial() else { continue };
            let key = (serial, t.fault(), t.vp_clock / 3600);
            groups.entry(key).or_default().push(t);
        }
        let mut failures: BTreeMap<FailureReason, Table2Row> = BTreeMap::new();
        let mut distinct_failing = 0u64;
        for obs in groups.values() {
            let sample = obs[0];
            let zone = materialize(world, sample);
            let report = validate_zone(&zone, sample.vp_clock);
            let reason = classify(&report.issues);
            let Some(reason) = reason else { continue };
            distinct_failing += 1;
            let row = failures.entry(reason).or_insert_with(|| Table2Row {
                reason,
                serials: BTreeSet::new(),
                first_obs: u32::MAX,
                last_obs: 0,
                observations: 0,
                servers: BTreeSet::new(),
                vps: BTreeSet::new(),
            });
            for t in obs {
                row.serials.extend(t.serial());
                row.first_obs = row.first_obs.min(t.time);
                row.last_obs = row.last_obs.max(t.time);
                row.observations += 1;
                row.servers
                    .insert(format!("{}({})", t.target.label(), t.family.label()));
                row.vps.insert(t.vp.0);
            }
        }
        Table2 {
            rows: failures.into_values().collect(),
            total_transfers: transfers.len() as u64,
            distinct_failing,
        }
    }

    fn assert_same(world: &World, transfers: &[TransferRecord]) -> Table2 {
        let (table, reference) = (
            validate_transfers(world, transfers),
            validate_reference(world, transfers),
        );
        assert_eq!(table.rows, reference.rows);
        assert_eq!(
            (table.total_transfers, table.distinct_failing),
            (reference.total_transfers, reference.distinct_failing)
        );
        table
    }

    #[test]
    fn two_passes_match_the_grouped_observations() {
        let w = world();
        let day = |n: u32| T0 + n * 86400;
        let stale = TransferFault::Stale {
            serial: vantage::engine::serial_of_day(vantage::schedule::MEASUREMENT_START),
        };
        let flip = |seed| Some(TransferFault::Bitflip { seed });
        let on = |mut t: TransferRecord, letter, family| {
            t.target = Target {
                letter,
                b_phase: BRootPhase::Old,
            };
            t.family = family;
            t
        };
        // Copies A (healthy) and B (bitflipped) interleaved A B A B, then
        // A's run resumed: one group each, every observation counted.
        let a = |vp| transfer(day(0) + 3600, day(0) + 3600, vp, None);
        let b = |vp| transfer(day(0) + 3700, day(0) + 3700, vp, flip(5));
        let mut stream = vec![a(0), b(1), a(2), b(3), a(4), a(5), b(1)];
        // A failed transfer inside a run, and one between two keys.
        stream.insert(5, a(9).with_serial(None));
        stream.push(b(9).with_serial(None));
        // Two bitflips of one zone that differ in the seed alone; a stale
        // copy seen on two days through two servers; a second stale copy
        // in the same clock hour but of another serial.
        stream.push(transfer(day(1) + 60, day(1) + 60, 6, flip(6)));
        stream.push(transfer(day(1) + 90, day(1) + 90, 6, flip(7)));
        stream.push(on(
            transfer(day(1) + 90, day(1) + 90, 7, Some(stale)),
            RootLetter::K,
            Family::V4,
        ));
        stream.push(transfer(day(2) + 90, day(2) + 90, 8, Some(stale)));
        let staler = TransferFault::Stale {
            serial: vantage::engine::serial_of_day(vantage::schedule::MEASUREMENT_START + 86400),
        };
        stream.push(transfer(day(1) + 95, day(1) + 95, 8, Some(staler)));
        // A clock two hours slow: healthy bytes, not yet incepted — and
        // the same copy seen again later with the key in between changed.
        stream.push(transfer(day(3) + 600, day(3) - 7200, 2, None));
        stream.push(transfer(day(3) + 600, day(3) + 600, 3, None));
        stream.push(transfer(day(3) + 700, day(3) - 7100, 4, None));
        // A failing copy whose first observation is the stream's last
        // record, and whose key sorts before every other.
        stream.push(transfer(
            day(0) - 86400 + 30,
            day(0) - 86400 - 7000,
            11,
            None,
        ));

        let table = assert_same(&w, &stream);
        assert_eq!(table.total_transfers, stream.len() as u64);
        assert_eq!(table.distinct_failing, 3 + 3 + 2);
        let row = |reason| {
            let row = table.rows.iter().find(|r| r.reason == reason);
            row.expect("a row per reason")
        };
        let bogus = row(FailureReason::BogusSignature);
        assert_eq!(
            (bogus.observations, bogus.vps.len(), bogus.serials.len()),
            (5, 3, 2)
        );
        let expired = row(FailureReason::SignatureExpired);
        assert_eq!((expired.observations, expired.servers.len()), (3, 2));
        assert_eq!(
            (expired.first_obs, expired.last_obs),
            (day(1) + 90, day(2) + 90)
        );
        let early = row(FailureReason::SigNotIncepted);
        assert_eq!((early.observations, early.vps.len()), (3, 3));
        assert_eq!(early.first_obs, day(0) - 86400 + 30);

        // Any order of the stream groups the same copies (their first
        // observations change, and with them nothing: a copy's records
        // share what validation reads).
        let mut rng = netsim::SimRng::new(0x7AB2);
        for _ in 0..3 {
            rng.shuffle(&mut stream);
            assert_same(&w, &stream);
        }
        // Nothing failing (no second pass), nothing delivered, nothing.
        let healthy = [a(0), a(1), a(2).with_serial(None)];
        assert!(assert_same(&w, &healthy).rows.is_empty());
        assert!(assert_same(&w, &healthy[2..]).rows.is_empty());
        assert_eq!(assert_same(&w, &[]).total_transfers, 0);
    }

    #[test]
    fn measured_transfers_match_the_grouped_observations() {
        use vantage::{MeasurementConfig, MeasurementEngine, Schedule, VecSink};
        let w = world();
        let config = MeasurementConfig {
            schedule: Schedule::subsampled(400),
            ..Default::default()
        };
        let mut sink = VecSink::default();
        MeasurementEngine::new(&w, config).run(&mut sink);
        assert!(sink.transfers.len() > 10_000);
        assert_same(&w, &sink.transfers);
    }

    #[test]
    fn healthy_transfers_produce_no_rows() {
        let w = world();
        let transfers = vec![transfer(T0 + 3600, T0 + 3600, 0, None)];
        let table = validate_transfers(&w, &transfers);
        assert!(table.rows.is_empty());
        assert_eq!(table.total_transfers, 1);
    }

    #[test]
    fn bitflip_classified_as_bogus() {
        let w = world();
        let transfers = vec![transfer(
            T0 + 3600,
            T0 + 3600,
            3,
            Some(TransferFault::Bitflip { seed: 77 }),
        )];
        let table = validate_transfers(&w, &transfers);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].reason, FailureReason::BogusSignature);
        assert_eq!(table.rows[0].vps.len(), 1);
    }

    #[test]
    fn stale_zone_classified_as_expired() {
        let w = world();
        // A zone from 40 days earlier has expired signatures (14-day window).
        let stale_day = vantage::schedule::MEASUREMENT_START;
        let transfers = vec![transfer(
            T0 + 3600,
            T0 + 3600,
            1,
            Some(TransferFault::Stale {
                serial: vantage::engine::serial_of_day(stale_day),
            }),
        )];
        let table = validate_transfers(&w, &transfers);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].reason, FailureReason::SignatureExpired);
    }

    #[test]
    fn skewed_clock_classified_as_not_incepted() {
        let w = world();
        // VP clock 2h before the zone's inception (day start).
        let transfers = vec![transfer(T0 + 600, T0 - 7200, 2, None)];
        let table = validate_transfers(&w, &transfers);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].reason, FailureReason::SigNotIncepted);
    }

    #[test]
    fn dedup_counts_all_observations() {
        let w = world();
        let transfers = vec![
            transfer(
                T0 + 3600,
                T0 + 3600,
                5,
                Some(TransferFault::Bitflip { seed: 9 }),
            ),
            transfer(
                T0 + 5400,
                T0 + 5400,
                5,
                Some(TransferFault::Bitflip { seed: 9 }),
            ),
        ];
        let table = validate_transfers(&w, &transfers);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0].observations, 2);
        // One distinct failing copy despite two observations.
        assert_eq!(table.distinct_failing, 1);
    }

    #[test]
    fn bitflip_report_is_single_line_pair() {
        let w = world();
        let t = transfer(
            T0 + 3600,
            T0 + 3600,
            0,
            Some(TransferFault::Bitflip { seed: 123 }),
        );
        let report = bitflip_report(&w, &t).expect("diff exists");
        assert_ne!(report.reference_line, report.observed_line);
        assert!(report.reference_line.contains("RRSIG"));
    }

    #[test]
    fn bitflip_report_none_for_healthy() {
        let w = world();
        let t = transfer(T0 + 3600, T0 + 3600, 0, None);
        assert!(bitflip_report(&w, &t).is_none());
    }

    #[test]
    fn render_contains_reasons() {
        let w = world();
        let transfers = vec![
            transfer(
                T0 + 3600,
                T0 + 3600,
                0,
                Some(TransferFault::Bitflip { seed: 5 }),
            ),
            transfer(T0 + 600, T0 - 7200, 1, None),
        ];
        let table = validate_transfers(&w, &transfers);
        let txt = table.render();
        assert!(txt.contains("Bogus Signature"));
        assert!(txt.contains("Sig. not incepted"));
        assert!(txt.contains("d.root"));
    }

    #[test]
    fn day_of_serial_round_trip() {
        let day = vantage::schedule::MEASUREMENT_START + 10 * 86400;
        assert_eq!(day_of_serial(vantage::engine::serial_of_day(day)), day);
    }
}
