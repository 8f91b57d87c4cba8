//! Root zone distribution channels (§7): besides AXFR from the root
//! servers, the paper validated zone copies from **ICANN CZDS** (daily
//! files) and the **IANA website** (downloaded every 15 minutes).
//!
//! The channels differ in cadence and in what the paper observed:
//!
//! * CZDS files carried a ZONEMD record from 2023-09-21 but *did not
//!   validate until 2023-12-07* (one day after the AXFR-visible switch —
//!   the daily file lags);
//! * IANA downloads showed the first ZONEMD at 2023-09-21T13:30 UTC and
//!   validated from 2023-12-06T20:30 UTC;
//! * neither channel ever delivered a corrupted file — the transport
//!   (HTTPS) protects integrity end-to-end, unlike AXFR from a stale or
//!   bit-flipped path.
//!
//! A snapshot is a time and a shared zone. What a channel publishes at `t`
//! is a function of `t`'s day (serial, signature window) and of the
//! roll-out phase the channel exposes at `t` — nothing finer — so a series
//! builds one zone per run of equal `(day, phase)` and every snapshot of
//! the run holds the same `Arc`; [`validate_channel`] verifies each run's
//! zone once and counts the verdict for every snapshot in it. The nine
//! days of §7's window are 9 CZDS files and 864 IANA downloads: 19 zones
//! built, signed and digested (IANA's 2023-12-06 splits at 20:30), not
//! 873.

use crate::rollout::{RolloutPhase, ZONEMD_VALIDATES_DATE};
use crate::rootzone::{build_root_zone, RootZoneConfig};
use crate::signer::ZoneKeys;
use crate::zone::Zone;
use dns_crypto::validity::timestamp_from_ymd;
use std::sync::Arc;

/// A zone distribution channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// ICANN Centralized Zone Data Service: one file per day.
    Czds,
    /// IANA website: a fresh snapshot every 15 minutes.
    IanaWebsite,
    /// AXFR from a root server (the live path; modelled elsewhere).
    Axfr,
}

impl Channel {
    /// Snapshot cadence in seconds.
    pub fn cadence(self) -> u32 {
        match self {
            Channel::Czds => 86_400,
            Channel::IanaWebsite => 900,
            Channel::Axfr => 0, // on demand
        }
    }

    /// When the channel first exposed a ZONEMD record.
    ///
    /// Both file channels lagged the in-zone introduction (2023-09-13) by
    /// about a week — the paper observed 2023-09-21 on both.
    pub fn zonemd_first_visible(self) -> u32 {
        match self {
            Channel::Czds | Channel::IanaWebsite => timestamp_from_ymd("20230921000000").unwrap(),
            Channel::Axfr => crate::rollout::ZONEMD_PRIVATE_DATE,
        }
    }

    /// When copies from this channel start validating.
    pub fn validates_from(self) -> u32 {
        match self {
            // CZDS is a daily file: the first validating one is dated a day
            // after the in-zone switch.
            Channel::Czds => timestamp_from_ymd("20231207000000").unwrap(),
            Channel::IanaWebsite => timestamp_from_ymd("20231206203000").unwrap(),
            Channel::Axfr => ZONEMD_VALIDATES_DATE,
        }
    }

    /// The roll-out phase a snapshot taken at `time` exposes on this
    /// channel (file channels lag the zone itself).
    pub fn phase_at(self, time: u32) -> RolloutPhase {
        if time < self.zonemd_first_visible() {
            RolloutPhase::NoRecord
        } else if time < self.validates_from() {
            RolloutPhase::PrivateAlgorithm
        } else {
            RolloutPhase::Validating
        }
    }
}

/// A dated snapshot from a channel.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub channel: Channel,
    /// Snapshot timestamp (channel cadence grid).
    pub time: u32,
    /// The zone file, shared with the neighbouring snapshots that carry
    /// the same one.
    pub zone: Arc<Zone>,
}

/// The cadence-grid times of `channel` in `[from, until)`.
fn grid(channel: Channel, from: u32, until: u32) -> impl Iterator<Item = u32> {
    let cadence = channel.cadence().max(900);
    let first = from.next_multiple_of(cadence);
    (first..until).step_by(cadence as usize)
}

/// The zone `channel` publishes on `day` (a midnight timestamp) while it
/// exposes `rollout`: daily serial, a 14-day signature window.
fn zone_of(day: u32, rollout: RolloutPhase, keys: &ZoneKeys, tld_count: usize) -> Zone {
    let ymd: String = dns_crypto::validity::timestamp_to_ymd(day)
        .chars()
        .take(8)
        .collect();
    let serial: u32 = ymd.parse::<u32>().expect("8 digits") * 100;
    build_root_zone(
        &RootZoneConfig {
            serial,
            tld_count,
            inception: day,
            expiration: day + 14 * 86400,
            rollout,
        },
        keys,
    )
}

/// Produce all snapshots of `channel` in `[from, until)`, built with the
/// channel-appropriate roll-out phase and daily serials. Day and phase
/// both only move forward with time, so each distinct zone is one run of
/// the series: it is built once and its snapshots share it.
pub fn snapshots(
    channel: Channel,
    from: u32,
    until: u32,
    keys: &ZoneKeys,
    tld_count: usize,
) -> Vec<Snapshot> {
    let mut run: Option<((u32, RolloutPhase), Arc<Zone>)> = None;
    grid(channel, from, until)
        .map(|time| {
            let key = (time - time % 86400, channel.phase_at(time));
            let zone = match &run {
                Some((held, zone)) if *held == key => Arc::clone(zone),
                _ => {
                    let zone = Arc::new(zone_of(key.0, key.1, keys, tld_count));
                    run = Some((key, Arc::clone(&zone)));
                    zone
                }
            };
            Snapshot {
                channel,
                time,
                zone,
            }
        })
        .collect()
}

/// Validation summary over a snapshot series — the §7 CZDS/IANA result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelReport {
    pub total: u32,
    /// Snapshots with no ZONEMD record.
    pub no_record: u32,
    /// Snapshots with an unverifiable (private-algorithm) record.
    pub unverifiable: u32,
    /// Snapshots that validate.
    pub validating: u32,
    /// Snapshots with an *invalid* digest (the paper saw zero on both file
    /// channels; anything non-zero here is a transport-integrity incident).
    pub invalid: u32,
}

/// Runs of neighbouring snapshots that hold the very same zone.
fn zone_runs(snaps: &[Snapshot]) -> impl Iterator<Item = &[Snapshot]> {
    snaps.chunk_by(|a, b| Arc::ptr_eq(&a.zone, &b.zone))
}

/// Validate every snapshot. A verdict is a pure function of the zone, so
/// a zone several neighbouring snapshots share is verified once and its
/// verdict counted for each of them.
pub fn validate_channel(snaps: &[Snapshot]) -> ChannelReport {
    use crate::zonemd::{verify_zonemd, ZonemdError};
    let mut report = ChannelReport::default();
    for run in zone_runs(snaps) {
        let n = run.len() as u32;
        report.total += n;
        match verify_zonemd(&run[0].zone) {
            Ok(()) => report.validating += n,
            Err(ZonemdError::NoZonemd) => report.no_record += n,
            Err(ZonemdError::UnsupportedAlgorithm) => report.unverifiable += n,
            Err(_) => report.invalid += n,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_crypto::validity::timestamp_from_ymd as ts;

    fn keys() -> ZoneKeys {
        ZoneKeys::from_seed(7)
    }

    /// `snapshots` as it was: one `build_root_zone` per snapshot.
    fn snapshots_reference(
        channel: Channel,
        from: u32,
        until: u32,
        keys: &ZoneKeys,
        tld_count: usize,
    ) -> Vec<Snapshot> {
        let cadence = channel.cadence().max(900);
        let mut out = Vec::new();
        let mut t = from - from % cadence;
        if t < from {
            t += cadence;
        }
        while t < until {
            let day = t - t % 86400;
            let ymd: String = dns_crypto::validity::timestamp_to_ymd(day)
                .chars()
                .take(8)
                .collect();
            let serial: u32 = ymd.parse::<u32>().expect("8 digits") * 100;
            let zone = build_root_zone(
                &RootZoneConfig {
                    serial,
                    tld_count,
                    inception: day,
                    expiration: day + 14 * 86400,
                    rollout: channel.phase_at(t),
                },
                keys,
            );
            out.push(Snapshot {
                channel,
                time: t,
                zone: Arc::new(zone),
            });
            t += cadence;
        }
        out
    }

    /// `validate_channel` as it was: one `verify_zonemd` per snapshot.
    fn validate_reference(snaps: &[Snapshot]) -> ChannelReport {
        use crate::zonemd::{verify_zonemd, ZonemdError};
        let mut report = ChannelReport::default();
        for s in snaps {
            report.total += 1;
            match verify_zonemd(&s.zone) {
                Ok(()) => report.validating += 1,
                Err(ZonemdError::NoZonemd) => report.no_record += 1,
                Err(ZonemdError::UnsupportedAlgorithm) => report.unverifiable += 1,
                Err(_) => report.invalid += 1,
            }
        }
        report
    }

    /// The shared series against the unshared one, zone by zone; returns
    /// how many zones the shared one built (= how many it verifies).
    fn check_against_reference(channel: Channel, from: u32, until: u32, tlds: usize) -> usize {
        let keys = keys();
        let shared = snapshots(channel, from, until, &keys, tlds);
        let unshared = snapshots_reference(channel, from, until, &keys, tlds);
        assert_eq!(shared.len(), unshared.len());
        for (s, u) in shared.iter().zip(&unshared) {
            assert_eq!((s.channel, s.time), (u.channel, u.time));
            assert_eq!(s.zone, u.zone, "{channel:?} at {}", s.time);
        }
        assert_eq!(validate_channel(&shared), validate_reference(&unshared));
        // One verification per run, and no zone built twice: the runs
        // hold pairwise different zones.
        let runs: Vec<&[Snapshot]> = zone_runs(&shared).collect();
        for pair in runs.windows(2) {
            assert_ne!(pair[0][0].zone, pair[1][0].zone);
        }
        let built: std::collections::HashSet<*const Zone> =
            shared.iter().map(|s| Arc::as_ptr(&s.zone)).collect();
        assert_eq!(built.len(), runs.len());
        runs.len()
    }

    #[test]
    fn shared_series_match_a_zone_built_per_snapshot() {
        // §7's window at its zone size: 9 daily files, and 864 downloads
        // over 9 days of which 2023-12-06 carries two zones.
        let from = ts("20231201000000").unwrap();
        let until = ts("20231210000000").unwrap();
        let czds = check_against_reference(Channel::Czds, from, until, 10);
        let iana = check_against_reference(Channel::IanaWebsite, from, until, 10);
        assert_eq!((czds, iana, czds + iana), (9, 10, 19));

        // One day straddling 2023-12-06T20:30: two distinct IANA zones
        // with one serial, split exactly at the switch.
        let dec6 = ts("20231206000000").unwrap();
        assert_eq!(
            check_against_reference(Channel::IanaWebsite, dec6, dec6 + 86_400, 3),
            2
        );
        let day = snapshots(Channel::IanaWebsite, dec6, dec6 + 86_400, &keys(), 3);
        let (first, last) = (&day[0], &day[95]);
        assert_eq!(first.zone.serial(), last.zone.serial());
        assert_ne!(first.zone, last.zone);
        let switch = ts("20231206203000").unwrap();
        for s in &day {
            let held = if s.time < switch { first } else { last };
            assert!(Arc::ptr_eq(&s.zone, &held.zone), "at {}", s.time);
        }
        assert_eq!(
            check_against_reference(Channel::Czds, dec6, dec6 + 86_400, 3),
            1
        );

        // A window that starts and ends off the cadence grid, across the
        // first-visible date and two midnights; and windows holding one
        // snapshot and none.
        let off = ts("20230919221700").unwrap();
        let until = off + 2 * 86_400 + 5;
        assert_eq!(check_against_reference(Channel::Czds, off, until, 3), 2);
        assert_eq!(
            check_against_reference(Channel::IanaWebsite, off, until, 3),
            3
        );
        let series = snapshots(Channel::IanaWebsite, off, until, &keys(), 3);
        assert_eq!(series[0].time, ts("20230919223000").unwrap());
        assert_eq!(
            check_against_reference(Channel::IanaWebsite, off, off + 900, 3),
            1
        );
        assert_eq!(
            check_against_reference(Channel::IanaWebsite, off, off + 600, 3),
            0
        );
        assert_eq!(check_against_reference(Channel::Czds, off, off, 3), 0);
    }

    #[test]
    fn equal_zones_held_apart_are_each_verified() {
        // Sharing is by identity: a caller's own series of equal but
        // separately built zones still gets one verdict per snapshot.
        let from = ts("20231208000000").unwrap();
        let snaps = snapshots_reference(Channel::IanaWebsite, from, from + 3_600, &keys(), 3);
        assert_eq!(zone_runs(&snaps).count(), 4);
        assert_eq!(validate_channel(&snaps), validate_reference(&snaps));
        assert_eq!(validate_channel(&snaps).validating, 4);
    }

    #[test]
    fn cadences_match_paper() {
        assert_eq!(Channel::Czds.cadence(), 86_400);
        assert_eq!(Channel::IanaWebsite.cadence(), 900);
    }

    #[test]
    fn phase_transitions_lag_axfr() {
        // On 2023-10-01, AXFR already shows the (private) record; so do the
        // file channels — but on 2023-09-15 only AXFR does.
        let t_sep15 = ts("20230915000000").unwrap();
        assert_eq!(
            Channel::Axfr.phase_at(t_sep15),
            RolloutPhase::PrivateAlgorithm
        );
        assert_eq!(Channel::Czds.phase_at(t_sep15), RolloutPhase::NoRecord);
        assert_eq!(
            Channel::IanaWebsite.phase_at(t_sep15),
            RolloutPhase::NoRecord
        );
        // 2023-12-06 21:00: IANA validates, CZDS not yet (daily lag).
        let t_dec6 = ts("20231206210000").unwrap();
        assert_eq!(
            Channel::IanaWebsite.phase_at(t_dec6),
            RolloutPhase::Validating
        );
        assert_eq!(
            Channel::Czds.phase_at(t_dec6),
            RolloutPhase::PrivateAlgorithm
        );
    }

    #[test]
    fn iana_snapshot_count_matches_cadence() {
        // One day of IANA downloads = 96 snapshots (every 15 minutes).
        let from = ts("20231001000000").unwrap();
        let snaps = snapshots(Channel::IanaWebsite, from, from + 86_400, &keys(), 4);
        assert_eq!(snaps.len(), 96);
    }

    #[test]
    fn czds_daily_files() {
        let from = ts("20231001000000").unwrap();
        let snaps = snapshots(Channel::Czds, from, from + 7 * 86_400, &keys(), 4);
        assert_eq!(snaps.len(), 7);
    }

    #[test]
    fn channel_validation_timeline() {
        // A window straddling the validation switch: before it everything
        // is unverifiable, after it everything validates, nothing invalid.
        let from = ts("20231205000000").unwrap();
        let until = ts("20231208000000").unwrap();
        let snaps = snapshots(Channel::IanaWebsite, from, until, &keys(), 4);
        let report = validate_channel(&snaps);
        assert_eq!(report.invalid, 0);
        assert!(report.unverifiable > 0);
        assert!(report.validating > 0);
        assert_eq!(
            report.total,
            report.no_record + report.unverifiable + report.validating
        );
    }

    #[test]
    fn pre_rollout_snapshots_have_no_record() {
        let from = ts("20230801000000").unwrap();
        let snaps = snapshots(Channel::Czds, from, from + 3 * 86_400, &keys(), 4);
        let report = validate_channel(&snaps);
        assert_eq!(report.no_record, report.total);
    }

    #[test]
    fn file_channels_never_invalid() {
        // The §7 finding: HTTPS-delivered files showed no integrity issues.
        let from = ts("20231120000000").unwrap();
        let until = ts("20231215000000").unwrap();
        for channel in [Channel::Czds, Channel::IanaWebsite] {
            let snaps = snapshots(channel, from, until, &keys(), 3);
            assert_eq!(validate_channel(&snaps).invalid, 0, "{channel:?}");
        }
    }
}
