//! The localroot refresh loop swept over a fault matrix — loss × bitflip ×
//! mid-stream truncation on the links to three upstream letters — and the
//! robustness invariants the paper's RQ3 fallback argument rests on
//! ([`ChaosSweep::violations`]):
//!
//! 1. a corrupt zone copy is never activated — every accepted copy holds
//!    the fault-free baseline's records, all of them, and answers the
//!    probe set byte-identically to it, signatures and denial proofs
//!    included; a refused refresh leaves nothing active;
//! 2. refresh converges whenever at least one upstream is reachable;
//! 3. stale serving is bounded by the zone's SOA expire field;
//! 4. every cell replays bit-identically from its seed.
//!
//! `examples/chaos_report.rs` renders a sweep; `tests/chaos_refresh.rs`
//! asserts its violations are empty and that each check fires.

use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, Rcode, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use localroot::{upstream_transport, LocalRoot, RefreshOutcome, ServingState, ValidationPolicy};
use rootd::{FaultCounters, FaultPlan, FaultSpec, FaultyTransport, InprocTransport};
use rss::RootLetter;
use std::sync::Arc;

/// When the sweep refreshes: 2023-12-06, inside the ZONEMD window.
pub const T0: u32 = 1_701_820_800;
/// The serial every upstream serves.
pub const SERIAL: u32 = 2023120600;
/// The upstream zone's SOA expire field.
pub const SOA_EXPIRE: u32 = 604_800;

/// The zone every upstream serves: 10 TLDs, signed, carrying a ZONEMD.
fn upstream_zone(serial: u32) -> dns_zone::Zone {
    build_root_zone(
        &RootZoneConfig {
            serial,
            tld_count: 10,
            inception: T0,
            expiration: T0 + 14 * 86_400,
            rollout: RolloutPhase::Validating,
        },
        &ZoneKeys::from_seed(1),
    )
}

/// Three upstream letters, each an engine over the same signed 10-TLD
/// zone at [`SERIAL`].
pub fn upstreams() -> Vec<(RootLetter, InprocTransport)> {
    let zone = Arc::new(upstream_zone(SERIAL));
    [RootLetter::A, RootLetter::B, RootLetter::C]
        .into_iter()
        .map(|letter| {
            let hostname = Some(format!("{}1.chaos", letter.ch()));
            (
                letter,
                upstream_transport(letter, hostname, Arc::clone(&zone)),
            )
        })
        .collect()
}

/// Every upstream behind a [`FaultyTransport`] driven by `plan`.
pub fn wired(
    servers: &[(RootLetter, InprocTransport)],
    plan: &Arc<FaultPlan>,
) -> Vec<(RootLetter, FaultyTransport<InprocTransport>)> {
    servers
        .iter()
        .enumerate()
        .map(|(i, (letter, server))| {
            (
                *letter,
                FaultyTransport::new(server.clone(), Arc::clone(plan), i as u64),
            )
        })
        .collect()
}

/// The probes an activated copy answers as the baseline does: each asked
/// plain and with DO, so the RRSIG and NSEC bytes it serves are compared
/// too, not only its bare RRsets.
pub fn probes() -> Vec<Message> {
    let plain = vec![
        Message::query(1, Question::new(Name::root(), RrType::Soa)),
        Message::query(2, Question::new(Name::root(), RrType::Ns)),
        Message::query(3, Question::new(Name::parse("com.").unwrap(), RrType::Ns)),
        Message::query(
            4,
            Question::new(Name::parse("nxd-tld.").unwrap(), RrType::A),
        ),
    ];
    let signed: Vec<Message> = plain
        .iter()
        .map(|q| {
            let mut q = q.clone();
            q.header.id += 10;
            set_edns(&mut q, &Edns::dnssec());
            q
        })
        .collect();
    plain.into_iter().chain(signed).collect()
}

/// One cell of a [`ChaosSweep`]: a fault mix, and what one refresh under
/// it did.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    pub loss: f64,
    pub flip: f64,
    pub trunc: f64,
    /// The refresh's outcome, its error rendered.
    pub outcome: Result<RefreshOutcome, String>,
    /// The refresh's metrics, taken before any probe.
    pub metrics: localroot::Metrics,
    /// The faults each upstream's transport injected.
    pub counters: Vec<FaultCounters>,
    /// An activated copy's records are not the baseline's.
    pub copy_differs: bool,
    /// Probes an activated copy answered otherwise than the baseline.
    pub answers_differ: usize,
    /// A refused refresh left a copy active or a transfer accepted.
    pub left_behind: bool,
    /// A second run from the same seed gave the same outcome, metrics
    /// and fault counters.
    pub replayed: bool,
}

impl ChaosCell {
    fn label(&self) -> String {
        format!(
            "cell loss={} flip={} trunc={}",
            self.loss, self.flip, self.trunc
        )
    }
}

/// The fault matrix swept once from a base seed, and serve-stale through
/// a total outage after it.
#[derive(Debug, Clone)]
pub struct ChaosSweep {
    pub base_seed: u64,
    /// Loss-major, then bitflip, then truncation.
    pub cells: Vec<ChaosCell>,
    /// Serve-stale through a total outage: each age probed, the rcode the
    /// copy answered with, and the one the expire bound calls for.
    pub stale: Vec<(u32, Rcode, Rcode)>,
    /// The stale client's counters after the outage.
    pub served_stale: u64,
    pub refused_expired: u64,
}

impl ChaosSweep {
    /// Drop probabilities swept.
    pub const LOSS: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
    /// Bitflip probabilities swept.
    pub const FLIP: [f64; 3] = [0.0, 0.05, 0.25];
    /// Mid-stream truncation probabilities swept.
    pub const TRUNC: [f64; 2] = [0.0, 0.3];

    /// Sweep the matrix, each cell seeded from `base_seed` and its
    /// position, against a baseline refreshed through clean links.
    pub fn run(base_seed: u64) -> ChaosSweep {
        let servers = upstreams();
        let clean = Arc::new(FaultPlan::clean(0));
        let mut baseline = LocalRoot::new(ValidationPolicy::default());
        baseline
            .refresh_wire(&mut wired(&servers, &clean), T0 + 60)
            .expect("a fault-free refresh succeeds");
        let answers: Vec<Vec<u8>> = (probes().iter())
            .map(|q| baseline.answer(q, T0 + 120).to_wire())
            .collect();
        let baseline = baseline.copy().expect("the baseline activated a copy");
        let baseline = baseline.canonical_records();

        let mut cells = Vec::new();
        for (ci, &loss) in Self::LOSS.iter().enumerate() {
            for (cj, &flip) in Self::FLIP.iter().enumerate() {
                for (ck, &trunc) in Self::TRUNC.iter().enumerate() {
                    let seed = base_seed + (ci as u64) * 100 + (cj as u64) * 10 + ck as u64;
                    let spec = FaultSpec {
                        drop_prob: loss,
                        bitflip_prob: flip,
                        truncate_stream_prob: trunc,
                        ..FaultSpec::clean()
                    };
                    let run = || {
                        let plan = Arc::new(FaultPlan::clean(seed).with_default(spec.clone()));
                        let mut up = wired(&servers, &plan);
                        let mut lr = LocalRoot::new(ValidationPolicy::default());
                        let out = lr.refresh_wire(&mut up, T0 + 60).map_err(|e| e.to_string());
                        let counters: Vec<FaultCounters> =
                            up.iter().map(|(_, t)| t.counters()).collect();
                        (out, lr.metrics, lr, counters)
                    };
                    let (outcome, metrics, mut lr, counters) = run();
                    let (mut copy_differs, mut answers_differ, mut left_behind) = (false, 0, false);
                    match &outcome {
                        Ok(_) => {
                            copy_differs = !matches!(lr.copy(),
                                Some(copy) if copy.canonical_records() == baseline);
                            answers_differ = (probes().iter().zip(&answers))
                                .filter(|(q, want)| lr.answer(q, T0 + 120).to_wire() != **want)
                                .count();
                        }
                        Err(_) => {
                            left_behind = lr.current_serial().is_some()
                                || metrics.transfers_accepted != 0
                                || lr.serving_state(T0 + 60) != ServingState::Empty;
                        }
                    }
                    let (outcome2, metrics2, _, counters2) = run();
                    let replayed =
                        outcome == outcome2 && metrics == metrics2 && counters == counters2;
                    cells.push(ChaosCell {
                        loss,
                        flip,
                        trunc,
                        outcome,
                        metrics,
                        counters,
                        copy_differs,
                        answers_differ,
                        left_behind,
                        replayed,
                    });
                }
            }
        }

        // Serve-stale through a total outage after one clean refresh.
        let dark = Arc::new(FaultPlan::clean(base_seed ^ 1).with_default(FaultSpec::blackhole()));
        let mut lr = LocalRoot::new(ValidationPolicy {
            max_age: 3_600,
            ..Default::default()
        });
        lr.refresh_wire(&mut wired(&servers, &clean), T0)
            .expect("a fault-free refresh succeeds");
        let q = Message::query(9, Question::new(Name::root(), RrType::Soa));
        let stale = [3_601u32, SOA_EXPIRE, SOA_EXPIRE + 1].map(|age| {
            let now = T0 + age;
            // Dark upstreams: the refresh fails, and the copy ages.
            let _ = lr.refresh_wire(&mut wired(&servers, &dark), now);
            let want = if age <= SOA_EXPIRE {
                Rcode::NoError
            } else {
                Rcode::ServFail
            };
            (age, lr.answer(&q, now).header.rcode, want)
        });
        ChaosSweep {
            base_seed,
            cells,
            stale: stale.to_vec(),
            served_stale: lr.metrics.served_stale,
            refused_expired: lr.metrics.refused_expired,
        }
    }

    /// Cells whose refresh activated a copy.
    pub fn activated(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Every fault injected over the sweep.
    pub fn faults(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for counters in self.cells.iter().flat_map(|c| &c.counters) {
            total.merge(counters);
        }
        total
    }

    /// The sweep's invariant violations (module docs), empty when they
    /// hold: per cell a wrong serial, a refresh reported current, a copy
    /// that is not the baseline's or answers otherwise, a refusal that
    /// left something active, or a replay that diverged; fewer than half
    /// the cells converging; and a stale answer past or short of the
    /// expire bound.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for cell in &self.cells {
            let label = cell.label();
            match &cell.outcome {
                Ok(RefreshOutcome::Updated { serial, .. }) if *serial != SERIAL => {
                    v.push(format!("{label}: wrong serial {serial}"));
                }
                Ok(RefreshOutcome::AlreadyCurrent { .. }) => {
                    v.push(format!("{label}: first refresh reported AlreadyCurrent"));
                }
                _ => {}
            }
            if cell.copy_differs {
                v.push(format!("{label}: corrupt copy activated"));
            }
            if cell.answers_differ > 0 {
                v.push(format!(
                    "{label}: {} probes answered otherwise than the baseline",
                    cell.answers_differ
                ));
            }
            if cell.left_behind {
                v.push(format!("{label}: failed refresh left a copy behind"));
            }
            if !cell.replayed {
                v.push(format!("{label}: replay diverged"));
            }
        }
        let (activated, cells) = (self.activated(), self.cells.len());
        if activated < cells / 2 {
            v.push(format!("only {activated}/{cells} cells converged"));
        }
        for &(age, got, want) in &self.stale {
            if got != want {
                v.push(format!(
                    "stale bound: age={age} answered {got:?}, want {want:?}"
                ));
            }
        }
        v
    }
}
