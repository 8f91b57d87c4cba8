//! Chaos report: sweep a fault matrix (loss × bitflip × mid-stream
//! truncation) against the resilient localroot refresh loop and check
//! the robustness invariants the paper's RQ3 fallback argument rests on:
//!
//! 1. a corrupt zone copy is never activated — every accepted copy
//!    answers byte-identically to the fault-free baseline, signatures and
//!    denial proofs included;
//! 2. refresh converges whenever at least one upstream is reachable;
//! 3. stale serving is bounded by the zone's SOA expire field;
//! 4. every cell replays bit-identically from its seed.
//!
//! ```sh
//! cargo run --release --example chaos_report            # default seed
//! cargo run --release --example chaos_report -- 42      # custom seed
//! ```
//!
//! The final line is machine-greppable: `chaos invariants: OK (...)` on
//! success; any violation prints `chaos invariants: FAILED ...` and
//! exits non-zero.

use dns_wire::edns::{set_edns, Edns};
use dns_wire::{Message, Name, Question, Rcode, RrType};
use dns_zone::rollout::RolloutPhase;
use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
use dns_zone::signer::ZoneKeys;
use localroot::{upstream_transport, LocalRoot, RefreshOutcome, ValidationPolicy};
use rootd::{FaultCounters, FaultPlan, FaultSpec, FaultyTransport, InprocTransport};
use rss::RootLetter;
use std::process::ExitCode;
use std::sync::Arc;

const T0: u32 = 1_701_820_800; // 2023-12-06: inside the ZONEMD window
const SERIAL: u32 = 2023120600;
const SOA_EXPIRE: u32 = 604_800;

fn upstream_servers() -> Vec<(RootLetter, InprocTransport)> {
    let zone = Arc::new(build_root_zone(
        &RootZoneConfig {
            serial: SERIAL,
            tld_count: 10,
            inception: T0,
            expiration: T0 + 14 * 86_400,
            rollout: RolloutPhase::Validating,
        },
        &ZoneKeys::from_seed(1),
    ));
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

fn wired(
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

/// Each probe asked plain and with DO, so the RRSIG and NSEC bytes an
/// activated copy serves are compared too, not only its bare RRsets.
fn probes() -> Vec<Message> {
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

#[allow(clippy::type_complexity)]
fn run_cell(
    servers: &[(RootLetter, InprocTransport)],
    spec: &FaultSpec,
    seed: u64,
) -> (
    Result<RefreshOutcome, String>,
    localroot::Metrics,
    LocalRoot,
    Vec<FaultCounters>,
) {
    let plan = Arc::new(FaultPlan::clean(seed).with_default(spec.clone()));
    let mut up = wired(servers, &plan);
    let mut lr = LocalRoot::new(ValidationPolicy::default());
    let out = lr.refresh_wire(&mut up, T0 + 60).map_err(|e| e.to_string());
    let counters = up.iter().map(|(_, t)| t.counters()).collect();
    let metrics = lr.metrics;
    (out, metrics, lr, counters)
}

fn main() -> ExitCode {
    let base_seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xc0de);
    let servers = upstream_servers();

    // Fault-free baseline the activated copies must match byte for byte.
    let clean = Arc::new(FaultPlan::clean(0));
    let mut baseline = LocalRoot::new(ValidationPolicy::default());
    baseline
        .refresh_wire(&mut wired(&servers, &clean), T0 + 60)
        .expect("fault-free refresh must succeed");
    let baseline_answers: Vec<Vec<u8>> = probes()
        .iter()
        .map(|q| baseline.answer(q, T0 + 120).to_wire())
        .collect();

    let mut violations: Vec<String> = Vec::new();
    let mut cells = 0u32;
    let mut activated = 0u32;
    let mut refused = 0u32;
    let mut total = FaultCounters::default();

    println!(
        "chaos sweep: loss x bitflip x truncation over 3 upstreams (base seed {base_seed:#x})"
    );
    println!(
        "{:>5} {:>5} {:>5}  {:<22} {:>8} {:>8} {:>9}",
        "loss", "flip", "trunc", "outcome", "retries", "timeouts", "faults"
    );
    for (ci, &loss) in [0.0, 0.1, 0.25, 0.5].iter().enumerate() {
        for (cj, &flip) in [0.0, 0.05, 0.25].iter().enumerate() {
            for (ck, &trunc) in [0.0, 0.3].iter().enumerate() {
                cells += 1;
                let seed = base_seed + (ci as u64) * 100 + (cj as u64) * 10 + ck as u64;
                let spec = FaultSpec {
                    drop_prob: loss,
                    bitflip_prob: flip,
                    truncate_stream_prob: trunc,
                    ..FaultSpec::clean()
                };
                let (out, metrics, mut lr, counters) = run_cell(&servers, &spec, seed);
                let label = match &out {
                    Ok(RefreshOutcome::Updated {
                        serial,
                        from_upstream,
                        attempts,
                    }) => {
                        activated += 1;
                        if *serial != SERIAL {
                            violations.push(format!(
                                "cell loss={loss} flip={flip} trunc={trunc}: wrong serial {serial}"
                            ));
                        }
                        // Invariant 1: byte-identical answers.
                        for (q, want) in probes().iter().zip(&baseline_answers) {
                            if &lr.answer(q, T0 + 120).to_wire() != want {
                                violations.push(format!(
                                    "cell loss={loss} flip={flip} trunc={trunc}: corrupt copy activated"
                                ));
                            }
                        }
                        format!("updated via {from_upstream} ({attempts} tries)")
                    }
                    Ok(RefreshOutcome::AlreadyCurrent { .. }) => {
                        violations.push("first refresh reported AlreadyCurrent".into());
                        "already-current?".into()
                    }
                    Err(_) => {
                        refused += 1;
                        // Invariant 1, refusal side: nothing activated.
                        if lr.current_serial().is_some() || metrics.transfers_accepted != 0 {
                            violations.push(format!(
                                "cell loss={loss} flip={flip} trunc={trunc}: failed refresh left a copy behind"
                            ));
                        }
                        "refused (all failed)".into()
                    }
                };
                // Invariant 4: the cell replays bit-identically.
                let (out2, metrics2, _, counters2) = run_cell(&servers, &spec, seed);
                if out != out2 || metrics != metrics2 || counters != counters2 {
                    violations.push(format!(
                        "cell loss={loss} flip={flip} trunc={trunc}: replay diverged"
                    ));
                }
                let cell_faults: u64 = counters.iter().map(|c| c.total_faults()).sum();
                for c in &counters {
                    total.merge(c);
                }
                println!(
                    "{loss:>5} {flip:>5} {trunc:>5}  {label:<22} {:>8} {:>8} {cell_faults:>9}",
                    metrics.retries, metrics.timeouts
                );
            }
        }
    }

    // Invariant 2: with clean and light-fault cells in the matrix, a
    // majority must converge; and the zero-fault cell always does.
    if activated < cells / 2 {
        violations.push(format!("only {activated}/{cells} cells converged"));
    }

    // Invariant 3: serve-stale through a total outage is bounded by the
    // SOA expire field.
    let dark = Arc::new(FaultPlan::clean(base_seed ^ 1).with_default(FaultSpec::blackhole()));
    let mut lr = LocalRoot::new(ValidationPolicy {
        max_age: 3_600,
        ..Default::default()
    });
    lr.refresh_wire(&mut wired(&servers, &clean), T0).unwrap();
    let q = Message::query(9, Question::new(Name::root(), RrType::Soa));
    for age in [3_601u32, SOA_EXPIRE, SOA_EXPIRE + 1] {
        let now = T0 + age;
        let _ = lr.refresh_wire(&mut wired(&servers, &dark), now);
        let rcode = lr.answer(&q, now).header.rcode;
        let want = if age <= SOA_EXPIRE {
            Rcode::NoError
        } else {
            Rcode::ServFail
        };
        if rcode != want {
            violations.push(format!(
                "stale bound: age={age} answered {rcode:?}, want {want:?}"
            ));
        }
    }
    println!(
        "serve-stale window: fresh<=3600s, stale<=SOA expire {SOA_EXPIRE}s, then refused \
         (served_stale={} refused_expired={})",
        lr.metrics.served_stale, lr.metrics.refused_expired
    );
    println!("aggregate injected faults: {}", total.render());

    if violations.is_empty() {
        println!(
            "chaos invariants: OK (cells={cells} activated={activated} refused={refused} \
             faults_injected={} stale_bound={SOA_EXPIRE})",
            total.total_faults()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        println!("chaos invariants: FAILED ({} violations)", violations.len());
        ExitCode::FAILURE
    }
}
