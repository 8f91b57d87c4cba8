//! `rootd`: a wire-level authoritative root server engine.
//!
//! This crate is the one root server in the workspace: request bytes in,
//! response bytes out, through the real codec path. The serving farm's
//! sites, a local root's upstreams and the local root's own copy
//! (`localroot::LocalRoot::answer`) all answer with a [`Rootd`]; `rss`
//! only describes the letters and their sites.
//!
//! * [`index`] — [`ZoneIndex`]: the signed root zone precompiled into hash
//!   lookups (positive RRsets with covering RRSIGs, TLD referral bundles
//!   with glue, the NSEC chain for negative proofs) over one arena holding
//!   every record as wire, encoded once;
//! * [`engine`] — [`Rootd`]: parse with `dns_wire::Message::from_wire`,
//!   answer (authoritative data, referrals, NXDOMAIN, CHAOS identity,
//!   AXFR), encode honoring the advertised EDNS payload size with TC-bit
//!   truncation at record boundaries;
//! * [`cache`] — [`AnswerCache`]: wire responses precompiled per zone
//!   epoch, served by splicing the request id/RD/question into stored
//!   bytes (zero allocation on hits);
//! * [`transport`] — the [`Transport`] abstraction with two impls: the
//!   deterministic [`InprocTransport`] (tests, `localroot`'s upstreams) and
//!   [`LoopbackTransport`] over real UDP and TCP sockets on 127.0.0.1;
//! * [`faults`] — [`FaultyTransport`]: a seeded chaos decorator over any
//!   transport (loss, duplication, reordering, delay, bitflips, mid-AXFR
//!   truncation, blackholes, garbage) driven by a [`FaultPlan`], with
//!   per-fault counters and bit-identical replay — what one client (the
//!   local root's refresh) sees of its upstreams;
//! * [`loadgen`] — a multithreaded load generator replaying seeded,
//!   B-Root-shaped query mixes (Ginesin & Mirkovic's composition study)
//!   from simulated clients against per-site engines, one datagram at a
//!   time, with log-bucketed latency histograms (p50/p95/p99) and
//!   throughput reporting;
//! * [`rrl`] — [`Rrl`]: BIND-style response-rate limiting with
//!   per-(source-prefix, response-class) fixed-window budgets and
//!   slip/TC behavior, epoch-swapped alongside the serving state;
//! * [`attack`] — seeded adversarial workloads (water-torture NXDOMAIN
//!   floods, spoofed reflection, priming floods, per-client query
//!   storms) interleaved with benign load on the shared virtual-time
//!   axis, replaying bit-identically across worker counts;
//! * [`health`] — the per-site health state machine (Healthy → Suspect
//!   → Dead → Probation) fed by watchdog probes, and the
//!   [`HealthTimeline`] the farm's failover steering reads;
//! * [`recovery`] — deterministic site failure injection
//!   ([`FailurePlan`]: crash / stall / blackhole windows, poisoned
//!   reloads; the one model of a serving site going dark, which
//!   [`Farm::run_chaos`] plays) and the recovery controller ([`run_control_plane`]):
//!   capped-exponential restart backoff on the shared virtual clock,
//!   producing the piecewise-constant [`ControlPlane`] that keeps chaos
//!   runs bit-identical across shard counts.

mod answer;
pub mod attack;
pub mod cache;
pub mod engine;
pub mod farm;
pub mod faults;
mod hash;
pub mod health;
pub mod index;
pub mod loadgen;
#[cfg(test)]
mod oracle;
mod query;
pub mod recovery;
pub mod rrl;
pub mod transport;

pub use attack::{AttackConfig, AttackPlan, AttackReport, AttackShape, AttackWindow, EpochTraffic};
pub use cache::AnswerCache;
pub use engine::{
    BatchTally, ReloadError, Rootd, ServeOutcome, ServeVerdict, SharedState, SiteIdentity,
};
pub use farm::{
    ChaosOutcome, Farm, FarmChaosConfig, FarmChaosReport, FarmConfig, FarmReport, FloodWindow,
};
pub use faults::{FaultCounters, FaultPlan, FaultSpec, FaultyTransport, Protocol};
pub use health::{HealthConfig, HealthTimeline, ProbeOutcome, SiteHealth, SiteStatus};
pub use index::{Lookup, Referral, ZoneIndex};
pub use loadgen::{ArrivalSchedule, LoadReport, LoadgenConfig, QueryClass, QueryMix};
pub use recovery::{
    run_control_plane, ControlPlane, FailureKind, FailurePlan, FailureWindow, LetterControl,
    PoisonedReload, RecoveryLog, RecoveryPolicy,
};
pub use rrl::{BucketStat, ResponseClass, Rrl, RrlConfig, RrlCounters, RrlDecision};
pub use transport::{
    InprocTransport, LoopbackServer, LoopbackTransport, Transport, TransportError, UdpBatch,
};
