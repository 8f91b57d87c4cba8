//! A local root zone service (RFC 7706 / RFC 8806).
//!
//! The paper's RQ3 analysis (§7) motivates exactly this component: a
//! resolver that keeps a local copy of the root zone must be able to
//! *verify* that copy — "Parties ingesting ZONEMD signed zone files will
//! be able to implement appropriate fallback mechanisms such as
//! rescheduling a zone transfer from a different root server, and avoid
//! rare, yet hard-to-debug problems, such as bitflips or stale versions."
//!
//! [`LocalRoot`] implements that loop:
//!
//! 1. poll the SOA serial of its current copy against upstream;
//! 2. refresh via AXFR when stale;
//! 3. validate every received copy — ZONEMD plus all RRSIGs — before
//!    activating it;
//! 4. on validation failure, quarantine the copy and retry against a
//!    *different* root server (the fallback the paper recommends);
//! 5. serve queries from the last known-good copy throughout — degrading
//!    to serve-stale (bounded by the SOA expire field) when refreshes
//!    keep failing, then failing closed.
//!
//! The refresh loop is a hardened network client: it talks to upstreams
//! only through the `rootd` [`Transport`](rootd::Transport) abstraction
//! (so chaos tests can wrap upstreams in `rootd::FaultyTransport`), with
//! a per-query retry budget, capped exponential backoff with
//! deterministic jitter, TCP retry on truncated or garbage UDP, and a
//! per-upstream circuit breaker — see [`refresh`].
//!
//! The copy it serves is answered by a `rootd` [`Rootd`](rootd::Rootd)
//! engine — the one the upstreams answer with too — so the local root's
//! referrals, negative proofs and truncation are the root servers' own,
//! byte for byte; [`upstream_transport`] builds such an upstream.
//!
//! The [`policy`] module captures the validation policy knobs (ZONEMD
//! required vs opportunistic — mirroring the operators' announced
//! monitor-first roll-out), and [`metrics`] counts what happened, which the
//! example binary reports.
//!
//! ```
//! use localroot::{upstream_transport, LocalRoot, ValidationPolicy};
//! use dns_zone::rootzone::{build_root_zone, RootZoneConfig};
//! use dns_zone::rollout::RolloutPhase;
//! use dns_zone::signer::ZoneKeys;
//! use rss::RootLetter;
//! use std::sync::Arc;
//!
//! let now = 1_701_820_800; // 2023-12-06, ZONEMD validates
//! let zone = build_root_zone(&RootZoneConfig {
//!     serial: 2023120600,
//!     tld_count: 5,
//!     inception: now,
//!     expiration: now + 14 * 86_400,
//!     rollout: RolloutPhase::Validating,
//! }, &ZoneKeys::from_seed(1));
//! let k = upstream_transport(RootLetter::K, Some("ns1.fra.k".into()), Arc::new(zone));
//! let mut upstreams = vec![(RootLetter::K, k)];
//!
//! let mut local = LocalRoot::new(ValidationPolicy::strict());
//! local.refresh_wire(&mut upstreams, now + 60).expect("zone validates");
//! assert!(local.is_serving(now + 60));
//! assert!(local.delegation("com", now + 60).is_some());
//! ```

pub mod metrics;
pub mod policy;
pub mod refresh;
pub mod service;

pub use metrics::Metrics;
pub use policy::{ValidationPolicy, ZonemdRequirement};
pub use refresh::{HealthState, RetryPolicy, UpstreamHealth};
pub use service::{upstream_transport, LocalRoot, RefreshError, RefreshOutcome, ServingState};
