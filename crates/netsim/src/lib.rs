//! AS-level Internet simulator for the `roots-go-deep` reproduction.
//!
//! The paper measures the live Internet; this crate is the substitute
//! substrate (DESIGN.md §1): an AS topology with business relationships,
//! Gao-Rexford policy routing per address family, anycast origination with
//! local (NO_EXPORT-style) sites, traceroute emulation and a geographic RTT
//! model. It produces the same *artefacts* the paper's analyses consume —
//! catchments, AS paths, second-to-last hops, RTTs, and route churn — from
//! the same causes (policy preferences, path asymmetry per family, shared
//! last-hop facilities).
//!
//! Module map:
//!
//! * [`rng`] — deterministic SplitMix64 PRNG; all randomness flows from one
//!   seed;
//! * [`types`] — IDs, address families, business relationships;
//! * [`topology`] — the AS graph and its generator (tier-1 backbone,
//!   regional transit, stubs, IXP peering, per-family link masks, and the
//!   open-peering v6 backbone standing in for AS6939);
//! * [`anycast`] — facilities, sites and deployments;
//! * [`routing`] — Gao-Rexford route propagation and per-AS candidate
//!   tables;
//! * [`traceroute`] — hop expansion, second-to-last-hop identity, missing
//!   hops;
//! * [`rtt`] — path RTT from great-circle hop distances plus per-hop and
//!   jitter terms;
//! * [`churn`] — the route-flapping process that drives site changes
//!   between measurement rounds;
//! * [`shard`] — the one sharded run loop every parallel range loop in
//!   the workspace goes through (contiguous partition, a thread per
//!   shard, results in shard-id order, a [`shard::Merge`] fold);
//! * [`fingerprint`] — the one order-sensitive replay-identity hasher.

pub mod anycast;
pub mod churn;
pub mod fingerprint;
pub mod rng;
pub mod routing;
pub mod rtt;
pub mod shard;
pub mod topology;
pub mod traceroute;
pub mod types;

pub use anycast::{Deployment, Facility, FacilityId, Site, SiteId, SiteScope};
pub use churn::ChurnModel;
pub use fingerprint::Fingerprint;
pub use rng::SimRng;
pub use routing::{propagate, CandidateRoute, RouteTable};
pub use rtt::RttModel;
pub use topology::{Topology, TopologyConfig, TopologySnapshot};
pub use traceroute::{trace, Traceroute, TracerouteConfig};
pub use types::{AsId, Family, Relation, Tier};
