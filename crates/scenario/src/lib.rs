//! Timeline-driven change events for the simulated root server system.
//!
//! The paper measures '.' *under change* — but a single historical change
//! (the 2023 b.root renumbering). This crate makes change a first-class
//! object: a [`Scenario`] is a named, seeded timeline of typed
//! [`EventKind`]s — site outages and additions, prefix renumberings,
//! route-flap bursts, peering-link failures, degraded serving behaviour,
//! DDoS-style RTT inflation — and the [`ScenarioEngine`] drives a
//! measurement through it deterministically:
//!
//! 1. the timeline is cut into *epochs* at event boundaries;
//! 2. before each epoch the engine reverts expired events and applies
//!    newly active ones (snapshotting the mutated netsim/rss state);
//! 3. the epoch's rounds run through the ordinary measurement engine with
//!    churn state carried across boundaries ([`vantage::EngineSession`]),
//!    so an event-free scenario reproduces the continuous pipeline's
//!    record stream bit for bit;
//! 4. every record lands in its epoch's [`EpochRun`]; [`report`] turns a
//!    run into the before/during/after diff table
//!    ([`analysis::epochs::EpochDiffReport`]).
//!
//! The historical b.root renumbering is re-expressed as the built-in
//! [`catalog::broot_renumbering`] scenario and doubles as the equivalence
//! anchor: driving it through the engine reproduces the legacy pipeline's
//! outputs exactly (see this crate's `broot_equivalence` test).

pub mod attack;
pub mod catalog;
pub mod chaos;
pub mod engine;
pub mod event;
pub mod report;
pub mod snapshot;
pub mod timeline;

pub use attack::attack_plan_on_clock;
pub use chaos::{failure_plan_on_clock, fault_plan_on_clock};
pub use engine::{EpochRun, EpochZone, ScenarioConfig, ScenarioEngine, ScenarioRun};
pub use event::{DegradedMode, EventKind, Scope};
pub use report::epoch_diff;
pub use snapshot::{apply_event, revert_event, WorldSnapshot};
pub use timeline::{Scenario, ScenarioError, ScenarioEvent};
