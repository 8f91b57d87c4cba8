//! `roots-core`: the public facade of the *roots-go-deep* reproduction.
//!
//! Ties the substrate crates together into an end-to-end pipeline:
//!
//! ```text
//! World::build ──▶ MeasurementEngine ──▶ ProbeRecord / TransferRecord ─┐
//! TraceConfig  ──▶ generate_flows    ──▶ FlowObservation ─────────────┤
//!                                                                     ▼
//!                                 analysis::* ──▶ tables & figures (text)
//! ```
//!
//! The [`experiments`] registry maps every table and figure of the paper to
//! a runnable experiment; [`Pipeline`] executes the shared measurement once
//! and hands the record streams to each experiment. [`scale`] provides
//! laptop-to-paper sizing presets.
//!
//! # Quickstart
//!
//! ```
//! use roots_core::{Scale, Pipeline};
//!
//! let pipeline = Pipeline::run(Scale::Tiny);
//! let table1 = roots_core::experiments::run_one(&pipeline, "table1").unwrap();
//! assert!(table1.contains("Table 1"));
//! ```

pub mod chaos;
pub mod experiments;
pub mod farm;
pub mod pipeline;
pub mod planning;
pub mod scale;
pub mod scenarios;
pub mod serving;

pub use chaos::ChaosSweep;
pub use farm::{FarmChaosRun, FarmRun};
pub use pipeline::Pipeline;
pub use planning::{PlannerDemo, PlannerRun};
pub use scale::Scale;
pub use scenarios::ScenarioPipeline;
pub use serving::{AttackRun, ClockChaosRun, ServingPipeline};
