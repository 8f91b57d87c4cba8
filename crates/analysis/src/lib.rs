//! Analysis pipeline: every table and figure of the paper's evaluation.
//!
//! Each module consumes the compact records produced by the `vantage`
//! measurement engine and the `traces` flow generators, plus the world's
//! catalog/topology for ground truth, and produces a typed result with a
//! text renderer mirroring the paper's artefact:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`coverage`] | Tables 1 & 4, Figures 1 & 11 (site coverage) |
//! | [`stability`] | Figure 3 (eCDF of site-change events) |
//! | [`colocation`] | §5 + Figure 4 (reduced redundancy) |
//! | [`distance`] | Figure 5 (closest vs actual site distance) |
//! | [`rtt`] | Figures 6/14/15 (RTT by continent/letter/family) |
//! | [`traffic`] | Figures 7, 9, 12, 13 (traffic shift, ISP + IXP) |
//! | [`clients`] | Figure 8 (unique client subnets vs flows/client) |
//! | [`zonemd_pipeline`] | Table 2 + Figure 10 (validation errors, bitflips) |
//! | [`stats`] | shared numeric helpers (eCDF, percentiles, violin stats) |
//! | [`epochs`] | scenario before/during/after diffing (change events) |
//! | [`catchment`] | shared catchment/RTT accumulator + deployment deltas |
//! | [`walk`] | one walk over the probe stream for coverage, co-location, RTT and stability |

pub mod anomaly;
pub mod catchment;
pub mod clients;
pub mod colocation;
pub mod coverage;
pub mod distance;
pub mod epochs;
pub mod export;
#[cfg(test)]
mod oracles;
pub mod paths;
pub mod rtt;
pub mod stability;
pub mod stats;
pub mod traffic;
pub mod walk;
pub mod zonemd_pipeline;

pub use catchment::{CatchmentAccum, DeploymentSummary, ServedSite, SummaryDelta};
pub use colocation::{ColocationResult, ReducedRedundancy};
pub use coverage::{CoverageReport, CoverageRow};
pub use distance::DistanceResult;
pub use epochs::{EpochDiffReport, EpochStats};
pub use rtt::RttByRegion;
pub use stability::StabilityResult;
pub use traffic::{BRootShift, TrafficSeries};
pub use walk::ProbeWalk;
pub use zonemd_pipeline::{Table2, Table2Row};
