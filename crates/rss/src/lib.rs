//! The root server system (RSS) model.
//!
//! Encodes the 13 root server letters with their deployment shapes from the
//! paper's ground truth (root-servers.org as captured in Tables 1/4): site
//! counts per region with the global/local split, the real service
//! addresses (including both old and new b.root), per-operator instance
//! naming conventions (`hostname.bind` / `id.server` formats, including the
//! letters that only expose IATA metro codes).
//!
//! * [`letters`] — the letters, operators, service IPs, renumbering event;
//! * [`catalog`] — per-region site counts and the world builder that places
//!   sites at shared facilities (driving §5 co-location) and registers
//!   origin/host ASes into the `netsim` topology.
//!
//! This crate describes the system; it answers no queries. A root server
//! that answers — a catalog site in the serving farm, a local root's
//! upstream, the local copy itself — is a `rootd::Rootd` engine over a
//! signed zone.

pub mod catalog;
pub mod letters;

pub use catalog::{IdentityId, RootCatalog, RootSite, SiteCounts, WorldConfig};
pub use letters::{BRootPhase, Renumbering, RootLetter, B_ROOT_CHANGE_DATE};
