//! The root server system (RSS) model.
//!
//! Encodes the 13 root server letters with their deployment shapes from the
//! paper's ground truth (root-servers.org as captured in Tables 1/4): site
//! counts per region with the global/local split, the real service
//! addresses (including both old and new b.root), per-operator instance
//! naming conventions (`hostname.bind` / `id.server` formats, including the
//! letters that only expose IATA metro codes), and the server behaviour
//! that answers the measurement script's 47-query set.
//!
//! * [`letters`] — the letters, operators, service IPs, renumbering event;
//! * [`catalog`] — per-region site counts and the world builder that places
//!   sites at shared facilities (driving §5 co-location) and registers
//!   origin/host ASes into the `netsim` topology;
//! * [`server`] — query answering: A/AAAA/TXT/NS, CHAOS identity, SOA,
//!   ZONEMD, AXFR, with per-site zone freshness (stale-site fault).

pub mod catalog;
pub mod letters;
pub mod server;

pub use catalog::{IdentityId, RootCatalog, RootSite, SiteCounts, WorldConfig};
pub use letters::{BRootPhase, Renumbering, RootLetter, B_ROOT_CHANGE_DATE};
pub use server::{RootServer, ServerBehavior};
