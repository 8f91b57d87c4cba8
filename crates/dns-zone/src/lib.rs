//! DNS zones for the `roots-go-deep` reproduction.
//!
//! * [`zone`] — the zone model: a named collection of records with RRset
//!   grouping and RFC 4034 canonical ordering;
//! * [`masterfile`] — RFC 1035 master-file parsing and serialization
//!   (`$ORIGIN`, `$TTL`, comments, parenthesized continuations);
//! * [`zonemd`] — RFC 8976 zone digest computation and verification;
//! * [`signer`] — DNSSEC signing: key management, NSEC chain construction,
//!   per-RRset `RRSIG` generation using the `SIMSIG` stand-in scheme;
//! * [`rootzone`] — synthesis of a realistic root zone (TLD delegations,
//!   glue, DNSSEC chain) with serial management;
//! * [`rollout`] — the ZONEMD roll-out timeline the paper observed
//!   (no record → private-algorithm record → verifiable SHA-384 record);
//! * [`axfr`] — zone-transfer framing as a message sequence;
//! * [`corrupt`] — fault injection: bitflips, stale zones, truncations — the
//!   error classes in the paper's Table 2;
//! * [`validate`] — the `ldnsutils`-equivalent validation pipeline: ZONEMD
//!   check plus verification of every `RRSIG` against the zone's DNSKEYs.

pub mod axfr;
mod canonical;
pub mod channels;
pub mod corrupt;
pub mod masterfile;
#[cfg(test)]
mod oracle;
pub mod rollout;
pub mod rootzone;
pub mod signer;
pub mod validate;
pub mod zone;
pub mod zonemd;

pub use rollout::{RolloutPhase, ZONEMD_PRIVATE_DATE, ZONEMD_VALIDATES_DATE};
pub use signer::{SigningConfig, ZoneKeys};
pub use validate::{
    validate_rrsigs, validate_zone, ValidationIssue, ValidationReport, ZoneVerdicts,
};
pub use zone::{Zone, ZoneError};
pub use zonemd::{compute_zonemd, verify_zonemd, ZonemdError};
