//! Cryptographic primitives for the `roots-go-deep` reproduction.
//!
//! The approved offline dependency set contains no cryptography crate, so the
//! SHA-2 family (FIPS 180-4) is implemented here from scratch. It is used for
//! `ZONEMD` digests (RFC 8976 uses SHA-384 for the root zone) and for the
//! simulated DNSSEC signature scheme [`simsig`].
//!
//! # Substitution note (see DESIGN.md §1)
//!
//! Real root-zone `RRSIG`s use RSA/SHA-256 (algorithm 8). Implementing RSA is
//! out of scope for this reproduction; instead [`simsig`] provides `SIMSIG`, a
//! deterministic keyed-digest scheme with the same API surface
//! (sign/verify, key tags, inception/expiration semantics). Every behaviour
//! the paper measures — expired signatures, bogus signatures after bitflips,
//! not-yet-incepted signatures under VP clock skew — is preserved, because
//! those depend only on validity-window arithmetic and on verification
//! failing when any signed byte changes, which a keyed digest guarantees.

pub mod base32;
pub mod base64;
pub mod hex;
pub mod keytag;
pub mod sha2;
pub mod simsig;
pub mod validity;

pub use keytag::key_tag;
pub use sha2::{Sha256, Sha384, Sha512};
pub use simsig::{SimKeyPair, SIMSIG_ALGORITHM};
pub use validity::{SignatureValidity, ValidityError};

/// Digest algorithm identifiers as used by `ZONEMD` (RFC 8976 §2.2.3) and in
/// DS records (RFC 4034 / IANA registry subset relevant to this study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DigestAlg {
    /// SHA-256 (32-byte digest).
    Sha256,
    /// SHA-384 (48-byte digest) — the scheme deployed for the root zone.
    Sha384,
    /// SHA-512 (64-byte digest).
    Sha512,
    /// A private/experimental algorithm, as used in the initial non-validating
    /// root-zone `ZONEMD` record published 2023-09-13 (scheme/alg outside the
    /// IANA-assigned verifiable range).
    Private(u8),
}

impl DigestAlg {
    /// The IANA `ZONEMD` hash-algorithm number (RFC 8976 §5.3).
    ///
    /// SHA-384 is 1, SHA-512 is 2. SHA-256 is not a registered ZONEMD
    /// algorithm; we claim 254 from the private-use range for it so the
    /// tooling can still round-trip zones digested with it.
    pub fn zonemd_number(self) -> u8 {
        match self {
            DigestAlg::Sha384 => 1,
            DigestAlg::Sha512 => 2,
            DigestAlg::Sha256 => 254,
            DigestAlg::Private(n) => n,
        }
    }

    /// Inverse of [`DigestAlg::zonemd_number`].
    pub fn from_zonemd_number(n: u8) -> Self {
        match n {
            1 => DigestAlg::Sha384,
            2 => DigestAlg::Sha512,
            254 => DigestAlg::Sha256,
            other => DigestAlg::Private(other),
        }
    }

    /// Whether a validator is expected to be able to verify this algorithm.
    ///
    /// Private-use algorithms are treated as unverifiable, mirroring the
    /// root-zone roll-out phase between 2023-09-13 and 2023-12-06.
    pub fn is_verifiable(self) -> bool {
        !matches!(self, DigestAlg::Private(_))
    }

    /// Compute the digest of `data` with this algorithm.
    ///
    /// For [`DigestAlg::Private`], a SHA-384 digest keyed by the algorithm
    /// number stands in for the undisclosed private scheme: it has the right
    /// length but intentionally does not match any public algorithm.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        self.digest_parts([data])
    }

    /// [`Self::digest`] of `parts` laid end to end, without laying them
    /// end to end first.
    pub fn digest_parts<'a>(self, parts: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
        match self {
            DigestAlg::Sha256 => {
                let mut h = Sha256::new();
                parts.into_iter().for_each(|p| h.update(p));
                h.finalize().to_vec()
            }
            DigestAlg::Sha384 => {
                let mut h = Sha384::new();
                parts.into_iter().for_each(|p| h.update(p));
                h.finalize().to_vec()
            }
            DigestAlg::Sha512 => {
                let mut h = Sha512::new();
                parts.into_iter().for_each(|p| h.update(p));
                h.finalize().to_vec()
            }
            DigestAlg::Private(n) => {
                let mut h = Sha384::new();
                // 0x50 ('P') is a domain-separation byte so private digests
                // can never collide with plain SHA-384 of the same data.
                h.update(&[0x50, n]);
                parts.into_iter().for_each(|p| h.update(p));
                h.finalize().to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths_match_algorithms() {
        assert_eq!(DigestAlg::Sha256.digest(b"x").len(), 32);
        assert_eq!(DigestAlg::Sha384.digest(b"x").len(), 48);
        assert_eq!(DigestAlg::Sha512.digest(b"x").len(), 64);
        assert_eq!(DigestAlg::Private(240).digest(b"x").len(), 48);
    }

    #[test]
    fn zonemd_numbers_round_trip() {
        for alg in [
            DigestAlg::Sha256,
            DigestAlg::Sha384,
            DigestAlg::Sha512,
            DigestAlg::Private(200),
        ] {
            assert_eq!(DigestAlg::from_zonemd_number(alg.zonemd_number()), alg);
        }
    }

    #[test]
    fn private_algorithm_differs_from_sha384() {
        let data = b"the root zone";
        assert_ne!(
            DigestAlg::Private(240).digest(data),
            DigestAlg::Sha384.digest(data)
        );
    }

    #[test]
    fn digest_parts_is_the_digest_of_the_parts_end_to_end() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let cuts = [0, 1, 63, 64, 65, 127, 128, 129, 500, 999, 1000];
        for alg in [
            DigestAlg::Sha256,
            DigestAlg::Sha384,
            DigestAlg::Sha512,
            DigestAlg::Private(240),
        ] {
            let parts = cuts.windows(2).map(|w| &data[w[0]..w[1]]);
            assert_eq!(alg.digest_parts(parts), alg.digest(&data), "{alg:?}");
            assert_eq!(alg.digest_parts([]), alg.digest(&[]), "{alg:?}");
        }
        assert_eq!(
            DigestAlg::Sha384.digest(&data),
            Sha384::digest(&data).to_vec()
        );
    }

    #[test]
    fn private_algorithm_is_not_verifiable() {
        assert!(!DigestAlg::Private(240).is_verifiable());
        assert!(DigestAlg::Sha384.is_verifiable());
    }
}
