//! `SIMSIG`: the deterministic keyed-digest signature scheme standing in for
//! RSA/SHA-256 in this reproduction.
//!
//! # Why a stand-in is sound here (DESIGN.md §1)
//!
//! The paper's RQ3 analysis validates `RRSIG` records over transferred zones.
//! The behaviours it observes — signatures that are expired, not yet incepted,
//! or bogus after a bitflip — depend on two properties of the signature
//! scheme only:
//!
//! 1. verification fails if *any* signed byte (or the signature itself)
//!    changes, and
//! 2. the validity window (inception/expiration) is checked against the
//!    validation-time clock.
//!
//! `SIMSIG` provides both: the "signature" is `SHA-384(secret || message)`,
//! and validity-window arithmetic is implemented in [`crate::validity`]
//! exactly as RFC 4034 §3.1.5 specifies (serial-number order, i.e. modular
//! comparison). What `SIMSIG` does *not* provide is public verifiability —
//! the verifier holds the same secret as the signer. Inside a closed
//! simulation that distinction is immaterial.

use crate::sha2::{Sha256, Sha384};

/// The private algorithm number used for `SIMSIG` in DNSKEY/RRSIG records.
///
/// 253 is `PRIVATEDNS` in the IANA DNSSEC algorithm registry — the correct
/// number for a private scheme like this one.
pub const SIMSIG_ALGORITHM: u8 = 253;

/// Length of a `SIMSIG` signature in bytes (one SHA-384 digest).
pub const SIGNATURE_LEN: usize = 48;

/// A `SIMSIG` key pair.
///
/// `public` goes into the `DNSKEY` RDATA. Signing and verifying key the
/// digest with a secret derived from `public` — the compromise documented
/// above — and a pair derives it once, when it is made, not per signature.
/// `Debug` shows the public half only.
#[derive(Clone, PartialEq, Eq)]
pub struct SimKeyPair {
    /// 32-byte public key material (placed in DNSKEY RDATA).
    pub public: [u8; 32],
    /// SHA-256 of `public`: what every signature is keyed with.
    key: [u8; 32],
}

impl std::fmt::Debug for SimKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl SimKeyPair {
    /// Derive a key pair deterministically from a seed. The same seed always
    /// yields the same pair, which keeps whole-simulation runs reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let mut base = Sha256::new();
        base.update(b"simsig-key-v1");
        base.update(&seed.to_be_bytes());
        let seed_secret = base.finalize();
        let mut pubh = Sha256::new();
        pubh.update(b"simsig-pub-v1");
        pubh.update(&seed_secret);
        Self::with_public(pubh.finalize())
    }

    /// Reconstruct the pair from public key material: `None` unless it is
    /// exactly 32 bytes, so a DNSKEY padded or cut short is no key at all.
    ///
    /// Possible only because `SIMSIG` is symmetric under the hood: the
    /// signing key is derived by hashing the public part. A real validator
    /// would of course use the public key directly.
    pub fn from_public(public: &[u8]) -> Option<Self> {
        Some(Self::with_public(public.try_into().ok()?))
    }

    /// Pairs built with [`SimKeyPair::from_seed`] and later reconstructed via
    /// [`SimKeyPair::from_public`] must agree, so the signing key is always
    /// the public-derived one.
    fn with_public(public: [u8; 32]) -> Self {
        let mut h = Sha256::new();
        h.update(b"simsig-derive-v1");
        h.update(&public);
        SimKeyPair {
            public,
            key: h.finalize(),
        }
    }

    /// Sign `message`, producing a 48-byte signature.
    pub fn sign(&self, message: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut h = Sha384::new();
        h.update(b"simsig-sig-v1");
        h.update(&self.key);
        h.update(message);
        h.finalize()
    }

    /// Verify `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> bool {
        if signature.len() != SIGNATURE_LEN {
            return false;
        }
        // Constant-time-ish comparison; not security relevant in a simulation
        // but it is the correct idiom.
        let expect = self.sign(message);
        let mut diff = 0u8;
        for (a, b) in expect.iter().zip(signature) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = SimKeyPair::from_seed(42);
        let sig = kp.sign(b"the root zone");
        assert!(kp.verify(b"the root zone", &sig));
    }

    #[test]
    fn verification_fails_on_message_bitflip() {
        let kp = SimKeyPair::from_seed(42);
        let msg = b"the root zone".to_vec();
        let sig = kp.sign(&msg);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut flipped = msg.clone();
                flipped[byte] ^= 1 << bit;
                assert!(!kp.verify(&flipped, &sig), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn verification_fails_on_signature_bitflip() {
        let kp = SimKeyPair::from_seed(42);
        let mut sig = kp.sign(b"msg");
        sig[17] ^= 0x04;
        assert!(!kp.verify(b"msg", &sig));
    }

    #[test]
    fn different_keys_do_not_cross_verify() {
        let a = SimKeyPair::from_seed(1);
        let b = SimKeyPair::from_seed(2);
        let sig = a.sign(b"msg");
        assert!(!b.verify(b"msg", &sig));
    }

    #[test]
    fn public_reconstruction_verifies() {
        let signer = SimKeyPair::from_seed(7);
        let sig = signer.sign(b"zone data");
        let validator = SimKeyPair::from_public(&signer.public).unwrap();
        assert!(validator.verify(b"zone data", &sig));
    }

    #[test]
    fn deterministic_from_seed() {
        assert_eq!(SimKeyPair::from_seed(9), SimKeyPair::from_seed(9));
        assert_ne!(SimKeyPair::from_seed(9), SimKeyPair::from_seed(10));
    }

    /// `sign` as it was: the keying secret derived from the public half
    /// again at every call.
    fn sign_reference(public: &[u8; 32], message: &[u8]) -> [u8; SIGNATURE_LEN] {
        let mut derive = Sha256::new();
        derive.update(b"simsig-derive-v1");
        derive.update(public);
        let mut h = Sha384::new();
        h.update(b"simsig-sig-v1");
        h.update(&derive.finalize());
        h.update(message);
        h.finalize()
    }

    #[test]
    fn signatures_match_the_per_call_derivation() {
        let message: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for seed in [0, 1, 7, 42, 2023, u64::MAX] {
            let kp = SimKeyPair::from_seed(seed);
            for len in [0, 1, 55, 56, 111, 112, 128, 200, 300] {
                let m = &message[..len];
                let want = sign_reference(&kp.public, m);
                assert_eq!(kp.sign(m), want, "seed {seed}, {len} bytes");
                let validator = SimKeyPair::from_public(&kp.public).unwrap();
                assert_eq!(validator.sign(m), want);
                assert!(validator.verify(m, &want));
            }
        }
    }

    #[test]
    fn public_keys_of_any_other_length_are_refused() {
        let kp = SimKeyPair::from_seed(7);
        let mut padded = kp.public.to_vec();
        padded.push(0xff);
        for bad in [&padded[..], &kp.public[..31], &[][..], &[0u8; 64][..]] {
            assert_eq!(SimKeyPair::from_public(bad), None, "{} bytes", bad.len());
        }
    }

    #[test]
    fn a_pair_is_its_public_half() {
        // Nothing of the seed survives construction: the signer and a
        // validator rebuilding the pair from the DNSKEY hold equal pairs.
        for seed in [0, 7, u64::MAX] {
            let kp = SimKeyPair::from_seed(seed);
            assert_eq!(SimKeyPair::from_public(&kp.public), Some(kp));
        }
    }

    #[test]
    fn debug_shows_the_public_half_only() {
        let kp = SimKeyPair::from_seed(7);
        let shown = format!("{kp:?}");
        assert_eq!(
            shown,
            format!("SimKeyPair {{ public: {:?}, .. }}", kp.public)
        );
        let key = format!("{:?}", kp.key);
        assert!(!shown.contains(&key[1..key.len() - 1]));
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = SimKeyPair::from_seed(42);
        assert!(!kp.verify(b"msg", &[0u8; 47]));
        assert!(!kp.verify(b"msg", &[]));
    }
}
