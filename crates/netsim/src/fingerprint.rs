//! The one replay-identity hasher.
//!
//! Reports, route tables, churn logs and planner sweeps all digest their
//! deterministic fields the same way — 64-bit FNV-1a over whole `u64`
//! words (xor, then multiply), order-sensitive — so "equal fingerprints
//! ⇒ same replay" means one thing everywhere, and the golden values in
//! `tests/golden_replay.rs` pin it.

/// An order-sensitive 64-bit digest over a sequence of `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// An empty digest.
    pub const fn new() -> Fingerprint {
        Fingerprint(Self::OFFSET_BASIS)
    }

    /// Continue a digest from a [`finish`](Self::finish)ed value:
    /// `resume(a.finish())` followed by the same words equals `a`
    /// followed by them.
    pub const fn resume(h: u64) -> Fingerprint {
        Fingerprint(h)
    }

    /// Absorb one word.
    #[inline]
    pub fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
    }

    /// The digest so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The closure every report used to carry inline.
    fn inline_closure(words: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        words.iter().for_each(|&w| mix(w));
        h
    }

    #[test]
    fn golden_vector_matches_the_inline_closure() {
        let words = [0, 1, 0xdead_beef, u64::MAX, 42];
        let mut fp = Fingerprint::new();
        words.iter().for_each(|&w| fp.mix(w));
        assert_eq!(fp.finish(), inline_closure(&words));
        assert_eq!(fp.finish(), 0xe3f5_9e6f_fb49_232e);
        assert_eq!(Fingerprint::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn resume_continues_where_finish_left_off() {
        let (head, tail) = ([7u64, 8, 9], [10u64, 11]);
        let mut whole = Fingerprint::new();
        head.iter().chain(&tail).for_each(|&w| whole.mix(w));
        let mut first = Fingerprint::new();
        head.iter().for_each(|&w| first.mix(w));
        let mut second = Fingerprint::resume(first.finish());
        tail.iter().for_each(|&w| second.mix(w));
        assert_eq!(second, whole);
    }
}
