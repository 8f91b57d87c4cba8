//! Response-rate limiting (RRL): the server-side defense against spoofed
//! floods, after the scheme BIND/NSD deploy on real root letters.
//!
//! An authoritative server cannot tell a spoofed query from a real one —
//! it can only refuse to be a good amplifier. RRL buckets outgoing
//! *responses* by (masked source, response class) per virtual-time
//! window; once a bucket exhausts its budget, further responses in the
//! window are dropped, except that every `slip`-th limited response goes
//! out as a minimal truncated (TC=1) reply instead. A real client behind
//! the spoofed address takes the TC hint and retries over TCP — which is
//! never rate-limited, because TCP cannot be spoofed off-path — and still
//! gets the full answer; the reflector's amplification gain collapses to
//! a question-sized packet every `slip` responses.
//!
//! # Determinism
//!
//! Buckets refill by *fixed window*: window `w = t_ms / window_ms`,
//! globally aligned, full budget at each window start. Given the
//! arrivals of one (bucket, window), the k-th arrival's verdict is a
//! pure function of k — `Pass` while `k ≤ limit`, then the slip cadence
//! — so per-window totals are order-independent, and per-query verdicts
//! are reproducible whenever each (bucket, window)'s arrivals are
//! replayed in order (the attack generator's window-chunk partitioning
//! guarantees exactly that; see `attack.rs`). Windows deliberately carry
//! no per-bucket phase: a seeded phase would break that alignment.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// RRL parameters. Rates are response budgets per bucket per window;
/// a limit of 0 disables limiting for that class.
#[derive(Debug, Clone)]
pub struct RrlConfig {
    /// Seed recorded for report provenance (verdicts are seed-free: the
    /// accounting is a pure function of bucket key and virtual time).
    pub seed: u64,
    /// Window length in virtual ms. Windows are aligned to multiples of
    /// this — `window = t_ms / window_ms` — for all buckets.
    pub window_ms: u64,
    /// Budget per window for positive responses (answers, referrals,
    /// NODATA).
    pub responses_limit: u32,
    /// Budget per window for NXDOMAIN — the water-torture class.
    pub nxdomain_limit: u32,
    /// Budget per window for error responses (FORMERR, REFUSED, …).
    pub error_limit: u32,
    /// Every `slip`-th limited response is sent truncated instead of
    /// dropped (2 = every other). 0 drops all limited responses.
    pub slip: u32,
    /// Right-shift applied to the source address before bucketing, so
    /// adjacent sources share a bucket (BIND masks to /24; the simulated
    /// address space is AS-granular, so the default shift is 0).
    pub prefix_shift: u32,
}

impl Default for RrlConfig {
    fn default() -> Self {
        RrlConfig {
            seed: 0,
            window_ms: 1_000,
            responses_limit: 25,
            nxdomain_limit: 25,
            error_limit: 5,
            slip: 2,
            prefix_shift: 0,
        }
    }
}

impl RrlConfig {
    /// The per-window budget for `class` (0 = unlimited).
    pub fn limit_for(&self, class: ResponseClass) -> u32 {
        match class {
            ResponseClass::Answer | ResponseClass::Referral | ResponseClass::NoData => {
                self.responses_limit
            }
            ResponseClass::NxDomain => self.nxdomain_limit,
            ResponseClass::Error => self.error_limit,
        }
    }

    /// The refill window containing virtual instant `t_ms`.
    pub fn window_of(&self, t_ms: u64) -> u64 {
        t_ms / self.window_ms.max(1)
    }
}

/// What kind of response a datagram is, for bucketing purposes —
/// classified from the raw response bytes (header fields only), so the
/// serve path never re-parses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResponseClass {
    /// NOERROR with answer records (includes amplification-prone shapes
    /// like apex DNSKEY/ANY).
    Answer,
    /// NOERROR, empty answer, non-authoritative authority: a delegation.
    Referral,
    /// NOERROR, empty answer, authoritative SOA: negative existence.
    NoData,
    /// RCODE 3 — the water-torture class.
    NxDomain,
    /// Any other RCODE (FORMERR, REFUSED, SERVFAIL, NOTIMP, …).
    Error,
}

impl ResponseClass {
    /// Classify a response from its header bytes. Anything too short to
    /// carry a header counts as an error.
    pub fn of(resp: &[u8]) -> ResponseClass {
        if resp.len() < 12 {
            return ResponseClass::Error;
        }
        match resp[3] & 0x0f {
            3 => ResponseClass::NxDomain,
            0 => {
                let ancount = u16::from_be_bytes([resp[6], resp[7]]);
                let nscount = u16::from_be_bytes([resp[8], resp[9]]);
                if ancount > 0 {
                    ResponseClass::Answer
                } else if nscount > 0 && resp[2] & 0x04 == 0 {
                    // Empty answer + authority without AA: a referral.
                    ResponseClass::Referral
                } else if nscount > 0 {
                    ResponseClass::NoData
                } else {
                    // Header-only NOERROR (e.g. the empty-TC AXFR stub).
                    ResponseClass::Answer
                }
            }
            _ => ResponseClass::Error,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            ResponseClass::Answer => "answer",
            ResponseClass::Referral => "referral",
            ResponseClass::NoData => "nodata",
            ResponseClass::NxDomain => "nxdomain",
            ResponseClass::Error => "error",
        }
    }
}

/// The limiter's verdict for one would-be response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrlDecision {
    /// Within budget: send the response unmodified.
    Pass,
    /// Over budget, on the slip cadence: send a minimal TC=1 reply.
    Slip,
    /// Over budget: send nothing.
    Drop,
}

/// Aggregate limiter counters, mergeable across engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RrlCounters {
    /// Responses that consulted the limiter.
    pub checked: u64,
    /// Sent unmodified.
    pub passed: u64,
    /// Sent as minimal TC=1 replies.
    pub slipped: u64,
    /// Suppressed entirely.
    pub dropped: u64,
}

impl RrlCounters {
    pub fn merge(&mut self, other: &RrlCounters) {
        self.checked += other.checked;
        self.passed += other.passed;
        self.slipped += other.slipped;
        self.dropped += other.dropped;
    }

    pub fn render(&self) -> String {
        format!(
            "checked={} passed={} slipped(TC)={} dropped={}",
            self.checked, self.passed, self.slipped, self.dropped
        )
    }
}

/// Per-(source-prefix, class) totals aggregated over all windows —
/// the per-bucket view the flood reports print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketStat {
    pub prefix: u64,
    pub class: ResponseClass,
    pub arrivals: u64,
    pub passed: u64,
    pub slipped: u64,
    pub dropped: u64,
}

/// Given `arrivals` responses landing in one (bucket, window), the split
/// the slip cadence produces — the closed form the verdict sequence sums
/// to, independent of everything but the count. Exposed for the
/// accounting proptests.
pub fn window_totals(arrivals: u64, limit: u32, slip: u32) -> (u64, u64, u64) {
    if limit == 0 {
        return (arrivals, 0, 0);
    }
    let passed = arrivals.min(limit as u64);
    let limited = arrivals - passed;
    let slipped = if slip == 0 {
        0
    } else {
        limited.div_ceil(slip as u64)
    };
    (passed, slipped, limited - slipped)
}

const SHARDS: usize = 32;

type BucketKey = (u64, ResponseClass, u64);

/// The limiter state one engine holds: sharded per-(bucket, window)
/// arrival counts plus lock-free aggregate counters. Created per config
/// epoch (`Rootd::set_rrl`), so a new config starts with empty buckets.
#[derive(Debug)]
pub struct Rrl {
    cfg: RrlConfig,
    shards: Vec<Mutex<HashMap<BucketKey, u64>>>,
    checked: AtomicU64,
    passed: AtomicU64,
    slipped: AtomicU64,
    dropped: AtomicU64,
}

impl Rrl {
    pub fn new(cfg: RrlConfig) -> Rrl {
        Rrl {
            cfg,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            checked: AtomicU64::new(0),
            passed: AtomicU64::new(0),
            slipped: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &RrlConfig {
        &self.cfg
    }

    /// Account one would-be response from `src` of class `class` at
    /// virtual instant `t_ms`, and rule on it.
    pub fn decide(&self, src: u64, class: ResponseClass, t_ms: u64) -> RrlDecision {
        self.checked.fetch_add(1, Ordering::Relaxed);
        let limit = self.cfg.limit_for(class);
        if limit == 0 {
            self.passed.fetch_add(1, Ordering::Relaxed);
            return RrlDecision::Pass;
        }
        let key = (
            src >> self.cfg.prefix_shift,
            class,
            self.cfg.window_of(t_ms),
        );
        let n = {
            let mut shard = self.shards[shard_of(&key)].lock().unwrap();
            let slot = shard.entry(key).or_insert(0);
            *slot += 1;
            *slot
        };
        if n <= limit as u64 {
            self.passed.fetch_add(1, Ordering::Relaxed);
            return RrlDecision::Pass;
        }
        // j-th limited response of the window (1-based): slip the first
        // and then every `slip`-th after it, drop the rest.
        let j = n - limit as u64;
        if self.cfg.slip > 0 && (j - 1).is_multiple_of(self.cfg.slip as u64) {
            self.slipped.fetch_add(1, Ordering::Relaxed);
            RrlDecision::Slip
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            RrlDecision::Drop
        }
    }

    pub fn counters(&self) -> RrlCounters {
        RrlCounters {
            checked: self.checked.load(Ordering::Relaxed),
            passed: self.passed.load(Ordering::Relaxed),
            slipped: self.slipped.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Per-bucket totals, summed over windows via [`window_totals`] and
    /// sorted hottest-first (then by key, for a deterministic order).
    pub fn bucket_stats(&self) -> Vec<BucketStat> {
        let mut per_bucket: HashMap<(u64, ResponseClass), (u64, u64, u64, u64)> = HashMap::new();
        for shard in &self.shards {
            for (&(prefix, class, _window), &arrivals) in shard.lock().unwrap().iter() {
                let limit = self.cfg.limit_for(class);
                let (p, s, d) = window_totals(arrivals, limit, self.cfg.slip);
                let agg = per_bucket.entry((prefix, class)).or_insert((0, 0, 0, 0));
                agg.0 += arrivals;
                agg.1 += p;
                agg.2 += s;
                agg.3 += d;
            }
        }
        let mut stats: Vec<BucketStat> = per_bucket
            .into_iter()
            .map(
                |((prefix, class), (arrivals, passed, slipped, dropped))| BucketStat {
                    prefix,
                    class,
                    arrivals,
                    passed,
                    slipped,
                    dropped,
                },
            )
            .collect();
        stats.sort_by(|a, b| {
            b.arrivals
                .cmp(&a.arrivals)
                .then(a.prefix.cmp(&b.prefix))
                .then(a.class.cmp(&b.class))
        });
        stats
    }
}

#[cfg(test)]
impl Rrl {
    /// How many (bucket, window) counters the limiter holds.
    pub(crate) fn buckets(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().unwrap().len())
            .sum()
    }
}

fn shard_of(key: &BucketKey) -> usize {
    // Fibonacci-hash the prefix (classes and windows cluster; sources
    // are what spread).
    (key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) as usize % SHARDS
}

/// Write the minimal slipped reply for `request` into `out`: the request
/// id and question echoed under a header with QR, AA, and TC set and
/// every section count but QDCOUNT zero. Carries no OPT — the point is
/// the smallest possible packet that still drives a real client to TCP.
/// Returns false (and leaves `out` untouched garbage) when the request
/// has no parseable question to echo; callers treat that as a drop.
pub(crate) fn write_slip(request: &[u8], out: &mut Vec<u8>) -> bool {
    if request.len() < 12 {
        return false;
    }
    // Walk the qname: length-prefixed labels until the root byte.
    let mut i = 12;
    loop {
        let Some(&len) = request.get(i) else {
            return false;
        };
        if len == 0 {
            i += 1;
            break;
        }
        if len & 0xc0 != 0 {
            return false; // compression pointers are invalid in queries
        }
        i += 1 + len as usize;
    }
    let qend = i + 4; // qtype + qclass
    if request.len() < qend {
        return false;
    }
    out.clear();
    // QR | AA | TC, RD echoed; rcode NOERROR; QDCOUNT=1, rest zero.
    out.extend_from_slice(&[
        request[0],
        request[1],
        0x86 | (request[2] & 0x01),
        0x00,
        0,
        1,
        0,
        0,
        0,
        0,
        0,
        0,
    ]);
    out.extend_from_slice(&request[12..qend]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(limit: u32, slip: u32) -> RrlConfig {
        RrlConfig {
            responses_limit: limit,
            nxdomain_limit: limit,
            error_limit: limit,
            slip,
            ..Default::default()
        }
    }

    #[test]
    fn passes_until_limit_then_slips_on_cadence() {
        let rrl = Rrl::new(cfg(3, 2));
        let verdicts: Vec<RrlDecision> = (0..9)
            .map(|_| rrl.decide(7, ResponseClass::NxDomain, 100))
            .collect();
        use RrlDecision::*;
        assert_eq!(
            verdicts,
            vec![Pass, Pass, Pass, Slip, Drop, Slip, Drop, Slip, Drop]
        );
        let c = rrl.counters();
        assert_eq!((c.checked, c.passed, c.slipped, c.dropped), (9, 3, 3, 3));
    }

    #[test]
    fn window_roll_restores_the_full_budget() {
        let rrl = Rrl::new(cfg(2, 0));
        for _ in 0..5 {
            rrl.decide(1, ResponseClass::Answer, 500);
        }
        // Next window: budget back, independent of the previous one.
        assert_eq!(
            rrl.decide(1, ResponseClass::Answer, 1_000),
            RrlDecision::Pass
        );
        assert_eq!(
            rrl.decide(1, ResponseClass::Answer, 1_999),
            RrlDecision::Pass
        );
        assert_eq!(
            rrl.decide(1, ResponseClass::Answer, 1_999),
            RrlDecision::Drop
        );
    }

    #[test]
    fn buckets_are_independent_per_source_and_class() {
        let rrl = Rrl::new(cfg(1, 0));
        assert_eq!(rrl.decide(1, ResponseClass::Answer, 0), RrlDecision::Pass);
        assert_eq!(rrl.decide(1, ResponseClass::Answer, 0), RrlDecision::Drop);
        // Different source: fresh bucket.
        assert_eq!(rrl.decide(2, ResponseClass::Answer, 0), RrlDecision::Pass);
        // Same source, different class: fresh bucket.
        assert_eq!(rrl.decide(1, ResponseClass::NxDomain, 0), RrlDecision::Pass);
    }

    #[test]
    fn prefix_shift_aggregates_adjacent_sources() {
        let rrl = Rrl::new(RrlConfig {
            prefix_shift: 4,
            ..cfg(1, 0)
        });
        assert_eq!(
            rrl.decide(0x10, ResponseClass::Answer, 0),
            RrlDecision::Pass
        );
        // 0x1f shares the /60-equivalent prefix with 0x10.
        assert_eq!(
            rrl.decide(0x1f, ResponseClass::Answer, 0),
            RrlDecision::Drop
        );
        assert_eq!(
            rrl.decide(0x20, ResponseClass::Answer, 0),
            RrlDecision::Pass
        );
    }

    #[test]
    fn zero_limit_means_unlimited() {
        let rrl = Rrl::new(cfg(0, 2));
        for _ in 0..100 {
            assert_eq!(rrl.decide(1, ResponseClass::Answer, 0), RrlDecision::Pass);
        }
        assert_eq!(rrl.counters().passed, 100);
    }

    #[test]
    fn classify_covers_the_answer_matrix() {
        // Minimal header fixtures: [id, id, b2, b3, qd, qd, an, an, ns, ns, ar, ar].
        let mk = |b2: u8, rcode: u8, an: u16, ns: u16| {
            let mut h = vec![0u8, 1, b2, rcode, 0, 1, 0, 0, 0, 0, 0, 0];
            h[6..8].copy_from_slice(&an.to_be_bytes());
            h[8..10].copy_from_slice(&ns.to_be_bytes());
            h
        };
        assert_eq!(ResponseClass::of(&mk(0x84, 0, 2, 1)), ResponseClass::Answer);
        assert_eq!(
            ResponseClass::of(&mk(0x80, 0, 0, 3)),
            ResponseClass::Referral
        );
        assert_eq!(ResponseClass::of(&mk(0x84, 0, 0, 1)), ResponseClass::NoData);
        assert_eq!(
            ResponseClass::of(&mk(0x84, 3, 0, 2)),
            ResponseClass::NxDomain
        );
        assert_eq!(ResponseClass::of(&mk(0x80, 1, 0, 0)), ResponseClass::Error);
        assert_eq!(ResponseClass::of(&mk(0x80, 5, 0, 0)), ResponseClass::Error);
        assert_eq!(ResponseClass::of(&[0u8; 5]), ResponseClass::Error);
    }

    #[test]
    fn slip_reply_echoes_id_and_question_only() {
        // A real query: id 0xbeef, RD set, one question "ab." A IN.
        let req = [
            0xbe, 0xef, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0, 2, b'a', b'b', 0, 0, 1, 0, 1,
        ];
        let mut out = Vec::new();
        assert!(write_slip(&req, &mut out));
        assert_eq!(out[0..2], [0xbe, 0xef]);
        assert_eq!(out[2], 0x87); // QR | AA | TC | RD
        assert_eq!(out[3], 0x00);
        assert_eq!(&out[4..12], &[0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(&out[12..], &req[12..20]);
        // Truncated garbage cannot be slipped.
        assert!(!write_slip(&req[..14], &mut out));
        assert!(!write_slip(&[0u8; 3], &mut out));
    }

    proptest! {
        /// Refill determinism: the verdict sequence of a (bucket, window)
        /// is a pure function of arrival count and config — two limiters
        /// fed the same arrivals agree verdict-by-verdict, regardless of
        /// seed, and regardless of traffic in other buckets or windows.
        #[test]
        fn verdicts_are_pure_in_bucket_and_window(
            limit in 0u32..40,
            slip in 0u32..5,
            arrivals in 1u64..200,
            seed_a in any::<u64>(),
            seed_b in any::<u64>(),
            noise in proptest::collection::vec((0u64..8, 0u64..20_000), 0..50),
        ) {
            let a = Rrl::new(RrlConfig { seed: seed_a, ..cfg(limit, slip) });
            let b = Rrl::new(RrlConfig { seed: seed_b, ..cfg(limit, slip) });
            // Interleave unrelated traffic into `b` only.
            for &(src, t) in &noise {
                b.decide(1000 + src, ResponseClass::Answer, t);
            }
            for k in 0..arrivals {
                let va = a.decide(42, ResponseClass::NxDomain, 300);
                let vb = b.decide(42, ResponseClass::NxDomain, 300);
                prop_assert_eq!(va, vb, "arrival {} diverged", k);
            }
        }

        /// Slip cadence exactness: the verdict stream of one window sums
        /// to the closed form `window_totals` predicts.
        #[test]
        fn verdict_stream_matches_closed_form(
            limit in 0u32..40,
            slip in 0u32..5,
            arrivals in 0u64..300,
        ) {
            let rrl = Rrl::new(cfg(limit, slip));
            let (mut p, mut s, mut d) = (0u64, 0u64, 0u64);
            for _ in 0..arrivals {
                match rrl.decide(9, ResponseClass::Error, 0) {
                    RrlDecision::Pass => p += 1,
                    RrlDecision::Slip => s += 1,
                    RrlDecision::Drop => d += 1,
                }
            }
            prop_assert_eq!((p, s, d), window_totals(arrivals, limit, slip));
            // And consecutive slips are exactly `slip` limited responses
            // apart — re-derive from the closed form at each prefix.
            // limit 0 bypasses the buckets entirely (nothing recorded).
            let stats = rrl.bucket_stats();
            if arrivals > 0 && limit > 0 {
                prop_assert_eq!(stats.len(), 1);
                prop_assert_eq!(stats[0].arrivals, arrivals);
                prop_assert_eq!((stats[0].passed, stats[0].slipped, stats[0].dropped), (p, s, d));
            }
        }

        /// Order independence: shuffling which bucket each arrival hits
        /// never changes any bucket's totals.
        #[test]
        fn totals_ignore_interleaving_order(
            arrivals in proptest::collection::vec((0u64..4, 0u64..3_000), 1..120),
            rot in 0usize..119,
        ) {
            let a = Rrl::new(cfg(3, 2));
            let b = Rrl::new(cfg(3, 2));
            for &(src, t) in &arrivals {
                a.decide(src, ResponseClass::NxDomain, t);
            }
            let rot = rot % arrivals.len();
            for &(src, t) in arrivals[rot..].iter().chain(&arrivals[..rot]) {
                b.decide(src, ResponseClass::NxDomain, t);
            }
            prop_assert_eq!(a.bucket_stats(), b.bucket_stats());
            prop_assert_eq!(a.counters(), b.counters());
        }

        /// Slipped replies always parse as empty truncated responses
        /// echoing the question, whatever the qname shape.
        #[test]
        fn slip_reply_is_wellformed_for_arbitrary_qnames(
            labels in proptest::collection::vec(
                proptest::collection::vec(0x61u8..0x7b, 1..20), 0..5),
            qtype in 1u16..260,
        ) {
            let mut req = vec![0x12, 0x34, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
            for l in &labels {
                req.push(l.len() as u8);
                req.extend_from_slice(l);
            }
            req.push(0);
            req.extend_from_slice(&qtype.to_be_bytes());
            req.extend_from_slice(&[0, 1]);
            let mut out = Vec::new();
            prop_assert!(write_slip(&req, &mut out));
            prop_assert_eq!(out.len(), req.len());
            prop_assert_eq!(out[2] & 0x02, 0x02, "TC must be set");
            prop_assert_eq!(&out[12..], &req[12..]);
        }
    }
}
