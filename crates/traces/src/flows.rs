//! Flow records and aggregation buckets.

use crate::client::ClientId;
use netsim::Family;
use rss::{BRootPhase, RootLetter};
use serde::{Deserialize, Serialize, Value};

/// What a flow is headed to: a letter's service prefix; for b.root the old
/// and new prefixes are distinct capture filters (as at the real ISP/IXPs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowTarget {
    pub letter: RootLetter,
    pub b_phase: BRootPhase,
}

impl FlowTarget {
    /// Targets the capture covers: 13 letters, b twice.
    pub fn all() -> Vec<FlowTarget> {
        let mut v = Vec::with_capacity(14);
        for letter in RootLetter::ALL {
            v.push(FlowTarget {
                letter,
                b_phase: BRootPhase::Old,
            });
            if letter == RootLetter::B {
                v.push(FlowTarget {
                    letter,
                    b_phase: BRootPhase::New,
                });
            }
        }
        v
    }

    /// Figure label (`V4old` style labels are produced by the analyses).
    pub fn label(&self) -> String {
        if self.letter == RootLetter::B {
            match self.b_phase {
                BRootPhase::Old => "b.root (old)".into(),
                BRootPhase::New => "b.root (new)".into(),
            }
        } else {
            self.letter.label()
        }
    }
}

/// A day bucket: days since the Unix epoch (flows are aggregated daily; the
/// single hourly window in Figure 7 uses [`FlowObservation::hour`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DayBucket(pub u32);

impl DayBucket {
    /// Bucket containing `time` (seconds since epoch).
    pub fn of(time: u32) -> Self {
        DayBucket(time / 86400)
    }

    /// Start-of-day timestamp.
    pub fn start(self) -> u32 {
        self.0 * 86400
    }
}

/// One aggregated, sampled flow observation.
///
/// Mirrors the real pipeline's privacy posture: client prefixes only, no
/// payload, counts instead of bytes (sampling makes absolute volumes
/// meaningless anyway — all figures are normalized). 16 bytes: the hour is
/// one byte, a value outside 0–23 when absent, read through
/// [`hour`](Self::hour).
#[derive(Clone, Copy, PartialEq)]
pub struct FlowObservation {
    pub day: DayBucket,
    pub client: ClientId,
    /// Sampled flow count in this bucket.
    pub flows: u32,
    pub family: Family,
    pub target: FlowTarget,
    /// `hour()`'s value, or `NO_HOUR`.
    hour: u8,
}

/// The stored hour of a daily aggregate: outside 0–23.
const NO_HOUR: u8 = u8::MAX;

// Millions of flows per trace: no heap pointer, no padded `Option`.
const _: () = {
    const fn plain<T: Copy>() {}
    plain::<FlowObservation>();
    assert!(std::mem::size_of::<FlowObservation>() == 16);
};

impl FlowObservation {
    /// `flows` sampled flows from `client` to `target` over `family` on
    /// `day`, in hour `hour` of it or (None) over the whole day.
    ///
    /// # Panics
    /// If `hour` is not an hour of the day (0–23).
    #[inline]
    pub fn new(
        day: DayBucket,
        hour: Option<u8>,
        client: ClientId,
        family: Family,
        target: FlowTarget,
        flows: u32,
    ) -> FlowObservation {
        let hour = match hour {
            Some(h) => {
                assert!(h < 24, "hour of day {h} out of range");
                h
            }
            None => NO_HOUR,
        };
        FlowObservation {
            day,
            client,
            flows,
            family,
            target,
            hour,
        }
    }

    /// Hour 0-23 for the high-resolution pre-change day; None for daily
    /// aggregates.
    #[inline]
    pub fn hour(self) -> Option<u8> {
        (self.hour != NO_HOUR).then_some(self.hour)
    }
}

/// `FlowObservation`'s JSON object, field for field.
#[derive(Serialize, Deserialize)]
struct FlowLine {
    day: DayBucket,
    hour: Option<u8>,
    client: ClientId,
    family: Family,
    target: FlowTarget,
    flows: u32,
}

impl Serialize for FlowObservation {
    fn to_value(&self) -> Value {
        FlowLine {
            day: self.day,
            hour: self.hour(),
            client: self.client,
            family: self.family,
            target: self.target,
            flows: self.flows,
        }
        .to_value()
    }
}

impl<'de> Deserialize<'de> for FlowObservation {
    /// Rejects an hour outside 0–23 instead of storing it.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let line = FlowLine::from_value(v)?;
        if let Some(h @ 24..) = line.hour {
            return Err(serde::Error::custom(format!(
                "field \"hour\": {h} is not an hour of the day"
            )));
        }
        Ok(FlowObservation::new(
            line.day,
            line.hour,
            line.client,
            line.family,
            line.target,
            line.flows,
        ))
    }
}

impl std::fmt::Debug for FlowObservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowObservation")
            .field("day", &self.day)
            .field("hour", &self.hour())
            .field("client", &self.client)
            .field("family", &self.family)
            .field("target", &self.target)
            .field("flows", &self.flows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_targets() {
        assert_eq!(FlowTarget::all().len(), 14);
    }

    #[test]
    fn day_bucket_boundaries() {
        assert_eq!(DayBucket::of(0), DayBucket(0));
        assert_eq!(DayBucket::of(86399), DayBucket(0));
        assert_eq!(DayBucket::of(86400), DayBucket(1));
        assert_eq!(DayBucket(3).start(), 3 * 86400);
    }

    #[test]
    fn hours_round_trip_and_out_of_range_ones_are_refused() {
        let target = FlowTarget {
            letter: RootLetter::A,
            b_phase: BRootPhase::Old,
        };
        for hour in (0..24).map(Some).chain([None]) {
            let f = FlowObservation::new(DayBucket(9), hour, ClientId(4), Family::V6, target, 3);
            assert_eq!(f.hour(), hour);
            let back: FlowObservation = serde::Deserialize::from_value(&f.to_value()).unwrap();
            assert_eq!(back, f);
        }
        let daily = FlowObservation::new(DayBucket(9), None, ClientId(4), Family::V4, target, 3);
        let with_hour = |hour: &str| {
            let serde::Value::Obj(mut fields) = daily.to_value() else {
                unreachable!("a flow is an object")
            };
            assert_eq!(fields[1].0, "hour");
            fields[1].1 = serde::Value::Num(hour.into());
            serde::Value::Obj(fields)
        };
        let parse =
            |v: &serde::Value| -> Result<FlowObservation, _> { serde::Deserialize::from_value(v) };
        assert_eq!(parse(&with_hour("23")).unwrap().hour(), Some(23));
        for hour in ["24", "255"] {
            assert!(parse(&with_hour(hour)).is_err(), "hour {hour} accepted");
        }
    }

    #[test]
    #[should_panic(expected = "hour of day 24 out of range")]
    fn an_hour_past_23_is_not_stored() {
        let target = FlowTarget {
            letter: RootLetter::A,
            b_phase: BRootPhase::Old,
        };
        FlowObservation::new(DayBucket(9), Some(24), ClientId(4), Family::V4, target, 3);
    }

    #[test]
    fn labels() {
        assert_eq!(
            FlowTarget {
                letter: RootLetter::B,
                b_phase: BRootPhase::New
            }
            .label(),
            "b.root (new)"
        );
        assert_eq!(
            FlowTarget {
                letter: RootLetter::K,
                b_phase: BRootPhase::Old
            }
            .label(),
            "k.root"
        );
    }
}
