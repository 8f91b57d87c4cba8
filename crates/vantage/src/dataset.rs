//! Dataset export/import.
//!
//! The paper open-sources its measurement data (Appendix A); a downstream
//! user of this library likewise wants record streams on disk. Records
//! serialize as JSON Lines — one record per line, stream-friendly, and
//! diff-able — with a small header line carrying the schema version and
//! counts so readers can validate integrity cheaply.

use crate::records::{ProbeRecord, TransferRecord};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// Schema version for the JSONL container.
pub const SCHEMA_VERSION: u32 = 1;

/// Header line of a dataset file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetHeader {
    pub schema: u32,
    /// "probes" or "transfers".
    pub kind: String,
    pub count: u64,
    /// Seed of the world that produced the records (for provenance).
    pub seed: u64,
}

/// Errors reading a dataset.
#[derive(Debug)]
pub enum DatasetError {
    Io(io::Error),
    /// First line missing or not a header.
    MissingHeader,
    /// Schema newer than this reader understands.
    UnsupportedSchema(u32),
    /// The header kind does not match what the caller asked to read.
    WrongKind {
        expected: String,
        found: String,
    },
    /// A record line failed to parse, or holds a value the record has no
    /// encoding for (a second-to-last hop wider than 32 bits): the reader
    /// never keeps part of a value.
    BadRecord {
        line_no: u64,
        message: String,
    },
    /// Fewer/more records than the header promised.
    CountMismatch {
        expected: u64,
        found: u64,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "io: {e}"),
            DatasetError::MissingHeader => write!(f, "missing dataset header"),
            DatasetError::UnsupportedSchema(v) => write!(f, "unsupported schema {v}"),
            DatasetError::WrongKind { expected, found } => {
                write!(f, "expected {expected} dataset, found {found}")
            }
            DatasetError::BadRecord { line_no, message } => {
                write!(f, "line {line_no}: {message}")
            }
            DatasetError::CountMismatch { expected, found } => {
                write!(f, "header promised {expected} records, found {found}")
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<io::Error> for DatasetError {
    fn from(e: io::Error) -> Self {
        DatasetError::Io(e)
    }
}

/// Write probes as JSONL.
pub fn write_probes<W: Write>(
    mut w: W,
    probes: &[ProbeRecord],
    seed: u64,
) -> Result<(), DatasetError> {
    let header = DatasetHeader {
        schema: SCHEMA_VERSION,
        kind: "probes".into(),
        count: probes.len() as u64,
        seed,
    };
    serde_json::to_writer(&mut w, &header).map_err(to_io)?;
    w.write_all(b"\n")?;
    for p in probes {
        serde_json::to_writer(&mut w, p).map_err(to_io)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Write transfers as JSONL.
pub fn write_transfers<W: Write>(
    mut w: W,
    transfers: &[TransferRecord],
    seed: u64,
) -> Result<(), DatasetError> {
    let header = DatasetHeader {
        schema: SCHEMA_VERSION,
        kind: "transfers".into(),
        count: transfers.len() as u64,
        seed,
    };
    serde_json::to_writer(&mut w, &header).map_err(to_io)?;
    w.write_all(b"\n")?;
    for t in transfers {
        serde_json::to_writer(&mut w, t).map_err(to_io)?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Read a probes dataset.
pub fn read_probes<R: BufRead>(r: R) -> Result<(DatasetHeader, Vec<ProbeRecord>), DatasetError> {
    read_dataset(r, "probes")
}

/// Read a transfers dataset.
pub fn read_transfers<R: BufRead>(
    r: R,
) -> Result<(DatasetHeader, Vec<TransferRecord>), DatasetError> {
    read_dataset(r, "transfers")
}

fn read_dataset<R: BufRead, T: for<'de> Deserialize<'de>>(
    r: R,
    kind: &str,
) -> Result<(DatasetHeader, Vec<T>), DatasetError> {
    let mut lines = r.lines();
    let header_line = lines.next().ok_or(DatasetError::MissingHeader)??;
    let header: DatasetHeader =
        serde_json::from_str(&header_line).map_err(|_| DatasetError::MissingHeader)?;
    if header.schema > SCHEMA_VERSION {
        return Err(DatasetError::UnsupportedSchema(header.schema));
    }
    if header.kind != kind {
        return Err(DatasetError::WrongKind {
            expected: kind.into(),
            found: header.kind.clone(),
        });
    }
    let mut records = Vec::with_capacity(header.count.min(1 << 24) as usize);
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: T = serde_json::from_str(&line).map_err(|e| DatasetError::BadRecord {
            line_no: i as u64 + 2,
            message: e.to_string(),
        })?;
        records.push(rec);
    }
    if records.len() as u64 != header.count {
        return Err(DatasetError::CountMismatch {
            expected: header.count,
            found: records.len() as u64,
        });
    }
    Ok((header, records))
}

fn to_io(e: serde_json::Error) -> DatasetError {
    DatasetError::Io(io::Error::other(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeasurementConfig, MeasurementEngine, Schedule, VecSink, World, WorldBuildConfig};

    fn records() -> VecSink {
        let world = World::build(&WorldBuildConfig::tiny());
        let engine = MeasurementEngine::new(
            &world,
            MeasurementConfig {
                schedule: Schedule::subsampled(2000),
                ..Default::default()
            },
        );
        let mut sink = VecSink::default();
        engine.run(&mut sink);
        sink
    }

    #[test]
    fn probes_round_trip() {
        let sink = records();
        let mut buf = Vec::new();
        write_probes(&mut buf, &sink.probes, 42).unwrap();
        let (header, back) = read_probes(buf.as_slice()).unwrap();
        assert_eq!(header.seed, 42);
        assert_eq!(header.count as usize, sink.probes.len());
        assert_eq!(back, sink.probes);
    }

    #[test]
    fn transfers_round_trip() {
        let sink = records();
        let mut buf = Vec::new();
        write_transfers(&mut buf, &sink.transfers, 7).unwrap();
        let (_, back) = read_transfers(buf.as_slice()).unwrap();
        assert_eq!(back, sink.transfers);
    }

    #[test]
    fn kind_mismatch_rejected() {
        let sink = records();
        let mut buf = Vec::new();
        write_probes(&mut buf, &sink.probes, 1).unwrap();
        assert!(matches!(
            read_transfers(buf.as_slice()),
            Err(DatasetError::WrongKind { .. })
        ));
    }

    #[test]
    fn truncated_file_detected() {
        let sink = records();
        let mut buf = Vec::new();
        write_probes(&mut buf, &sink.probes, 1).unwrap();
        // Drop the last line.
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            read_probes(truncated.as_bytes()),
            Err(DatasetError::CountMismatch { .. })
        ));
    }

    #[test]
    fn garbage_line_reported_with_number() {
        let sink = records();
        let mut buf = Vec::new();
        write_probes(&mut buf, &sink.probes[..1], 1).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("not json\n");
        match read_probes(text.as_bytes()) {
            Err(DatasetError::BadRecord { line_no, .. }) => assert_eq!(line_no, 3),
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// A dataset of `kind` holding the one record `line`.
    fn file(kind: &str, line: &str) -> String {
        format!("{{\"schema\":1,\"kind\":\"{kind}\",\"count\":1,\"seed\":0}}\n{line}\n")
    }

    #[test]
    fn values_a_record_cannot_hold_are_refused_not_truncated() {
        let probe = |hop: &str| {
            format!(
                r#"{{"time":1,"vp":2,"target":{{"letter":"K","b_phase":"Old"}},"family":"V4","site":3,"rtt_ms":4.5,"second_to_last_hop":{hop},"identity":6}}"#
            )
        };
        let transfer = |serial: &str, fault: &str| {
            format!(
                r#"{{"time":1,"vp_clock":2,"vp":3,"target":{{"letter":"K","b_phase":"Old"}},"family":"V6","serial":{serial},"fault":{fault}}}"#
            )
        };
        // The widest value of every field reads back whole: writing what
        // was read gives the same line.
        for line in [probe("4294967295"), probe("null")] {
            let (_, back) = read_probes(file("probes", &line).as_bytes()).unwrap();
            let mut written = Vec::new();
            write_probes(&mut written, &back, 0).unwrap();
            assert_eq!(String::from_utf8(written).unwrap(), file("probes", &line));
        }
        for line in [
            transfer("4294967295", r#"{"Bitflip":{"seed":18446744073709551615}}"#),
            transfer("null", r#"{"Stale":{"serial":4294967295}}"#),
        ] {
            let (_, back) = read_transfers(file("transfers", &line).as_bytes()).unwrap();
            let mut written = Vec::new();
            write_transfers(&mut written, &back, 0).unwrap();
            assert_eq!(
                String::from_utf8(written).unwrap(),
                file("transfers", &line)
            );
        }
        // A hop past 32 bits is the one value a record has no encoding
        // for; the reader names it rather than keeping its low bits.
        for hop in ["4294967296", "18446744073709551615"] {
            match read_probes(file("probes", &probe(hop)).as_bytes()) {
                Err(DatasetError::BadRecord {
                    line_no: 2,
                    message,
                }) => assert!(message.contains("second_to_last_hop"), "{message}"),
                other => panic!("hop {hop}: {other:?}"),
            }
        }
        // One past what the JSON field's own type holds fails as it always
        // did.
        let past = [
            file("probes", &probe("18446744073709551616")),
            file("transfers", &transfer("4294967296", "null")),
            file(
                "transfers",
                &transfer("1", r#"{"Stale":{"serial":4294967296}}"#),
            ),
            file(
                "transfers",
                &transfer("1", r#"{"Bitflip":{"seed":18446744073709551616}}"#),
            ),
        ];
        for text in &past {
            let err = if text.contains("vp_clock") {
                read_transfers(text.as_bytes()).map(drop)
            } else {
                read_probes(text.as_bytes()).map(drop)
            };
            assert!(
                matches!(err, Err(DatasetError::BadRecord { line_no: 2, .. })),
                "{text}"
            );
        }
    }

    #[test]
    fn missing_header_detected() {
        assert!(matches!(
            read_probes(&b"{\"not\":\"a header\"}\n"[..]),
            Err(DatasetError::MissingHeader) | Err(DatasetError::WrongKind { .. })
        ));
        assert!(matches!(
            read_probes(&b""[..]),
            Err(DatasetError::MissingHeader)
        ));
    }
}
