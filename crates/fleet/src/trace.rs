//! Bit-exact serialized event traces: record once, replay identically.
//!
//! A [`EventTrace`] is the full record of a fleet run's phase-1 event
//! processing — every event in its popped (tie-broken) order, plus the
//! routing decision for every arrival. All `f64`s are serialized as
//! their 16-hex-digit IEEE-754 bit patterns (the
//! [`pas_workload::io::f64_to_hex`] format), so
//! `trace → serialize → parse → replay` reproduces the original fleet
//! digest **bit-identically** — the property `tests/fleet_equivalence.rs`
//! pins. The format is line-oriented and diff-friendly:
//!
//! ```text
//! fleettrace v1
//! seed 000000000000002a
//! ev 0000000000000000 join 0
//! ev 3ff0000000000000 arrival 0 17 3ff0000000000000 4000000000000000 host 0
//! ev 4000000000000000 fail 0 3fe0000000000000
//! ev 4008000000000000 arrival 1 18 4008000000000000 3ff0000000000000 host -
//! ```
//!
//! (`host -` marks an arrival no eligible host could take: fleet-shed.)

use std::fmt;

use pas_workload::io::f64_from_hex;

/// One recorded event, in pop order.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// A workload arrival and where it was routed (`None` = shed).
    Arrival {
        /// Event time (= the job's release).
        at: f64,
        /// Index into the scenario workload.
        index: usize,
        /// The job's id.
        job_id: u32,
        /// Release time, bit-exact.
        release: f64,
        /// Work, bit-exact.
        work: f64,
        /// Chosen host, or `None` when no host was eligible.
        routed: Option<u32>,
    },
    /// A host joined.
    Join {
        /// Event time.
        at: f64,
        /// Host id.
        host: u32,
    },
    /// A host left permanently.
    Leave {
        /// Event time.
        at: f64,
        /// Host id.
        host: u32,
    },
    /// A host failed for `duration`.
    Fail {
        /// Event time.
        at: f64,
        /// Host id.
        host: u32,
        /// Downtime length.
        duration: f64,
    },
}

impl TraceRecord {
    /// The record's timestamp.
    pub fn at(&self) -> f64 {
        match self {
            TraceRecord::Arrival { at, .. }
            | TraceRecord::Join { at, .. }
            | TraceRecord::Leave { at, .. }
            | TraceRecord::Fail { at, .. } => *at,
        }
    }

    /// This record's payload as an arrival, if it is one. The grouped
    /// partition pass matches every record against this exactly once.
    pub fn arrival(&self) -> Option<ArrivalView> {
        match *self {
            TraceRecord::Arrival {
                at,
                index,
                job_id,
                release,
                work,
                routed,
            } => Some(ArrivalView {
                at,
                index,
                job_id,
                release,
                work,
                routed,
            }),
            _ => None,
        }
    }
}

/// Copied-out payload of a [`TraceRecord::Arrival`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalView {
    /// Event time (= the job's release).
    pub at: f64,
    /// Index into the scenario workload.
    pub index: usize,
    /// The job's id.
    pub job_id: u32,
    /// Release time, bit-exact.
    pub release: f64,
    /// Work, bit-exact.
    pub work: f64,
    /// Chosen host, or `None` when the arrival was fleet-shed.
    pub routed: Option<u32>,
}

/// A serialized fleet run: seed + events in pop order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventTrace {
    /// The scenario seed the order was derived from.
    pub seed: u64,
    /// Events in the exact order phase 1 processed them.
    pub records: Vec<TraceRecord>,
}

/// Parse failures for [`EventTrace::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub reason: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

fn err(line: usize, reason: impl Into<String>) -> TraceParseError {
    TraceParseError {
        line,
        reason: reason.into(),
    }
}

impl EventTrace {
    /// Serialize to the canonical line format (the digest currency: the
    /// fleet digest hashes exactly these bytes).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out)
            .expect("formatting into a String cannot fail");
        out
    }

    /// Stream the canonical line format into `out`, one `write!` per
    /// record, with no per-field allocation. [`serialize`](Self::serialize)
    /// is this into a `String`; the fleet digest is this into
    /// [`pas_sim::Fnv`], which hashes the same bytes without building
    /// the text.
    ///
    /// # Errors
    /// Whatever `out` reports.
    pub fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "fleettrace v1\nseed {:016x}\n", self.seed)?;
        for r in &self.records {
            match *r {
                TraceRecord::Arrival {
                    at,
                    index,
                    job_id,
                    release,
                    work,
                    routed: Some(host),
                } => writeln!(
                    out,
                    "ev {:016x} arrival {index} {job_id} {:016x} {:016x} host {host}",
                    at.to_bits(),
                    release.to_bits(),
                    work.to_bits(),
                )?,
                TraceRecord::Arrival {
                    at,
                    index,
                    job_id,
                    release,
                    work,
                    routed: None,
                } => writeln!(
                    out,
                    "ev {:016x} arrival {index} {job_id} {:016x} {:016x} host -",
                    at.to_bits(),
                    release.to_bits(),
                    work.to_bits(),
                )?,
                TraceRecord::Join { at, host } => {
                    writeln!(out, "ev {:016x} join {host}", at.to_bits())?
                }
                TraceRecord::Leave { at, host } => {
                    writeln!(out, "ev {:016x} leave {host}", at.to_bits())?
                }
                TraceRecord::Fail { at, host, duration } => writeln!(
                    out,
                    "ev {:016x} fail {host} {:016x}",
                    at.to_bits(),
                    duration.to_bits()
                )?,
            }
        }
        Ok(())
    }

    /// Parse a serialized trace.
    ///
    /// # Errors
    /// [`TraceParseError`] with the offending 1-based line.
    pub fn parse(text: &str) -> Result<EventTrace, TraceParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(1, "empty trace"))?;
        if header.trim() != "fleettrace v1" {
            return Err(err(1, format!("bad header {header:?}")));
        }
        let (_, seed_line) = lines.next().ok_or_else(|| err(2, "missing seed line"))?;
        let seed = seed_line
            .trim()
            .strip_prefix("seed ")
            .and_then(|s| u64::from_str_radix(s.trim(), 16).ok())
            .ok_or_else(|| err(2, format!("bad seed line {seed_line:?}")))?;
        let mut records = Vec::new();
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| f64_from_hex(s);
            let record = match tokens.as_slice() {
                ["ev", at, "arrival", index, job_id, release, work, "host", routed] => {
                    TraceRecord::Arrival {
                        at: hex(at).ok_or_else(|| err(line_no, "bad time"))?,
                        index: index.parse().map_err(|_| err(line_no, "bad index"))?,
                        job_id: job_id.parse().map_err(|_| err(line_no, "bad job id"))?,
                        release: hex(release).ok_or_else(|| err(line_no, "bad release"))?,
                        work: hex(work).ok_or_else(|| err(line_no, "bad work"))?,
                        routed: match *routed {
                            "-" => None,
                            h => Some(h.parse().map_err(|_| err(line_no, "bad host"))?),
                        },
                    }
                }
                ["ev", at, "join", host] => TraceRecord::Join {
                    at: hex(at).ok_or_else(|| err(line_no, "bad time"))?,
                    host: host.parse().map_err(|_| err(line_no, "bad host"))?,
                },
                ["ev", at, "leave", host] => TraceRecord::Leave {
                    at: hex(at).ok_or_else(|| err(line_no, "bad time"))?,
                    host: host.parse().map_err(|_| err(line_no, "bad host"))?,
                },
                ["ev", at, "fail", host, duration] => TraceRecord::Fail {
                    at: hex(at).ok_or_else(|| err(line_no, "bad time"))?,
                    host: host.parse().map_err(|_| err(line_no, "bad host"))?,
                    duration: hex(duration).ok_or_else(|| err(line_no, "bad duration"))?,
                },
                _ => return Err(err(line_no, format!("unrecognized record {line:?}"))),
            };
            records.push(record);
        }
        Ok(EventTrace { seed, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EventTrace {
        EventTrace {
            seed: 42,
            records: vec![
                TraceRecord::Join { at: 0.0, host: 0 },
                TraceRecord::Arrival {
                    at: 1.0,
                    index: 0,
                    job_id: 17,
                    release: 1.0,
                    work: 0.1 + 0.2, // not a short decimal: exercises bit-exactness
                    routed: Some(0),
                },
                TraceRecord::Fail {
                    at: 2.0,
                    host: 0,
                    duration: 0.5,
                },
                TraceRecord::Arrival {
                    at: 3.0,
                    index: 1,
                    job_id: 18,
                    release: 3.0,
                    work: 1.0,
                    routed: None,
                },
                TraceRecord::Leave { at: 4.0, host: 0 },
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let t = sample();
        let text = t.serialize();
        let back = EventTrace::parse(&text).unwrap();
        assert_eq!(t, back);
        // And the serialization is a fixed point.
        assert_eq!(text, back.serialize());
    }

    #[test]
    fn serializes_the_documented_line_format() {
        let want = "fleettrace v1\n\
                    seed 000000000000002a\n\
                    ev 0000000000000000 join 0\n\
                    ev 3ff0000000000000 arrival 0 17 3ff0000000000000 3fd3333333333334 host 0\n\
                    ev 4000000000000000 fail 0 3fe0000000000000\n\
                    ev 4008000000000000 arrival 1 18 4008000000000000 3ff0000000000000 host -\n\
                    ev 4010000000000000 leave 0\n";
        assert_eq!(sample().serialize(), want);
    }

    #[test]
    fn streamed_digest_hashes_the_serialized_bytes() {
        let t = sample();
        let mut streamed = pas_sim::Fnv::new();
        t.write_to(&mut streamed).unwrap();
        let mut whole = pas_sim::Fnv::new();
        whole.bytes(t.serialize().as_bytes());
        assert_eq!(streamed.finish(), whole.finish());
    }

    #[test]
    fn rejects_malformed() {
        assert!(EventTrace::parse("").is_err());
        assert!(EventTrace::parse("wrong header\nseed 0\n").is_err());
        assert!(EventTrace::parse("fleettrace v1\nnope\n").is_err());
        let bad_record = "fleettrace v1\nseed 0000000000000000\nev xyz join 0\n";
        let e = EventTrace::parse(bad_record).unwrap_err();
        assert_eq!(e.line, 3);
        let unknown = "fleettrace v1\nseed 0000000000000000\nev 0000000000000000 reboot 0\n";
        assert!(EventTrace::parse(unknown).is_err());
    }

    #[test]
    fn tolerates_comments_and_blank_lines() {
        let text = format!(
            "fleettrace v1\nseed {:016x}\n\n# a comment\nev {} join 3\n",
            7u64,
            pas_workload::io::f64_to_hex(0.0)
        );
        let t = EventTrace::parse(&text).unwrap();
        assert_eq!(t.seed, 7);
        assert_eq!(t.records, vec![TraceRecord::Join { at: 0.0, host: 3 }]);
    }
}
