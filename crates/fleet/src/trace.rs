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
//!
//! Writing and reading go through the byte codec of
//! [`pas_workload::io`] (no `fmt`): [`EventTrace::serialize`] encodes
//! into one buffer, [`EventTrace::hash_into`] folds the same bytes into
//! the fleet digest a few KB at a time, and [`EventTrace::parse`] scans
//! each record against the writer's exact grammar before falling back
//! to a general reader for any other line (comments, blank lines, other
//! spacing, `\r\n` endings, uppercase hex), so the fast path never
//! changes what is accepted or what it reads as.

use pas_sim::Fnv;
use pas_workload::io::{f64_from_hex, push_hex16, push_u64, Cursor};

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

/// An upper bound on one encoded line, newline included: the widest
/// arrival (20-digit index, 10-digit job id and host) is
/// `3 + 16 + 9 + 20 + 1 + 10 + 1 + 16 + 1 + 16 + 6 + 10 + 1` bytes, and
/// the two header lines together take 36.
const MAX_RECORD_BYTES: usize = 110;

/// Bytes [`EventTrace::hash_into`] encodes before folding them into the
/// hasher: big enough to amortise the flush, small enough to stay in L1.
const DIGEST_CHUNK: usize = 4096;

fn encode_header(out: &mut Vec<u8>, seed: u64) {
    out.extend_from_slice(b"fleettrace v1\nseed ");
    push_hex16(out, seed);
    out.push(b'\n');
}

/// Append `r` as one line of the canonical format, newline included.
fn encode_record(out: &mut Vec<u8>, r: &TraceRecord) {
    out.extend_from_slice(b"ev ");
    push_hex16(out, r.at().to_bits());
    match *r {
        TraceRecord::Arrival {
            index,
            job_id,
            release,
            work,
            routed,
            ..
        } => {
            out.extend_from_slice(b" arrival ");
            push_u64(out, index as u64);
            out.push(b' ');
            push_u64(out, job_id.into());
            out.push(b' ');
            push_hex16(out, release.to_bits());
            out.push(b' ');
            push_hex16(out, work.to_bits());
            match routed {
                Some(host) => {
                    out.extend_from_slice(b" host ");
                    push_u64(out, host.into());
                }
                None => out.extend_from_slice(b" host -"),
            }
        }
        TraceRecord::Join { host, .. } => {
            out.extend_from_slice(b" join ");
            push_u64(out, host.into());
        }
        TraceRecord::Leave { host, .. } => {
            out.extend_from_slice(b" leave ");
            push_u64(out, host.into());
        }
        TraceRecord::Fail { host, duration, .. } => {
            out.extend_from_slice(b" fail ");
            push_u64(out, host.into());
            out.push(b' ');
            push_hex16(out, duration.to_bits());
        }
    }
    out.push(b'\n');
}

/// One record in exactly the writer's grammar (single spaces, lowercase
/// hex, canonical decimals), read up to where its newline would be;
/// `None` for anything else, which the full parser then reads.
fn scan_record(c: &mut Cursor) -> Option<TraceRecord> {
    c.tag(b"ev ")?;
    let at = f64::from_bits(c.hex16()?);
    let host = |c: &mut Cursor| {
        c.u64_dec(u32::MAX.into())
            .and_then(|h| u32::try_from(h).ok())
    };
    let record = if c.tag(b" arrival ").is_some() {
        let index = usize::try_from(c.u64_dec(u64::MAX)?).ok()?;
        c.tag(b" ")?;
        let job_id = host(c)?;
        c.tag(b" ")?;
        let release = f64::from_bits(c.hex16()?);
        c.tag(b" ")?;
        let work = f64::from_bits(c.hex16()?);
        c.tag(b" host ")?;
        let routed = match c.tag(b"-") {
            Some(()) => None,
            None => Some(host(c)?),
        };
        TraceRecord::Arrival {
            at,
            index,
            job_id,
            release,
            work,
            routed,
        }
    } else if c.tag(b" join ").is_some() {
        TraceRecord::Join { at, host: host(c)? }
    } else if c.tag(b" leave ").is_some() {
        TraceRecord::Leave { at, host: host(c)? }
    } else {
        c.tag(b" fail ")?;
        let host = host(c)?;
        c.tag(b" ")?;
        TraceRecord::Fail {
            at,
            host,
            duration: f64::from_bits(c.hex16()?),
        }
    };
    Some(record)
}

/// The first line of `text` as [`str::lines`] yields it, and the text
/// after it.
fn first_line(text: &str) -> (&str, &str) {
    match text.split_once('\n') {
        Some((line, rest)) => (line.strip_suffix('\r').unwrap_or(line), rest),
        None => (text, ""),
    }
}

/// The general reader for one record line: any whitespace, comments and
/// blank lines (`Ok(None)`), and every error with its reason.
fn parse_line(line_no: usize, raw: &str) -> Result<Option<TraceRecord>, TraceParseError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
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
    Ok(Some(record))
}

impl EventTrace {
    /// Serialize to the canonical line format (the digest currency: the
    /// fleet digest hashes exactly these bytes).
    pub fn serialize(&self) -> String {
        let mut out = Vec::with_capacity((self.records.len() + 1) * MAX_RECORD_BYTES);
        encode_header(&mut out, self.seed);
        for r in &self.records {
            encode_record(&mut out, r);
        }
        String::from_utf8(out).expect("the encoder writes ASCII")
    }

    /// Fold the bytes of [`serialize`](Self::serialize) into `fnv`, one
    /// fixed-size chunk at a time: the fleet digest hashes the trace
    /// without ever holding its text.
    pub fn hash_into(&self, fnv: &mut Fnv) {
        let mut chunk = Vec::with_capacity(DIGEST_CHUNK);
        encode_header(&mut chunk, self.seed);
        for r in &self.records {
            if chunk.len() + MAX_RECORD_BYTES > DIGEST_CHUNK {
                fnv.bytes(&chunk);
                chunk.clear();
            }
            encode_record(&mut chunk, r);
        }
        fnv.bytes(&chunk);
    }

    /// Parse a serialized trace. Each record line is scanned against
    /// the writer's exact grammar first; a line the scan declines goes
    /// to the general reader, which alone decides what else is accepted
    /// and how errors read.
    ///
    /// # Errors
    /// [`TraceParseError`] with the offending 1-based line.
    pub fn parse(text: &str) -> Result<EventTrace, TraceParseError> {
        if text.is_empty() {
            return Err(err(1, "empty trace"));
        }
        let (header, rest) = first_line(text);
        if header.trim() != "fleettrace v1" {
            return Err(err(1, format!("bad header {header:?}")));
        }
        if rest.is_empty() {
            return Err(err(2, "missing seed line"));
        }
        let (seed_line, mut rest) = first_line(rest);
        // Hex digits only: `from_str_radix` alone would also take a sign.
        let seed = seed_line
            .trim()
            .strip_prefix("seed ")
            .map(str::trim)
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| err(2, format!("bad seed line {seed_line:?}")))?;
        let mut records = Vec::new();
        let mut line_no = 2;
        while !rest.is_empty() {
            line_no += 1;
            // The scan finds the line's end itself: a record, then its
            // newline or the end of the text.
            let mut c = Cursor::new(rest.as_bytes());
            if let Some(record) = scan_record(&mut c) {
                if c.tag(b"\n").is_some() || c.rest().is_empty() {
                    records.push(record);
                    rest = &rest[rest.len() - c.rest().len()..];
                    continue;
                }
            }
            let (line, tail) = first_line(rest);
            rest = tail;
            if let Some(record) = parse_line(line_no, line)? {
                records.push(record);
            }
        }
        Ok(EventTrace { seed, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: the random stream of the scanner oracles.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

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

    /// `n` arrivals of about 90 bytes each: past one digest chunk from
    /// `n = 46` on.
    fn long_trace(n: usize) -> EventTrace {
        let records = (0..n)
            .map(|i| TraceRecord::Arrival {
                at: i as f64 / 3.0,
                index: i,
                job_id: u32::MAX - i as u32,
                release: i as f64 / 3.0,
                work: 1.0 + i as f64 / 7.0,
                routed: (!i.is_multiple_of(5)).then_some(i as u32 * 1000),
            })
            .collect();
        EventTrace { seed: 7, records }
    }

    #[test]
    fn streamed_digest_hashes_the_serialized_bytes() {
        let chunked = |t: &EventTrace| {
            let mut h = pas_sim::Fnv::new();
            t.hash_into(&mut h);
            h.finish()
        };
        let whole = |t: &EventTrace| {
            let mut h = pas_sim::Fnv::new();
            h.bytes(t.serialize().as_bytes());
            h.finish()
        };
        assert_eq!(chunked(&sample()), whole(&sample()));
        // Every record count up to several chunks, so a flush falls
        // before, after and between every kind of boundary.
        let long = long_trace(300);
        assert!(long.serialize().len() > 6 * DIGEST_CHUNK);
        for n in (0..=long.records.len()).step_by(7) {
            let t = EventTrace {
                seed: long.seed,
                records: long.records[..n].to_vec(),
            };
            assert_eq!(chunked(&t), whole(&t), "{n} records");
        }
    }

    #[test]
    fn the_widest_record_fits_the_bound() {
        let widest = TraceRecord::Arrival {
            at: f64::NAN,
            index: usize::MAX,
            job_id: u32::MAX,
            release: -0.0,
            work: f64::MAX,
            routed: Some(u32::MAX),
        };
        let mut out = Vec::new();
        encode_record(&mut out, &widest);
        assert_eq!(out.len(), MAX_RECORD_BYTES);
        out.clear();
        encode_header(&mut out, u64::MAX);
        assert!(out.len() <= MAX_RECORD_BYTES);
    }

    /// A record drawn to hit the codec's edges: NaN payloads, signed
    /// zeros, infinities, subnormals, `u32::MAX` hosts and job ids,
    /// `host -`, and indices up to `usize::MAX`.
    fn random_record(rng: &mut Rng) -> TraceRecord {
        let f = |rng: &mut Rng| match rng.next_u64() % 7 {
            0 => -0.0,
            1 => f64::INFINITY,
            2 => f64::from_bits(0x7ff0_0000_0000_0000 | (rng.next_u64() >> 12).max(1)),
            3 => f64::from_bits(rng.next_u64() >> 12), // subnormal
            4 => (rng.next_u64() >> 11) as f64 / 2f64.powi(53) * 100.0,
            _ => f64::from_bits(rng.next_u64()),
        };
        let int = |rng: &mut Rng| match rng.next_u64() % 3 {
            0 => u32::MAX,
            _ => rng.next_u64() as u32 >> (rng.next_u64() % 32),
        };
        let at = f(rng);
        match rng.next_u64() % 5 {
            0 => TraceRecord::Join { at, host: int(rng) },
            1 => TraceRecord::Leave { at, host: int(rng) },
            2 => TraceRecord::Fail {
                at,
                host: int(rng),
                duration: f(rng),
            },
            _ => TraceRecord::Arrival {
                at,
                index: match rng.next_u64() % 3 {
                    0 => usize::MAX,
                    _ => rng.next_u64() as usize >> (rng.next_u64() % 64),
                },
                job_id: int(rng),
                release: f(rng),
                work: f(rng),
                routed: (!rng.next_u64().is_multiple_of(4)).then(|| int(rng)),
            },
        }
    }

    /// Every field as exact bits (`PartialEq` on f64 is not: NaN != NaN,
    /// 0 == -0).
    fn bits(r: &TraceRecord) -> (u8, u64, usize, u32, u64, u64, Option<u32>) {
        match *r {
            TraceRecord::Arrival {
                at,
                index,
                job_id,
                release,
                work,
                routed,
            } => (
                0,
                at.to_bits(),
                index,
                job_id,
                release.to_bits(),
                work.to_bits(),
                routed,
            ),
            TraceRecord::Join { at, host } => (1, at.to_bits(), 0, host, 0, 0, None),
            TraceRecord::Leave { at, host } => (2, at.to_bits(), 0, host, 0, 0, None),
            TraceRecord::Fail { at, host, duration } => {
                (3, at.to_bits(), 0, host, duration.to_bits(), 0, None)
            }
        }
    }

    /// The scan of one whole line, as `parse` takes it.
    fn scan_line(line: &str) -> Option<TraceRecord> {
        let mut c = Cursor::new(line.as_bytes());
        let record = scan_record(&mut c)?;
        c.end()?;
        Some(record)
    }

    /// `parse` as it was before the scan, over `str::lines` and the
    /// full reader alone, which `parse` must still equal.
    fn reference_parse(text: &str) -> Result<EventTrace, TraceParseError> {
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
            records.extend(parse_line(idx + 1, raw)?);
        }
        Ok(EventTrace { seed, records })
    }

    /// `text` parses exactly as the full reader reads it: the same seed
    /// and records bit for bit, or the same error at the same line.
    fn parses_like_the_full_reader(text: &str) {
        let fast = EventTrace::parse(text);
        match (&fast, reference_parse(text)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.seed, want.seed, "{text:?}");
                let same = got
                    .records
                    .iter()
                    .map(bits)
                    .eq(want.records.iter().map(bits));
                assert!(same, "{text:?}");
            }
            (Err(got), Err(want)) => assert_eq!(got, &want, "{text:?}"),
            (_, want) => panic!("{text:?}: parse gave {fast:?}, the full reader {want:?}"),
        }
    }

    /// `line` as the third line of a trace parses as the full reader
    /// reads it. Returns whether the scan took the line.
    fn scan_agrees_with_parser(line: &str) -> bool {
        parses_like_the_full_reader(&format!("fleettrace v1\nseed 0000000000000007\n{line}\n"));
        scan_line(line).is_some()
    }

    fn encoded(r: &TraceRecord) -> String {
        let mut out = Vec::new();
        encode_record(&mut out, r);
        out.pop(); // the newline `lines()` strips
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn scanner_round_trips_random_records_bit_exactly() {
        let mut rng = Rng(0x5eed);
        let records: Vec<TraceRecord> = (0..5000).map(|_| random_record(&mut rng)).collect();
        for r in &records {
            let line = encoded(r);
            let back = scan_line(&line).unwrap_or_else(|| panic!("declined {line}"));
            assert_eq!(bits(&back), bits(r), "{line}");
            assert!(scan_agrees_with_parser(&line));
        }
        let trace = EventTrace { seed: 3, records };
        let back = EventTrace::parse(&trace.serialize()).unwrap();
        assert!(back
            .records
            .iter()
            .map(bits)
            .eq(trace.records.iter().map(bits)));
    }

    #[test]
    fn scanner_never_accepts_what_the_parser_reads_differently() {
        let mut rng = Rng(0xbad);
        let mut accepted_mutants = 0usize;
        for case in 0..150 {
            let line = encoded(&random_record(&mut rng));
            for k in 0..line.len() {
                scan_agrees_with_parser(&line[..k]);
            }
            let bytes = line.as_bytes();
            for at in 0..bytes.len() {
                // Every ASCII byte at every position (a non-ASCII byte
                // would not be a `&str`); a sample of cases for speed.
                if case >= 15 && !rng.next_u64().is_multiple_of(4) {
                    continue;
                }
                for b in 0u8..128 {
                    let mut m = bytes.to_vec();
                    m[at] = b;
                    let m = String::from_utf8(m).unwrap();
                    accepted_mutants += usize::from(scan_agrees_with_parser(&m));
                }
            }
        }
        // Digit flips in the hex and decimal fields stay well-formed:
        // the agreement check really ran on accepted mutants.
        assert!(accepted_mutants > 10_000, "{accepted_mutants}");
    }

    #[test]
    fn line_endings_and_layout_read_as_before() {
        let join = "ev 3ff0000000000000 join 7";
        let fail = "ev 4000000000000000 fail 1 3fe0000000000000";
        for text in [
            String::new(),
            "\n".into(),
            "fleettrace v1".into(),
            "fleettrace v1\n".into(),
            "fleettrace v1\r\nseed 7\r\n".into(),
            format!("fleettrace v1\nseed 7\n{join}"),
            format!("fleettrace v1\nseed 7\n{join}\r"),
            format!("fleettrace v1\nseed 7\n{join}\r\n{fail}\r\n"),
            format!("fleettrace v1\nseed 7\n{join}\r{fail}\n"),
            format!("fleettrace v1\nseed 7\n\n{join}\n\n# done\n{fail}"),
            format!("fleettrace v1\nseed 7\n{join}\n{fail} x\n{join}\n"),
            format!("fleettrace v1\nseed 7\n{join}\n\r\n{fail}\n\n"),
        ] {
            parses_like_the_full_reader(&text);
        }
    }

    #[test]
    fn scanner_declines_lines_outside_the_writer_grammar() {
        let want = TraceRecord::Join { at: 1.0, host: 7 };
        for line in [
            "ev 3ff0000000000000 join 07",
            "ev 3ff0000000000000 join +7",
            "ev 3FF0000000000000 join 7",
            "ev  3ff0000000000000 join 7",
            " ev 3ff0000000000000 join 7",
            "ev 3ff0000000000000 join 7 ",
            "ev 3ff0000000000000\tjoin 7",
        ] {
            assert_eq!(scan_line(line), None, "{line:?}");
            // The full reader still takes them, as it always did.
            assert_eq!(parse_line(1, line), Ok(Some(want.clone())), "{line:?}");
        }
        for line in [
            "ev 3ff0000000000000 join 4294967296",
            "ev 3ff0000000000000 join -",
            "ev +ff0000000000000 join 7",
            "ev 3ff0000000000000 reboot 7",
            "# ev 3ff0000000000000 join 7",
        ] {
            assert_eq!(scan_line(line), None, "{line:?}");
        }
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
        // A sign is not a hex digit, though `from_str_radix` would take it.
        let signed = "fleettrace v1\nseed 0000000000000000\nev +ff0000000000000 join 0\n";
        let e = EventTrace::parse(signed).unwrap_err();
        assert_eq!((e.line, e.reason.as_str()), (3, "bad time"));
        let e = EventTrace::parse("fleettrace v1\nseed +7\n").unwrap_err();
        assert_eq!(e.line, 2);
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
