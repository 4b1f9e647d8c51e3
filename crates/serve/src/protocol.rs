//! The `fairjob-serve v1` wire protocol.
//!
//! Newline-framed text, versioned like `fairjob-events v1`: the server
//! greets each connection with [`PROTOCOL_HEADER`], then answers every
//! request line with exactly one response line — `OK key=value …` or
//! `ERR <code> <detail>`. A line longer than [`MAX_LINE_BYTES`], or an
//! `EPOCH` payload whose records add up to more than
//! [`MAX_EPOCH_BYTES`], gets `ERR usage …` and closes the session.
//! Verbs:
//!
//! | request            | meaning                                              |
//! |--------------------|------------------------------------------------------|
//! | `AUDIT`            | the writer's audit of the published epoch, rendered when it was published; runs no audit |
//! | `QUERY <fairql>`   | run FairQL statements against the published snapshot; multi-line framed response (`OK results=… lines=n` + `n` payload lines) |
//! | `EPOCH <k>`        | writer-only: apply the next `k` event record lines as one epoch, re-audit warm, publish the new snapshot with its `AUDIT` reply |
//! | `METRICS`          | server-wide counters (sessions, audits, `EngineStats` totals, epoch lag, pool spawns) |
//! | `HEALTH`           | liveness probe: epoch, live rows, admission state    |
//! | `STATS`            | this session's request/audit/epoch/error counts      |
//! | `PING`             | `OK pong`                                            |
//! | `QUIT`             | close the session                                    |
//! | `SHUTDOWN`         | drain and stop the server                            |
//!
//! `EPOCH` payload lines use the *record* grammar of
//! `fairjob-events v1` (`add,…`, `score,…`, `set,…`, `remove,…`) —
//! the same CSV-quoted format `fairjob generate --events-out` writes,
//! minus the file header and `epoch` terminator, which the framing
//! already provides.

use fairjob_marketplace::stream::{Event, EventLog, EVENT_FILE_HEADER};
use fairjob_store::schema::Schema;

/// Version greeting; the first line a client reads after connecting.
pub const PROTOCOL_HEADER: &str = "fairjob-serve v1";

/// Longest request line or `EPOCH` payload record the server reads,
/// terminator excluded; a longer one gets `ERR usage` and closes the
/// session.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Most bytes the records of one `EPOCH` payload may add up to,
/// terminators excluded. The record that crosses it gets `ERR usage`
/// and closes the session, so one request never makes the server
/// buffer more than this, whatever count its `EPOCH` line promised.
pub const MAX_EPOCH_BYTES: usize = 16 * 1024 * 1024;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The writer's audit of the currently published epoch.
    Audit,
    /// Run FairQL statement text against the published snapshot. A
    /// FairQL parse/analysis failure answers
    /// `ERR parse <byte-offset> <message>`.
    Query(String),
    /// Apply one epoch; the operand is the number of event record lines
    /// that follow the request line.
    Epoch(usize),
    /// Server-wide counters.
    Metrics,
    /// Liveness probe.
    Health,
    /// Per-session counters.
    Stats,
    /// No-op round trip.
    Ping,
    /// Close this session.
    Quit,
    /// Drain in-flight sessions and stop the server.
    Shutdown,
}

impl Request {
    /// Parse one request line (already stripped of its newline).
    ///
    /// # Errors
    ///
    /// A human-readable reason for unknown verbs or malformed operands.
    pub fn parse(line: &str) -> Result<Request, String> {
        // QUERY carries free-form statement text (spaces, quotes, `;`):
        // split off the verb only, before the whitespace tokenisation
        // that every other verb goes through.
        let trimmed = line.trim();
        let verb_end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
        if trimmed[..verb_end].eq_ignore_ascii_case("QUERY") {
            let text = trimmed[verb_end..].trim();
            if text.is_empty() {
                return Err("QUERY needs statement text".to_string());
            }
            return Ok(Request::Query(text.to_string()));
        }
        let mut parts = line.split_whitespace();
        let verb = parts.next().unwrap_or("");
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(format!("too many operands in `{line}`"));
        }
        match (verb.to_ascii_uppercase().as_str(), arg) {
            ("AUDIT", None) => Ok(Request::Audit),
            ("EPOCH", Some(k)) => k
                .parse::<usize>()
                .map(Request::Epoch)
                .map_err(|_| format!("EPOCH needs an event count, got `{k}`")),
            ("EPOCH", None) => Err("EPOCH needs an event count".to_string()),
            ("METRICS", None) => Ok(Request::Metrics),
            ("HEALTH", None) => Ok(Request::Health),
            ("STATS", None) => Ok(Request::Stats),
            ("PING", None) => Ok(Request::Ping),
            ("QUIT", None) => Ok(Request::Quit),
            ("SHUTDOWN", None) => Ok(Request::Shutdown),
            ("", _) => Err("empty request".to_string()),
            (v, Some(_)) => Err(format!("verb `{v}` takes no operand")),
            (v, None) => Err(format!("unknown verb `{v}`")),
        }
    }
}

/// Render one epoch's events as protocol payload lines — the
/// `fairjob-events v1` record grammar without header or `epoch`
/// terminator.
pub fn render_epoch_records(events: &[Event], schema: &Schema) -> Vec<String> {
    let log = EventLog::from_epochs(vec![events.to_vec()]);
    let rendered = log.render(schema);
    rendered
        .lines()
        .filter(|l| *l != EVENT_FILE_HEADER && *l != "epoch")
        .map(str::to_string)
        .collect()
}

/// Parse protocol payload lines back into events.
///
/// # Errors
///
/// A human-readable reason with the 1-based payload line number.
pub fn parse_epoch_records(lines: &[String], schema: &Schema) -> Result<Vec<Event>, String> {
    let mut text = String::from(EVENT_FILE_HEADER);
    text.push('\n');
    for line in lines {
        text.push_str(line);
        text.push('\n');
    }
    text.push_str("epoch\n");
    let log = EventLog::parse(&text, schema).map_err(|e| {
        // Line 1 of the synthesised file is the header; shift to
        // payload-relative numbering.
        format!("payload line {}: {}", e.line.saturating_sub(1), e.reason)
    })?;
    Ok(log.epochs().first().cloned().unwrap_or_default())
}

/// Extract `key=value` from a response line (`OK a=1 b=2 …`).
pub fn kv<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// Render an `f64` for the wire twice over: human-readable decimal and
/// exact bits, so clients can assert bit-identity.
pub fn render_f64(key: &str, value: f64) -> String {
    format!("{key}={value} {key}_bits={:016x}", value.to_bits())
}

/// Recover the exact `f64` from a `…_bits` value rendered by
/// [`render_f64`].
pub fn parse_f64_bits(hex: &str) -> Option<f64> {
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parses_every_verb() {
        assert_eq!(Request::parse("AUDIT"), Ok(Request::Audit));
        assert_eq!(Request::parse("audit"), Ok(Request::Audit));
        assert_eq!(
            Request::parse("QUERY AUDIT workers WHERE country = 'India'; DESCRIBE"),
            Ok(Request::Query(
                "AUDIT workers WHERE country = 'India'; DESCRIBE".to_string()
            ))
        );
        assert_eq!(
            Request::parse("query SELECT * FROM workers"),
            Ok(Request::Query("SELECT * FROM workers".to_string()))
        );
        assert_eq!(Request::parse("EPOCH 12"), Ok(Request::Epoch(12)));
        assert_eq!(Request::parse("METRICS"), Ok(Request::Metrics));
        assert_eq!(Request::parse("HEALTH"), Ok(Request::Health));
        assert_eq!(Request::parse("STATS"), Ok(Request::Stats));
        assert_eq!(Request::parse("PING"), Ok(Request::Ping));
        assert_eq!(Request::parse("QUIT"), Ok(Request::Quit));
        assert_eq!(Request::parse("SHUTDOWN"), Ok(Request::Shutdown));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("FROB").is_err());
        assert!(Request::parse("EPOCH").is_err());
        assert!(Request::parse("EPOCH twelve").is_err());
        assert!(Request::parse("AUDIT now").is_err());
        assert!(Request::parse("EPOCH 3 4").is_err());
        assert!(Request::parse("QUERY").is_err());
        assert!(Request::parse("QUERY   ").is_err());
    }

    /// Valid request lines: every verb, the `QUERY` statements of the
    /// end-to-end benchmark's reader, and `EPOCH` counts.
    const VALID_LINES: &[&str] = &[
        "AUDIT",
        "audit",
        "QUERY AUDIT workers WHERE country = 'India' PROTECT gender, language",
        "QUERY AUDIT workers USING unbalanced METRIC emd-exact",
        "QUERY SELECT gender, COUNT(*), MEAN(approval_rate) FROM workers GROUP BY gender",
        "query DESCRIBE",
        "EPOCH 12",
        "EPOCH 0",
        "epoch 4000",
        "METRICS",
        "HEALTH",
        "STATS",
        "PING",
        "QUIT",
        "SHUTDOWN",
    ];

    /// Fragments spliced into request lines: huge, negative, signed and
    /// non-ASCII-digit counts, Unicode whitespace, NUL, U+FFFD, and
    /// other text a client could send.
    const FRAGMENTS: &[&str] = &[
        "99999999999999999999999999",
        "18446744073709551616",
        "18446744073709551615",
        "-1",
        "-0",
        "+7",
        "+",
        "١٢",
        "３",
        "²",
        "\u{a0}",
        "\u{2003}",
        "\u{3000}",
        "\u{85}",
        "\u{2028}",
        "\u{feff}",
        "\u{0}",
        "\u{fffd}",
        " ",
        "\t",
        "\r",
        "\n",
        "EPOCH",
        "QUERY",
        "AUDIT",
        "'",
        ";",
        "=",
        "é",
        "🦀",
    ];

    /// The largest char boundary of `text` at or before `at`.
    fn floor_boundary(text: &str, mut at: usize) -> usize {
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// One to three seed-driven edits of `line`: a fragment inserted
    /// anywhere, a fragment inserted right after a digit (growing a
    /// count into a huge or malformed one), a fragment replacing the
    /// operand, or a truncation.
    fn mutate(line: &str, rng: &mut StdRng) -> String {
        let mut out = line.to_string();
        for _ in 0..rng.gen_range(1..=3) {
            let fragment = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
            let digits: Vec<usize> = out
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(at, _)| at + 1)
                .collect();
            match rng.gen_range(0..5) {
                0 => out.truncate(floor_boundary(&out, rng.gen_range(0..=out.len()))),
                1 if !digits.is_empty() => {
                    out.insert_str(digits[rng.gen_range(0..digits.len())], fragment)
                }
                2 => {
                    let verb = out.split_whitespace().next().unwrap_or("").to_string();
                    out = format!("{verb} {fragment}");
                }
                _ => {
                    let at = floor_boundary(&out, rng.gen_range(0..=out.len()));
                    out.insert_str(at, fragment);
                }
            }
        }
        out
    }

    #[test]
    fn mutated_request_lines_never_panic_the_parser() {
        let mut rng = StdRng::seed_from_u64(0x5E12_7E11);
        let (mut parsed, mut rejected) = (0, 0);
        for case in 0..12_000 {
            let line = mutate(VALID_LINES[rng.gen_range(0..VALID_LINES.len())], &mut rng);
            match std::panic::catch_unwind(|| Request::parse(&line)) {
                Err(_) => panic!("case {case}: parse panicked on {line:?}"),
                Ok(Ok(request)) => {
                    if let Request::Query(text) = &request {
                        assert!(
                            !text.is_empty() && text.trim() == text,
                            "case {case}: {line:?} gave statement {text:?}"
                        );
                    }
                    parsed += 1;
                }
                Ok(Err(reason)) => {
                    assert!(!reason.is_empty(), "case {case}: {line:?}");
                    rejected += 1;
                }
            }
        }
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }

    #[test]
    fn epoch_counts_are_plain_ascii_numbers_in_range() {
        assert_eq!(Request::parse("EPOCH +7"), Ok(Request::Epoch(7)));
        assert_eq!(
            Request::parse(&format!("EPOCH {}", usize::MAX)),
            Ok(Request::Epoch(usize::MAX))
        );
        for bad in [
            "EPOCH 18446744073709551616",
            "EPOCH -1",
            "EPOCH -0",
            "EPOCH +",
            "EPOCH ١٢",
            "EPOCH ３",
            "EPOCH 4\u{0}",
            "EPOCH \u{fffd}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        // Unicode whitespace separates tokens like ASCII space.
        assert_eq!(Request::parse("EPOCH\u{3000}5"), Ok(Request::Epoch(5)));
        assert_eq!(Request::parse("\u{a0}PING\u{2003}"), Ok(Request::Ping));
    }

    #[test]
    fn kv_extracts_values() {
        let line = "OK epoch=7 live=120 unfairness=0.25 unfairness_bits=3fd0000000000000";
        assert_eq!(kv(line, "epoch"), Some("7"));
        assert_eq!(kv(line, "live"), Some("120"));
        assert_eq!(kv(line, "unfairness_bits"), Some("3fd0000000000000"));
        assert_eq!(kv(line, "missing"), None);
    }

    #[test]
    fn f64_bits_round_trip() {
        let v = 0.123_456_789_f64;
        let rendered = format!("OK {}", render_f64("unfairness", v));
        let bits = kv(&rendered, "unfairness_bits").unwrap();
        assert_eq!(parse_f64_bits(bits).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn epoch_records_round_trip() {
        use fairjob_marketplace::stream::{generate_stream, StreamConfig};
        let scenario = generate_stream(&StreamConfig {
            initial: 30,
            epochs: 2,
            events_per_epoch: 10,
            seed: 5,
            alpha: 0.5,
        });
        let schema = scenario.initial.schema();
        for events in scenario.events.epochs() {
            let lines = render_epoch_records(events, schema);
            assert_eq!(lines.len(), events.len());
            let parsed = parse_epoch_records(&lines, schema).unwrap();
            assert_eq!(&parsed, events);
        }
    }

    #[test]
    fn bad_epoch_records_report_payload_line() {
        use fairjob_marketplace::stream::{generate_stream, StreamConfig};
        let scenario = generate_stream(&StreamConfig {
            initial: 5,
            epochs: 0,
            events_per_epoch: 0,
            seed: 1,
            alpha: 0.5,
        });
        let err = parse_epoch_records(&["not-a-record".to_string()], scenario.initial.schema())
            .unwrap_err();
        assert!(err.contains("payload line 1"), "got: {err}");
    }
}
