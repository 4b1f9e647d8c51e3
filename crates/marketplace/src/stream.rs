//! Event streams over a worker population.
//!
//! The paper audits a static snapshot, but a real marketplace mutates
//! continuously: workers join and leave, finish tasks (score updates)
//! and edit their profiles (attribute changes). This module defines the
//! replayable, versioned event log those mutations are recorded in —
//! [`Event`] / [`EventLog`] with a line-based text format — plus a
//! seeded scenario generator ([`generate_stream`]) producing an initial
//! population and a plausible mix of follow-on events for the
//! `fairjob-stream` ingestion layer to replay.
//!
//! Worker ids are row indices in the *append-only* streamed table: ids
//! are assigned in arrival order and never reused, so a log replays to
//! the same state regardless of when removals happen.

use crate::generate::generate_uniform;
use crate::schema::{
    bucketise_numeric_protected, names, COUNTRIES, ETHNICITIES, GENDERS, LANGUAGES,
};
use crate::scoring::{LinearScore, ScoringFunction};
use fairjob_store::csv::{parse_records, render_record};
use fairjob_store::schema::{DataType, Schema};
use fairjob_store::table::{Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Version header of the event-file format; the first line of every log.
pub const EVENT_FILE_HEADER: &str = "fairjob-events v1";

/// One mutation of the marketplace population.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A worker joins. `values` is a full row in the streamed table's
    /// (bucketised) layout; the id assigned is the next row index.
    WorkerAdded {
        /// Full row of attribute values, one per schema attribute.
        values: Vec<Value>,
        /// The worker's qualification score in `[0, 1]`.
        score: f64,
    },
    /// A worker's qualification score changes (task completed, review
    /// posted, …).
    ScoreUpdated {
        /// Row id of the worker.
        worker: u32,
        /// New score in `[0, 1]`.
        score: f64,
    },
    /// A worker edits a categorical attribute of their profile.
    AttributeChanged {
        /// Row id of the worker.
        worker: u32,
        /// Attribute name (must be categorical).
        attribute: String,
        /// New label; must be in the attribute's domain.
        value: String,
    },
    /// A worker leaves the platform.
    WorkerRemoved {
        /// Row id of the worker.
        worker: u32,
    },
}

/// Error from parsing an event file.
#[derive(Debug, Clone, PartialEq)]
pub struct EventParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for EventParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event file line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for EventParseError {}

/// A replayable log of events grouped into epochs. The stream layer
/// applies one epoch at a time and re-audits at each epoch boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    epochs: Vec<Vec<Event>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Build a log from pre-grouped epochs.
    pub fn from_epochs(epochs: Vec<Vec<Event>>) -> Self {
        EventLog { epochs }
    }

    /// The epochs, in replay order.
    pub fn epochs(&self) -> &[Vec<Event>] {
        &self.epochs
    }

    /// Append an epoch.
    pub fn push_epoch(&mut self, events: Vec<Event>) {
        self.epochs.push(events);
    }

    /// Total number of events across all epochs.
    pub fn total_events(&self) -> usize {
        self.epochs.iter().map(|e| e.len()).sum()
    }

    /// Serialise to the versioned text format. One record per line:
    /// `add,<score>,<fields…>` (fields in `schema` order),
    /// `score,<worker>,<s>`, `set,<worker>,<attr>,<label>`,
    /// `remove,<worker>`; an `epoch` record closes each epoch. Fields
    /// are CSV-quoted, so labels may embed commas or quotes.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::from(EVENT_FILE_HEADER);
        out.push('\n');
        for epoch in &self.epochs {
            for event in epoch {
                let fields = match event {
                    Event::WorkerAdded { values, score } => {
                        let mut f = vec!["add".to_string(), format!("{score}")];
                        debug_assert_eq!(values.len(), schema.width());
                        f.extend(values.iter().map(|v| match v {
                            Value::Cat(s) => s.clone(),
                            Value::Num(x) => format!("{x}"),
                            Value::Int(x) => x.to_string(),
                        }));
                        f
                    }
                    Event::ScoreUpdated { worker, score } => {
                        vec!["score".into(), worker.to_string(), format!("{score}")]
                    }
                    Event::AttributeChanged {
                        worker,
                        attribute,
                        value,
                    } => vec![
                        "set".into(),
                        worker.to_string(),
                        attribute.clone(),
                        value.clone(),
                    ],
                    Event::WorkerRemoved { worker } => {
                        vec!["remove".into(), worker.to_string()]
                    }
                };
                out.push_str(&render_record(&fields));
                out.push('\n');
            }
            out.push_str("epoch\n");
        }
        out
    }

    /// Parse the text format produced by [`EventLog::render`]. `schema`
    /// resolves the field layout of `add` records. Blank lines and lines
    /// starting with `#` are skipped; a trailing un-closed epoch (events
    /// after the last `epoch` record) becomes a final epoch.
    ///
    /// # Errors
    ///
    /// [`EventParseError`] with the 1-based line number for a missing or
    /// wrong version header, unknown record kinds, arity mismatches, or
    /// unparseable numbers.
    pub fn parse(text: &str, schema: &Schema) -> Result<EventLog, EventParseError> {
        let err = |line: usize, reason: String| EventParseError { line, reason };
        let mut records = parse_records(text).enumerate();
        let header = loop {
            match records.next() {
                None => return Err(err(1, "missing version header".into())),
                Some((lineno, record)) => {
                    let fields = record.map_err(|reason| err(lineno + 1, reason))?;
                    if is_skippable(&fields) {
                        continue;
                    }
                    break (lineno + 1, fields);
                }
            }
        };
        if header.1 != [EVENT_FILE_HEADER] {
            return Err(err(
                header.0,
                format!(
                    "expected header `{EVENT_FILE_HEADER}`, found {:?}",
                    header.1
                ),
            ));
        }
        let mut epochs = Vec::new();
        let mut current = Vec::new();
        for (lineno, record) in records {
            let line = lineno + 1;
            let fields = record.map_err(|reason| err(line, reason))?;
            if is_skippable(&fields) {
                continue;
            }
            match fields[0].as_str() {
                "epoch" => {
                    if fields.len() != 1 {
                        return Err(err(line, "epoch record takes no fields".into()));
                    }
                    epochs.push(std::mem::take(&mut current));
                }
                "add" => {
                    if fields.len() != 2 + schema.width() {
                        return Err(err(
                            line,
                            format!(
                                "add record needs {} fields, found {}",
                                2 + schema.width(),
                                fields.len()
                            ),
                        ));
                    }
                    let score = parse_f64(&fields[1], line)?;
                    let mut values = Vec::with_capacity(schema.width());
                    for (attr, field) in schema.attributes().iter().zip(&fields[2..]) {
                        values.push(match &attr.dtype {
                            DataType::Categorical { .. } => Value::Cat(field.clone()),
                            DataType::Numeric { .. } => Value::Num(parse_f64(field, line)?),
                            DataType::Integer { .. } => {
                                Value::Int(field.parse::<i64>().map_err(|e| {
                                    err(line, format!("bad integer `{field}`: {e}"))
                                })?)
                            }
                        });
                    }
                    current.push(Event::WorkerAdded { values, score });
                }
                "score" => {
                    if fields.len() != 3 {
                        return Err(err(line, "score record needs 3 fields".into()));
                    }
                    current.push(Event::ScoreUpdated {
                        worker: parse_worker(&fields[1], line)?,
                        score: parse_f64(&fields[2], line)?,
                    });
                }
                "set" => {
                    if fields.len() != 4 {
                        return Err(err(line, "set record needs 4 fields".into()));
                    }
                    current.push(Event::AttributeChanged {
                        worker: parse_worker(&fields[1], line)?,
                        attribute: fields[2].clone(),
                        value: fields[3].clone(),
                    });
                }
                "remove" => {
                    if fields.len() != 2 {
                        return Err(err(line, "remove record needs 2 fields".into()));
                    }
                    current.push(Event::WorkerRemoved {
                        worker: parse_worker(&fields[1], line)?,
                    });
                }
                other => {
                    return Err(err(line, format!("unknown record kind `{other}`")));
                }
            }
        }
        if !current.is_empty() {
            epochs.push(current);
        }
        Ok(EventLog { epochs })
    }
}

fn is_skippable(fields: &[String]) -> bool {
    fields.is_empty() || (fields.len() == 1 && (fields[0].is_empty() || fields[0].starts_with('#')))
}

fn parse_f64(field: &str, line: usize) -> Result<f64, EventParseError> {
    field.parse::<f64>().map_err(|e| EventParseError {
        line,
        reason: format!("bad float `{field}`: {e}"),
    })
}

fn parse_worker(field: &str, line: usize) -> Result<u32, EventParseError> {
    field.parse::<u32>().map_err(|e| EventParseError {
        line,
        reason: format!("bad worker id `{field}`: {e}"),
    })
}

/// Knobs for the seeded scenario generator.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Size of the initial population.
    pub initial: usize,
    /// Number of epochs of events to generate.
    pub epochs: usize,
    /// Events per epoch.
    pub events_per_epoch: usize,
    /// Seed for the population and the event stream.
    pub seed: u64,
    /// The `α` of the linear scoring function
    /// `f = α·LanguageTest + (1-α)·ApprovalRate` used for all scores.
    pub alpha: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            initial: 500,
            epochs: 4,
            events_per_epoch: 5,
            seed: 42,
            alpha: 0.5,
        }
    }
}

/// A generated scenario: the bucketised initial population with its
/// scores, plus the event log to replay on top of it.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    /// Initial population in the streamed (bucketised) layout.
    pub initial: Table,
    /// Initial scores, aligned with `initial`.
    pub scores: Vec<f64>,
    /// The events, grouped into epochs.
    pub events: EventLog,
}

/// Generate a deterministic marketplace scenario: a uniform initial
/// population (bucketised, with scores from `LinearScore::alpha`) and
/// `epochs × events_per_epoch` follow-on events mixing score updates
/// (~50%), profile edits (~20%), arrivals (~20%) and departures (~10%).
///
/// # Panics
///
/// Panics if `config.initial` is zero (event targets need at least one
/// live worker).
pub fn generate_stream(config: &StreamConfig) -> StreamScenario {
    assert!(config.initial > 0, "initial population must be non-empty");
    let mut initial = generate_uniform(config.initial, config.seed);
    bucketise_numeric_protected(&mut initial).expect("fresh table has no band columns");
    let scorer = LinearScore::alpha("stream", config.alpha);
    let scores = scorer
        .score_all(&initial)
        .expect("generated table carries the observed attributes");

    // Independent RNG stream for the events so the initial population
    // matches `generate_uniform(initial, seed)` exactly.
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    let alpha = config.alpha.clamp(0.0, 1.0);
    let mut live: Vec<u32> = (0..config.initial as u32).collect();
    let mut next_id = config.initial as u32;
    let mut events = EventLog::new();
    let schema = initial.schema().clone();

    for _ in 0..config.epochs {
        let mut epoch = Vec::with_capacity(config.events_per_epoch);
        for _ in 0..config.events_per_epoch {
            let mut roll = rng.gen_range(0..10u32);
            if roll == 9 && live.len() <= 2 {
                // Keep the population auditable: turn departures into
                // arrivals when almost everyone has left.
                roll = 7;
            }
            match roll {
                0..=4 => {
                    let worker = live[rng.gen_range(0..live.len())];
                    let test: f64 = rng.gen_range(25.0..=100.0);
                    let approval: f64 = rng.gen_range(25.0..=100.0);
                    epoch.push(Event::ScoreUpdated {
                        worker,
                        score: blend_score(alpha, test, approval),
                    });
                }
                5..=6 => {
                    let worker = live[rng.gen_range(0..live.len())];
                    let (attribute, value) = random_profile_edit(&mut rng);
                    epoch.push(Event::AttributeChanged {
                        worker,
                        attribute,
                        value,
                    });
                }
                7..=8 => {
                    let (values, score) = random_arrival(&mut rng, &schema, alpha);
                    live.push(next_id);
                    next_id += 1;
                    epoch.push(Event::WorkerAdded { values, score });
                }
                _ => {
                    let idx = rng.gen_range(0..live.len());
                    let worker = live.swap_remove(idx);
                    epoch.push(Event::WorkerRemoved { worker });
                }
            }
        }
        events.push_epoch(epoch);
    }

    StreamScenario {
        initial,
        scores,
        events,
    }
}

/// The score `LinearScore::alpha` would assign to these observed values.
fn blend_score(alpha: f64, test: f64, approval: f64) -> f64 {
    (alpha * (test - 25.0) / 75.0 + (1.0 - alpha) * (approval - 25.0) / 75.0).clamp(0.0, 1.0)
}

/// A random edit of one of the four raw categorical protected
/// attributes (the derived bands stay consistent with their sources).
fn random_profile_edit(rng: &mut StdRng) -> (String, String) {
    match rng.gen_range(0..4u32) {
        0 => (
            names::GENDER.into(),
            GENDERS[rng.gen_range(0..GENDERS.len())].into(),
        ),
        1 => (
            names::COUNTRY.into(),
            COUNTRIES[rng.gen_range(0..COUNTRIES.len())].into(),
        ),
        2 => (
            names::LANGUAGE.into(),
            LANGUAGES[rng.gen_range(0..LANGUAGES.len())].into(),
        ),
        _ => (
            names::ETHNICITY.into(),
            ETHNICITIES[rng.gen_range(0..ETHNICITIES.len())].into(),
        ),
    }
}

/// One new worker in the full bucketised layout: raw attributes drawn
/// like [`generate_uniform`], band columns derived through the same
/// data-independent bucketisation, score from the same linear blend.
fn random_arrival(rng: &mut StdRng, schema: &Schema, alpha: f64) -> (Vec<Value>, f64) {
    let yob = rng.gen_range(1950..=2009i64);
    let experience = rng.gen_range(0..=30i64);
    let test: f64 = rng.gen_range(25.0..=100.0);
    let approval: f64 = rng.gen_range(25.0..=100.0);
    let raw = [
        Value::cat(GENDERS[rng.gen_range(0..GENDERS.len())]),
        Value::cat(COUNTRIES[rng.gen_range(0..COUNTRIES.len())]),
        Value::int(yob),
        Value::cat(LANGUAGES[rng.gen_range(0..LANGUAGES.len())]),
        Value::cat(ETHNICITIES[rng.gen_range(0..ETHNICITIES.len())]),
        Value::int(experience),
        Value::num(test),
        Value::num(approval),
    ];
    let mut one = Table::new(crate::schema::amt_schema());
    one.push_row(&raw).expect("arrival satisfies the schema");
    bucketise_numeric_protected(&mut one).expect("fresh table has no band columns");
    let values = one.row(0).expect("row 0 exists");
    debug_assert_eq!(values.len(), schema.width());
    (values, blend_score(alpha, test, approval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::amt_schema;

    fn banded_schema() -> Schema {
        let mut t = Table::new(amt_schema());
        t.push_row(&[
            Value::cat("Male"),
            Value::cat("America"),
            Value::int(1980),
            Value::cat("English"),
            Value::cat("White"),
            Value::int(10),
            Value::num(80.0),
            Value::num(90.0),
        ])
        .unwrap();
        bucketise_numeric_protected(&mut t).unwrap();
        t.schema().clone()
    }

    #[test]
    fn log_roundtrips_through_text() {
        let scenario = generate_stream(&StreamConfig {
            initial: 30,
            epochs: 3,
            events_per_epoch: 6,
            seed: 11,
            alpha: 0.5,
        });
        let schema = scenario.initial.schema();
        let text = scenario.events.render(schema);
        assert!(text.starts_with(EVENT_FILE_HEADER));
        let back = EventLog::parse(&text, schema).unwrap();
        assert_eq!(scenario.events, back);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let schema = banded_schema();
        let text = format!(
            "# a comment\n\n{EVENT_FILE_HEADER}\nscore,3,0.25\n# mid comment\nremove,1\nepoch\n"
        );
        let log = EventLog::parse(&text, &schema).unwrap();
        assert_eq!(log.epochs().len(), 1);
        assert_eq!(log.epochs()[0].len(), 2);
    }

    #[test]
    fn trailing_events_form_a_final_epoch() {
        let schema = banded_schema();
        let text = format!("{EVENT_FILE_HEADER}\nscore,0,0.5\nepoch\nremove,2\n");
        let log = EventLog::parse(&text, &schema).unwrap();
        assert_eq!(log.epochs().len(), 2);
        assert_eq!(log.epochs()[1], vec![Event::WorkerRemoved { worker: 2 }]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        let schema = banded_schema();
        for (text, needle) in [
            ("".to_string(), "missing version header"),
            ("not-a-header\n".to_string(), "expected header"),
            (
                format!("{EVENT_FILE_HEADER}\nfrobnicate,1\n"),
                "unknown record",
            ),
            (format!("{EVENT_FILE_HEADER}\nscore,1\n"), "3 fields"),
            (
                format!("{EVENT_FILE_HEADER}\nscore,x,0.5\n"),
                "bad worker id",
            ),
            (
                format!("{EVENT_FILE_HEADER}\nadd,0.5,Male\n"),
                "add record needs",
            ),
            (format!("{EVENT_FILE_HEADER}\nepoch,extra\n"), "no fields"),
        ] {
            let err = EventLog::parse(&text, &schema).unwrap_err();
            assert!(
                err.reason.contains(needle) || err.to_string().contains(needle),
                "for {text:?}: {err}"
            );
        }
    }

    /// What a mutation inserts into a record: quotes, separators, record
    /// kinds, huge, negative or NaN numbers, and non-ASCII text.
    const FRAGMENTS: &[&str] = &[
        "\"",
        "\"\"",
        ",",
        ",,",
        "\n",
        "\r",
        "\r\n",
        "#",
        " ",
        "epoch",
        "add",
        "99999999999999999999999999",
        "4294967296",
        "1e400",
        "-1",
        "NaN",
        "-inf",
        "é",
        "日本語",
        "\u{200b}",
        "🦀",
        "\u{0}",
    ];

    /// The largest char boundary of `text` at or before `at`.
    fn floor_boundary(text: &str, mut at: usize) -> usize {
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// One to three seed-driven edits of one record of `log`: a fragment
    /// inserted anywhere in it, a fragment inserted right after one of
    /// its digits, or the record truncated; sometimes the whole log is
    /// cut short after the edits.
    fn mutate(log: &str, rng: &mut StdRng) -> String {
        let mut lines: Vec<String> = log.lines().map(str::to_string).collect();
        let line = &mut lines[rng.gen_range(0..log.lines().count())];
        for _ in 0..rng.gen_range(1..=3) {
            let fragment = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
            let digits: Vec<usize> = line
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(at, _)| at + 1)
                .collect();
            match rng.gen_range(0..4) {
                0 => line.truncate(floor_boundary(line, rng.gen_range(0..=line.len()))),
                1 if !digits.is_empty() => {
                    line.insert_str(digits[rng.gen_range(0..digits.len())], fragment)
                }
                _ => {
                    let at = floor_boundary(line, rng.gen_range(0..=line.len()));
                    line.insert_str(at, fragment);
                }
            }
        }
        let mut text = lines.join("\n");
        if rng.gen_range(0..8) == 0 {
            text.truncate(floor_boundary(&text, rng.gen_range(0..=text.len())));
        }
        text
    }

    #[test]
    fn mutated_records_never_panic_the_parser() {
        let logs: Vec<(String, Schema)> = (0..4)
            .map(|seed| {
                let scenario = generate_stream(&StreamConfig {
                    initial: 8,
                    epochs: 3,
                    events_per_epoch: 5,
                    seed,
                    alpha: 0.5,
                });
                let schema = scenario.initial.schema().clone();
                (scenario.events.render(&schema), schema)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0x0E7E_4715);
        let (mut parsed, mut rejected) = (0, 0);
        for case in 0..12_000 {
            let (log, schema) = &logs[case % logs.len()];
            let text = mutate(log, &mut rng);
            match std::panic::catch_unwind(|| EventLog::parse(&text, schema)) {
                Err(_) => panic!("case {case}: parse panicked on {text:?}"),
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(err)) => {
                    assert!(
                        (1..=text.lines().count() + 1).contains(&err.line)
                            && !err.reason.is_empty(),
                        "case {case}: {err:?} for {text:?}"
                    );
                    rejected += 1;
                }
            }
        }
        // Both outcomes occur, so the mutations reach past the header.
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }

    #[test]
    fn generator_is_deterministic_and_respects_shape() {
        let cfg = StreamConfig {
            initial: 40,
            epochs: 5,
            events_per_epoch: 4,
            seed: 3,
            alpha: 0.3,
        };
        let a = generate_stream(&cfg);
        let b = generate_stream(&cfg);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.epochs().len(), 5);
        assert!(a.events.epochs().iter().all(|e| e.len() == 4));
        assert_eq!(a.initial.len(), 40);
        assert_eq!(a.scores.len(), 40);
        // The initial table matches the plain generator plus banding.
        let mut plain = generate_uniform(40, 3);
        bucketise_numeric_protected(&mut plain).unwrap();
        assert_eq!(a.initial, plain);
    }

    #[test]
    fn generated_adds_carry_full_banded_rows_and_consistent_scores() {
        let scenario = generate_stream(&StreamConfig {
            initial: 10,
            epochs: 6,
            events_per_epoch: 8,
            seed: 99,
            alpha: 0.7,
        });
        let schema = scenario.initial.schema();
        let mut saw_add = false;
        for event in scenario.events.epochs().iter().flatten() {
            if let Event::WorkerAdded { values, score } = event {
                saw_add = true;
                assert_eq!(values.len(), schema.width());
                // Replaying the row through a fresh table accepts it.
                let mut t = Table::new(schema.clone());
                t.push_row(values).unwrap();
                // The carried score matches the linear function on the row.
                let expected = LinearScore::alpha("f", 0.7).score_all(&t).unwrap()[0];
                assert!((score - expected).abs() < 1e-12);
            }
        }
        assert!(saw_add, "expected at least one arrival in 48 events");
    }
}
