//! Property tests: pretty-print → re-parse round-trip identity over
//! random ASTs, and planner determinism (same query + same store ⇒
//! bit-identical `QueryResult` rows across engine thread counts).

use fairjob_fairql::ast::{AuditStmt, Condition, Ident, SelectItem, SelectStmt, Statement};
use fairjob_fairql::{parse, Defaults, QueryError, QueryOutput, Session, Source, Value};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Round-trip: print(parse(print(ast))) == print(ast) and the re-parsed
// AST equals the original (Ident equality ignores offsets).
//
// The vendored proptest has no recursive/enum strategies, so the AST is
// generated from a seed with a hand-rolled generator. Identifiers are
// drawn from a keyword-free pool — a column literally named `where`
// would need quoting the grammar does not have.
// ---------------------------------------------------------------------

const NAMES: &[&str] = &[
    "gender",
    "country",
    "language",
    "ethnicity",
    "yob_band",
    "experience_band",
    "approval_rate",
    "language_test",
    "x",
    "very_long_column_name",
];
const VALUES: &[&str] = &["Male", "Female", "America", "India", "Other", "English"];
const ALGORITHMS: &[&str] = &["balanced", "r-balanced", "unbalanced", "all-attributes"];
const METRICS: &[&str] = &["emd", "emd-exact", "tv", "jsd"];

fn gen_ident(rng: &mut StdRng) -> Ident {
    Ident::new(NAMES[rng.gen_range(0..NAMES.len())])
}

fn gen_filter(rng: &mut StdRng) -> Vec<Condition> {
    (0..rng.gen_range(0..3))
        .map(|_| Condition {
            attr: gen_ident(rng),
            value: VALUES[rng.gen_range(0..VALUES.len())].to_string(),
            value_at: 0,
        })
        .collect()
}

fn gen_audit(rng: &mut StdRng) -> AuditStmt {
    AuditStmt {
        source: Ident::new("workers"),
        filter: gen_filter(rng),
        protect: (0..rng.gen_range(0..3)).map(|_| gen_ident(rng)).collect(),
        algorithm: (rng.gen_range(0..2) == 0)
            .then(|| Ident::new(ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())])),
        metric: (rng.gen_range(0..2) == 0)
            .then(|| Ident::new(METRICS[rng.gen_range(0..METRICS.len())])),
        bins: (rng.gen_range(0..2) == 0).then(|| rng.gen_range(1..64)),
    }
}

fn gen_item(rng: &mut StdRng) -> SelectItem {
    match rng.gen_range(0..6) {
        0 => SelectItem::Star,
        1 => SelectItem::Count,
        2 => SelectItem::Mean(gen_ident(rng)),
        3 => SelectItem::Min(gen_ident(rng)),
        4 => SelectItem::Max(gen_ident(rng)),
        _ => SelectItem::Column(gen_ident(rng)),
    }
}

fn gen_select(rng: &mut StdRng) -> SelectStmt {
    SelectStmt {
        items: (0..rng.gen_range(1..4)).map(|_| gen_item(rng)).collect(),
        from: Ident::new("workers"),
        filter: gen_filter(rng),
        group_by: (rng.gen_range(0..2) == 0).then(|| gen_ident(rng)),
        limit: (rng.gen_range(0..2) == 0).then(|| rng.gen_range(0..1000)),
    }
}

fn gen_statement(rng: &mut StdRng) -> Statement {
    let inner = match rng.gen_range(0..4) {
        0 => Statement::Audit(gen_audit(rng)),
        1 => Statement::Select(gen_select(rng)),
        2 => Statement::Describe(None),
        _ => Statement::Describe(Some(gen_ident(rng))),
    };
    if rng.gen_range(0..3) == 0 {
        Statement::Explain {
            analyze: rng.gen_range(0..2) == 0,
            inner: Box::new(inner),
        }
    } else {
        inner
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Canonical text re-parses to the same AST, and printing is a
    /// fixpoint.
    #[test]
    fn pretty_print_reparses_to_the_same_ast(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stmt = gen_statement(&mut rng);
        let printed = stmt.to_string();
        let reparsed = parse(&printed);
        prop_assert!(reparsed.is_ok(), "`{}` failed to re-parse: {:?}", printed, reparsed);
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(reparsed.len(), 1);
        prop_assert_eq!(&reparsed[0], &stmt, "`{}` re-parsed differently", printed);
        prop_assert_eq!(reparsed[0].to_string(), printed);
    }

    /// Scripts of several statements round-trip through `;` joins too.
    #[test]
    fn scripts_round_trip(seed in 0u64..1 << 48, count in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stmts: Vec<Statement> = (0..count).map(|_| gen_statement(&mut rng)).collect();
        let printed = stmts
            .iter()
            .map(Statement::to_string)
            .collect::<Vec<_>>()
            .join("; ");
        let reparsed = parse(&printed).unwrap();
        prop_assert_eq!(reparsed, stmts);
    }
}

// ---------------------------------------------------------------------
// Never panic: mutated statements parse to `Ok` or to a typed parse
// error whose offset lies within the text.
// ---------------------------------------------------------------------

/// What a mutation inserts: quotes, separators, huge, negative or NaN
/// numbers, and non-ASCII text.
const FRAGMENTS: &[&str] = &[
    "'",
    "\"",
    "''",
    ";",
    ",",
    "(",
    ")",
    "=",
    "*",
    ".",
    "-",
    " ",
    "\n",
    "\t",
    "99999999999999999999999999",
    "18446744073709551616",
    "1e400",
    "-1",
    "NaN",
    "inf",
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

/// One to three seed-driven edits of `text`: a fragment inserted
/// anywhere, a fragment inserted right after a digit (growing a number
/// into a huge or malformed one), or a truncation.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut out = text.to_string();
    for _ in 0..rng.gen_range(1..=3) {
        let fragment = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
        let digits: Vec<usize> = out
            .char_indices()
            .filter(|(_, c)| c.is_ascii_digit())
            .map(|(at, _)| at + 1)
            .collect();
        match rng.gen_range(0..4) {
            0 => out.truncate(floor_boundary(&out, rng.gen_range(0..=out.len()))),
            1 if !digits.is_empty() => {
                out.insert_str(digits[rng.gen_range(0..digits.len())], fragment)
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
fn mutated_statements_never_panic_the_parser() {
    let mut rng = StdRng::seed_from_u64(0x00F4_12C0);
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..12_000 {
        let text = mutate(&gen_statement(&mut rng).to_string(), &mut rng);
        match std::panic::catch_unwind(|| parse(&text)) {
            Err(_) => panic!("case {case}: parse panicked on {text:?}"),
            Ok(Ok(_)) => parsed += 1,
            Ok(Err(QueryError::Parse { offset, .. })) => {
                assert!(
                    offset <= text.len(),
                    "case {case}: offset {offset} past the end of {text:?}"
                );
                rejected += 1;
            }
            Ok(Err(other)) => panic!("case {case}: {text:?} gave a non-parse error {other:?}"),
        }
    }
    // Both outcomes occur, so the mutations reach past the lexer.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}

// ---------------------------------------------------------------------
// Planner determinism: the same query over the same store produces
// bit-identical `QueryResult` rows regardless of the engine's thread
// count (the engine guarantees value determinism; this pins the whole
// query pipeline on top of it).
// ---------------------------------------------------------------------

fn value_bits(v: &Value) -> String {
    match v {
        Value::Float(x) => format!("f{:016x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

fn run_with_threads(query: &str, size: usize, threads: usize) -> Vec<String> {
    let mut table = generate_uniform(size, 23);
    bucketise_numeric_protected(&mut table).unwrap();
    let scores = LinearScore::alpha("f1", 0.5).score_all(&table).unwrap();
    let defaults = Defaults {
        threads: Some(threads),
        ..Defaults::default()
    };
    let mut session = Session::new(
        Source::Batch {
            table: &table,
            scores: &scores,
        },
        defaults,
    )
    .unwrap();
    let outputs = session.execute(query).unwrap();
    outputs
        .iter()
        .flat_map(|out| match out {
            QueryOutput::Rows(rows) => rows
                .rows
                .iter()
                .flat_map(|r| r.iter().map(value_bits))
                .collect::<Vec<_>>(),
            QueryOutput::Audit { summary, rows } => {
                let mut cells: Vec<String> =
                    vec![format!("bits{:016x}", summary.unfairness_bits())];
                cells.extend(rows.rows.iter().flat_map(|r| r.iter().map(value_bits)));
                cells
            }
            QueryOutput::Explain { text } => vec![text.clone()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same query + same store ⇒ bit-identical results at 1, 2, and 3
    /// engine threads.
    #[test]
    fn results_are_bit_identical_across_thread_counts(
        size in 120usize..260,
        which in 0usize..3,
    ) {
        let query = match which {
            0 => "AUDIT workers PROTECT gender, country",
            1 => "AUDIT workers WHERE country = 'India' METRIC emd-exact BINS 8",
            _ => "SELECT gender, COUNT(*), MEAN(approval_rate) FROM workers GROUP BY gender",
        };
        let baseline = run_with_threads(query, size, 1);
        for threads in [2usize, 3] {
            let other = run_with_threads(query, size, threads);
            prop_assert_eq!(&baseline, &other, "threads={} diverged", threads);
        }
    }
}

// ---------------------------------------------------------------------
// Layout parity through the whole query pipeline: EXPLAIN ANALYZE must
// report identical actual counters at every thread count, save for
// `shard_tasks` (one classify task per row range, and from 65 536 rows
// a range per thread) and the plan's own `threads=` label.
// ---------------------------------------------------------------------

/// Run EXPLAIN ANALYZE and strip the tokens allowed to differ between
/// thread counts (the `threads=` plan label and `shard_tasks`) or
/// between any two runs (`elapsed_us=`).
fn explain_analyze_lines(query: &str, size: usize, threads: usize) -> Vec<String> {
    let mut table = generate_uniform(size, 23);
    bucketise_numeric_protected(&mut table).unwrap();
    let scores = LinearScore::alpha("f1", 0.5).score_all(&table).unwrap();
    let defaults = Defaults {
        threads: Some(threads),
        ..Defaults::default()
    };
    let mut session = Session::new(
        Source::Batch {
            table: &table,
            scores: &scores,
        },
        defaults,
    )
    .unwrap();
    let outputs = session.execute(query).unwrap();
    let [QueryOutput::Explain { text }] = outputs.as_slice() else {
        panic!("expected one EXPLAIN output");
    };
    const VARIABLE: &[&str] = &["threads=", "shard_tasks=", "elapsed_us="];
    text.lines()
        .map(|line| {
            line.split(' ')
                .filter(|tok| !VARIABLE.iter().any(|p| tok.starts_with(p)))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// EXPLAIN ANALYZE counter parity: every actual counter except
    /// `shard_tasks` is identical at 1, 2 and 8 threads.
    #[test]
    fn explain_analyze_counters_are_shard_layout_independent(
        size in 120usize..240,
        which in 0usize..2,
    ) {
        let query = match which {
            0 => "EXPLAIN ANALYZE AUDIT workers PROTECT gender, country",
            _ => "EXPLAIN ANALYZE AUDIT workers WHERE country = 'India' BINS 8",
        };
        let baseline = explain_analyze_lines(query, size, 1);
        for threads in [1usize, 2, 8] {
            let other = explain_analyze_lines(query, size, threads);
            prop_assert_eq!(
                &baseline, &other,
                "EXPLAIN ANALYZE diverged at threads={}", threads
            );
        }
    }
}
