//! End-to-end FairQL tests: equivalence with direct audit runs, the
//! planner's pushdown contract, warm-cache hand-off, and the
//! `EXPLAIN ANALYZE` counter attribution.

use fairjob_core::algorithms::by_name;
use fairjob_core::{AuditConfig, AuditContext, EngineStats};
use fairjob_fairql::physical::{PhysicalPlan, PlannerOptions, ScanKind};
use fairjob_fairql::{parse, Defaults, QueryError, QueryOutput, Session, Source, Value};
use fairjob_marketplace::scoring::{LinearScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::Table;
use fairjob_stream::StreamView;

fn population(size: usize) -> (Table, Vec<f64>) {
    let mut table = generate_uniform(size, 7);
    bucketise_numeric_protected(&mut table).unwrap();
    let scores = LinearScore::alpha("f1", 0.5).score_all(&table).unwrap();
    (table, scores)
}

fn session<'a>(table: &'a Table, scores: &'a [f64]) -> Session<'a> {
    Session::new(Source::Batch { table, scores }, Defaults::default()).unwrap()
}

fn direct_audit(table: &Table, scores: &[f64]) -> fairjob_core::AuditResult {
    let ctx = AuditContext::new(table, scores, AuditConfig::default()).unwrap();
    by_name("balanced", 0xBEEF).unwrap().run(&ctx).unwrap()
}

fn assert_stats_eq(a: &EngineStats, b: &EngineStats) {
    for ((name, x), (_, y)) in a.as_pairs().iter().zip(b.as_pairs().iter()) {
        assert_eq!(x, y, "counter {name} diverged");
    }
}

#[test]
fn unfiltered_audit_is_bit_identical_to_direct_run() {
    let (table, scores) = population(400);
    let direct = direct_audit(&table, &scores);
    let mut session = session(&table, &scores);
    let outputs = session.execute("AUDIT workers").unwrap();
    let QueryOutput::Audit { summary, rows } = &outputs[0] else {
        panic!("not an audit output")
    };
    assert_eq!(summary.unfairness_bits(), direct.unfairness.to_bits());
    assert_eq!(summary.candidates_evaluated, direct.candidates_evaluated);
    assert_eq!(summary.partitions, direct.partitioning.len());
    assert_stats_eq(&summary.engine, &direct.engine);
    assert_eq!(rows.rows.len(), direct.partitioning.len());
}

#[test]
fn explain_analyze_reports_the_direct_runs_counters() {
    let (table, scores) = population(400);
    let direct = direct_audit(&table, &scores);
    let mut session = session(&table, &scores);
    let outputs = session.execute("EXPLAIN ANALYZE AUDIT workers").unwrap();
    let QueryOutput::Explain { text } = &outputs[0] else {
        panic!("not an explain output")
    };
    assert!(
        text.contains(&format!(
            "unfairness_bits={:016x}",
            direct.unfairness.to_bits()
        )),
        "bits missing from:\n{text}"
    );
    for (name, value) in direct.engine.as_pairs() {
        assert!(
            text.contains(&format!(" {name}={value}")),
            "{name}={value} missing from:\n{text}"
        );
    }
}

#[test]
fn snapshot_audit_matches_snapshot_context_run() {
    let (table, scores) = population(300);
    let view = StreamView::new(table, scores, 10).unwrap();
    let snapshot = view.snapshot();
    let ctx = snapshot.context(AuditConfig::default()).unwrap();
    let direct = by_name("balanced", 0xBEEF).unwrap().run(&ctx).unwrap();

    let mut session = Session::new(Source::Snapshot(&snapshot), Defaults::default()).unwrap();
    let outputs = session.execute("AUDIT workers").unwrap();
    let QueryOutput::Audit { summary, .. } = &outputs[0] else {
        panic!("not an audit output")
    };
    assert_eq!(summary.unfairness_bits(), direct.unfairness.to_bits());
    assert_stats_eq(&summary.engine, &direct.engine);
}

#[test]
fn filtered_audit_audits_only_matching_rows() {
    let (table, scores) = population(500);
    let mut session = session(&table, &scores);
    let outputs = session
        .execute("AUDIT workers WHERE country = 'India' PROTECT gender, language")
        .unwrap();
    let QueryOutput::Audit { summary, rows } = &outputs[0] else {
        panic!("not an audit output")
    };
    let india = table
        .column_by_name("country")
        .unwrap()
        .as_categorical()
        .unwrap()
        .iter()
        .filter(|&&c| c == 1)
        .count();
    assert_eq!(summary.population, india);
    let total: i64 = rows
        .rows
        .iter()
        .map(|r| match &r[1] {
            Value::Int(n) => *n,
            other => panic!("unexpected {other:?}"),
        })
        .sum();
    assert_eq!(total as usize, india);
}

/// The cell algorithms audit exactly the rows a `WHERE` keeps: the
/// filtered audit's bits and partition listing equal the same audit
/// over a table of only the matching rows, and no cell is Female.
#[test]
fn filtered_cell_audits_equal_audits_of_the_matching_rows() {
    let (table, scores) = population(500);
    let gender = table.schema().index_of("gender").unwrap();
    let male = table.schema().attribute(gender).code_of("Male").unwrap();
    let mut men = Table::new(table.schema().clone());
    let mut men_scores = Vec::new();
    for (row, &score) in scores.iter().enumerate() {
        if table.code_at(gender, row).unwrap() == male {
            men.push_row(&table.row(row).unwrap()).unwrap();
            men_scores.push(score);
        }
    }
    let audit = |table: &Table, scores: &[f64], query: &str| {
        let mut outputs = session(table, scores).execute(query).unwrap();
        match outputs.remove(0) {
            QueryOutput::Audit { summary, rows } => (summary, rows),
            other => panic!("not an audit output: {other:?}"),
        }
    };
    for algorithm in ["all-attributes", "subset-exact"] {
        let (filtered, filtered_rows) = audit(
            &table,
            &scores,
            &format!("AUDIT workers WHERE gender = 'Male' USING {algorithm}"),
        );
        let (direct, direct_rows) = audit(
            &men,
            &men_scores,
            &format!("AUDIT workers USING {algorithm}"),
        );
        assert_eq!(filtered.population, men.len(), "{algorithm}");
        assert_eq!(
            filtered.unfairness_bits(),
            direct.unfairness_bits(),
            "{algorithm}"
        );
        assert_eq!(filtered.partitions, direct.partitions, "{algorithm}");
        assert_eq!(filtered_rows, direct_rows, "{algorithm}");
        for row in &filtered_rows.rows {
            let Value::Str(partition) = &row[0] else {
                panic!("unexpected {row:?}")
            };
            assert!(
                !partition.contains("gender=Female"),
                "{algorithm}: {partition}"
            );
        }
    }
}

#[test]
fn repeated_audit_reuses_warm_caches() {
    let (table, scores) = population(400);
    let mut session = session(&table, &scores);
    let outputs = session.execute("AUDIT workers; AUDIT workers").unwrap();
    let (QueryOutput::Audit { summary: cold, .. }, QueryOutput::Audit { summary: warm, .. }) =
        (&outputs[0], &outputs[1])
    else {
        panic!("not audit outputs")
    };
    assert_eq!(cold.unfairness_bits(), warm.unfairness_bits());
    assert_eq!(warm.engine.splits_computed, 0, "warm run re-split");
    assert!(warm.engine.split_cache_hits >= cold.engine.splits_computed);
    // The default `emd` sums its full evaluations without the distance
    // memo: the warm run serves no distance from it.
    assert_eq!(warm.engine.cache_hits, 0);
    assert_eq!(
        warm.engine.distances_computed,
        cold.engine.distances_computed
    );
    // A metric without an L1 form memoizes, and the warm run reuses it.
    let outputs = session
        .execute("AUDIT workers METRIC ks; AUDIT workers METRIC ks")
        .unwrap();
    let (QueryOutput::Audit { summary: cold, .. }, QueryOutput::Audit { summary: warm, .. }) =
        (&outputs[0], &outputs[1])
    else {
        panic!("not audit outputs")
    };
    assert_eq!(cold.unfairness_bits(), warm.unfairness_bits());
    assert!(warm.engine.distances_computed < cold.engine.distances_computed);
}

#[test]
fn session_default_metric_plans_and_caches_like_its_metric_clause() {
    // A session whose default metric is `emd-exact` must plan an audit
    // exactly as an explicit `METRIC emd-exact` clause does, and the
    // warm cache, which is keyed on the metric's name, must serve one
    // from the other.
    let (table, scores) = population(200);
    let defaults = Defaults {
        metric: fairjob_hist::distance::by_name("emd-exact").unwrap(),
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
    let mut plan_line = |query: &str| {
        let outputs = session.execute(query).unwrap();
        let QueryOutput::Explain { text } = &outputs[0] else {
            panic!("not an explain output")
        };
        text.lines()
            .find(|l| l.trim_start().starts_with("Audit "))
            .unwrap_or_else(|| panic!("no audit node in:\n{text}"))
            .to_string()
    };
    let implicit = plan_line("EXPLAIN AUDIT workers");
    let explicit = plan_line("EXPLAIN AUDIT workers METRIC emd-exact");
    assert_eq!(implicit, explicit);
    assert!(implicit.contains("metric=emd-exact"), "{implicit}");

    let outputs = session
        .execute("AUDIT workers; AUDIT workers METRIC emd-exact")
        .unwrap();
    let (
        QueryOutput::Audit { summary: first, .. },
        QueryOutput::Audit {
            summary: second, ..
        },
    ) = (&outputs[0], &outputs[1])
    else {
        panic!("not audit outputs")
    };
    assert_eq!(first.unfairness_bits(), second.unfairness_bits());
    assert!(first.engine.distances_computed > 0);
    assert_eq!(
        second.engine.distances_computed, 0,
        "second audit recomputed distances"
    );
    assert_eq!(second.engine.splits_computed, 0, "second audit re-split");
}

#[test]
fn changing_the_filter_invalidates_warm_caches() {
    let (table, scores) = population(400);
    let mut session = session(&table, &scores);
    let outputs = session
        .execute("AUDIT workers; AUDIT workers WHERE country = 'India'")
        .unwrap();
    let QueryOutput::Audit { summary, .. } = &outputs[1] else {
        panic!("not an audit output")
    };
    // A different population must not be served from the old caches.
    assert!(summary.engine.splits_computed > 0);
}

#[test]
fn pushed_scan_examines_fewer_rows_than_naive() {
    let (table, scores) = population(600);
    let query = "SELECT COUNT(*) FROM workers WHERE country = 'India'";

    let mut pushed = session(&table, &scores);
    let analyzed =
        fairjob_fairql::analyze_statement(&parse(query).unwrap()[0], table.schema()).unwrap();
    let plan = pushed.plan_of(&analyzed);
    let PhysicalPlan::Select { scan, .. } = &plan else {
        panic!("not a select plan")
    };
    assert!(matches!(scan.kind, ScanKind::Index(_)));
    assert!(scan.est_examined * 2 <= table.len());

    let mut naive = session(&table, &scores).with_planner_options(PlannerOptions {
        push_predicates: false,
    });
    let a = pushed.execute(query).unwrap();
    let b = naive.execute(query).unwrap();
    let (QueryOutput::Rows(ra), QueryOutput::Rows(rb)) = (&a[0], &b[0]) else {
        panic!("not row outputs")
    };
    assert_eq!(ra, rb, "pushdown changed the result");
}

#[test]
fn select_group_by_counts_cover_the_population() {
    let (table, scores) = population(250);
    let mut session = session(&table, &scores);
    let outputs = session
        .execute("SELECT gender, COUNT(*) FROM workers GROUP BY gender")
        .unwrap();
    let QueryOutput::Rows(result) = &outputs[0] else {
        panic!("not rows")
    };
    assert_eq!(result.columns, vec!["gender", "count"]);
    let total: i64 = result
        .rows
        .iter()
        .map(|r| match &r[1] {
            Value::Int(n) => *n,
            other => panic!("unexpected {other:?}"),
        })
        .sum();
    assert_eq!(total as usize, table.len());
}

#[test]
fn select_aggregates_and_limit() {
    let (table, scores) = population(120);
    let mut session = session(&table, &scores);
    let outputs = session
        .execute(
            "SELECT COUNT(*), MEAN(approval_rate), MIN(approval_rate), MAX(approval_rate) \
             FROM workers; \
             SELECT gender FROM workers LIMIT 5",
        )
        .unwrap();
    let QueryOutput::Rows(aggs) = &outputs[0] else {
        panic!("not rows")
    };
    assert_eq!(aggs.rows.len(), 1);
    assert_eq!(aggs.rows[0][0], Value::Int(table.len() as i64));
    let (Value::Float(min), Value::Float(max)) = (&aggs.rows[0][2], &aggs.rows[0][3]) else {
        panic!("min/max not floats")
    };
    assert!(min <= max);
    let QueryOutput::Rows(limited) = &outputs[1] else {
        panic!("not rows")
    };
    assert_eq!(limited.rows.len(), 5);
}

#[test]
fn describe_reports_cardinality_and_split_bins() {
    let (table, scores) = population(150);
    let mut session = session(&table, &scores);
    let outputs = session.execute("DESCRIBE gender").unwrap();
    let QueryOutput::Rows(result) = &outputs[0] else {
        panic!("not rows")
    };
    assert_eq!(result.rows.len(), 1);
    let row = &result.rows[0];
    assert_eq!(row[0], Value::Str("gender".to_string()));
    assert_eq!(row[1], Value::Str("protected".to_string()));
    assert_eq!(row[3], Value::Int(2));
    assert_eq!(row[4], Value::Int(2));
}

#[test]
fn explain_without_analyze_does_not_execute() {
    let (table, scores) = population(200);
    let mut session = session(&table, &scores);
    let outputs = session
        .execute("EXPLAIN AUDIT workers WHERE country = 'India'")
        .unwrap();
    let QueryOutput::Explain { text } = &outputs[0] else {
        panic!("not an explain output")
    };
    assert!(text.contains("IndexScan"), "{text}");
    assert!(text.contains("est:"), "{text}");
    assert!(!text.contains("actual:"), "{text}");
}

#[test]
fn errors_carry_byte_offsets_and_classes() {
    let (table, scores) = population(60);
    let mut session = session(&table, &scores);
    assert!(matches!(
        session.execute("AUDIT workers WHERE gender = 'Robot'"),
        Err(QueryError::Parse { offset: 29, .. })
    ));
    assert!(matches!(
        session.execute("FROB workers"),
        Err(QueryError::Parse { offset: 0, .. })
    ));
    // A LIMIT 0 match is still a well-formed query, not an error.
    assert!(session
        .execute("SELECT COUNT(*) FROM workers WHERE gender = 'Male' LIMIT 0")
        .is_ok());
}

/// Re-auditing one `WHERE` under another `PROTECT` list in a warm
/// session gives a cold session's bits and partitions. The lists
/// differ in members and, for the same members, in order: both number
/// the cube's cells differently, so no split entry may pass between
/// them.
#[test]
fn protect_list_change_audits_like_a_cold_session() {
    let (table, scores) = population(400);
    let first = "AUDIT workers WHERE gender = 'Male' PROTECT country, language USING ";
    for algorithm in ["balanced", "unbalanced", "all-attributes"] {
        for second in [
            "AUDIT workers WHERE gender = 'Male' PROTECT language, country USING ",
            "AUDIT workers WHERE gender = 'Male' PROTECT language, ethnicity USING ",
        ] {
            let mut warm = session(&table, &scores);
            let outputs = warm
                .execute(&format!("{first}{algorithm}; {second}{algorithm}"))
                .unwrap();
            let cold = session(&table, &scores)
                .execute(&format!("{second}{algorithm}"))
                .unwrap();
            let (
                QueryOutput::Audit {
                    summary: warm,
                    rows: warm_rows,
                },
                QueryOutput::Audit {
                    summary: cold,
                    rows: cold_rows,
                },
            ) = (&outputs[1], &cold[0])
            else {
                panic!("not audit outputs")
            };
            assert_eq!(
                warm.unfairness_bits(),
                cold.unfairness_bits(),
                "{algorithm}: {second}"
            );
            assert_eq!(warm_rows.rows, cold_rows.rows, "{algorithm}: {second}");
        }
    }
}
