//! Helpers shared by the core integration suites (each uses a subset).
#![allow(dead_code)]

use fairjob_core::algorithms::{
    balanced::Balanced, unbalanced::Unbalanced, Algorithm, AttributeChoice,
};
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::column::CodeColumn;
use fairjob_store::paged::write_paged;
use fairjob_store::{RowSet, Table};
use std::path::PathBuf;
use std::sync::Arc;

/// A generated population scored by the rule-based f7 (`rule`) or the
/// linear f1.
pub fn population(size: usize, seed: u64, rule: bool) -> (Table, Vec<f64>) {
    let mut workers = generate_uniform(size, seed);
    bucketise_numeric_protected(&mut workers).unwrap();
    let scores = if rule {
        RuleBasedScore::f7(5).score_all(&workers).unwrap()
    } else {
        LinearScore::alpha("f1", 0.5).score_all(&workers).unwrap()
    };
    (workers, scores)
}

/// The default config at a thread count.
pub fn layout(threads: usize) -> AuditConfig {
    AuditConfig {
        threads: Some(threads),
        ..AuditConfig::default()
    }
}

/// A worst-attribute audit of `ctx`, balanced or unbalanced.
pub fn worst_audit(ctx: &AuditContext<'_>, balanced: bool) -> AuditResult {
    if balanced {
        Balanced::new(AttributeChoice::Worst).run(ctx).unwrap()
    } else {
        Unbalanced::new(AttributeChoice::Worst).run(ctx).unwrap()
    }
}

/// [`worst_audit`] of an in-memory context at a thread count.
pub fn run_mem(workers: &Table, scores: &[f64], threads: usize, balanced: bool) -> AuditResult {
    let ctx = AuditContext::new(workers, scores, layout(threads)).unwrap();
    worst_audit(&ctx, balanced)
}

/// The in-memory context over the `live` subset of `workers`, through
/// the filtered paths' validated parts constructor.
pub fn live_context<'a>(workers: &'a Table, scores: &'a [f64], live: &RowSet) -> AuditContext<'a> {
    AuditContext::from_parts(
        workers,
        scores,
        AuditConfig::default(),
        bin_column(scores),
        Some(live.clone()),
        None,
        0,
    )
    .unwrap()
}

/// The default layout's bin column of `scores`.
pub fn bin_column(scores: &[f64]) -> Arc<CodeColumn> {
    let bins = fairjob_hist::BinSpec::equal_width(0.0, 1.0, 10).unwrap();
    Arc::new(CodeColumn::from_values(10, &bins.bin_indices(scores)))
}

/// A scratch paged file, removed on drop. Named by test + params so
/// concurrent proptest cases never collide.
pub struct TempPaged(pub PathBuf);

impl TempPaged {
    /// Write `workers` and `scores` (restricted to `live`, when given)
    /// to a fresh paged file.
    pub fn write(tag: &str, workers: &Table, scores: &[f64], live: Option<&RowSet>) -> Self {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "fairjob-core-test-{}-{tag}.fjp",
            std::process::id()
        ));
        write_paged(&path, workers, Some(scores), live, 0, 10).unwrap();
        TempPaged(path)
    }
}

impl Drop for TempPaged {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}
