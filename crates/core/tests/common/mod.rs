//! Helpers shared by the core integration suites (each uses a subset).
#![allow(dead_code)]

use fairjob_core::algorithms::{
    balanced::Balanced, unbalanced::Unbalanced, Algorithm, AttributeChoice,
};
use fairjob_core::{AuditConfig, AuditContext, AuditResult};
use fairjob_marketplace::scoring::{LinearScore, RuleBasedScore, ScoringFunction};
use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
use fairjob_store::{ShardPolicy, Table};

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

/// The default config at a shard layout and thread count.
pub fn layout(shards: ShardPolicy, threads: usize) -> AuditConfig {
    AuditConfig {
        shards,
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

/// [`worst_audit`] of an in-memory context at a layout.
pub fn run_mem(
    workers: &Table,
    scores: &[f64],
    shards: ShardPolicy,
    threads: usize,
    balanced: bool,
) -> AuditResult {
    let ctx = AuditContext::new(workers, scores, layout(shards, threads)).unwrap();
    worst_audit(&ctx, balanced)
}
