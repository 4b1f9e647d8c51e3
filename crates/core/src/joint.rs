//! Joint (two-function) audits (extension).
//!
//! The `hist::hist2d` example shows that a group can be treated fairly
//! by each scoring function *separately* while the joint distribution
//! differs completely (e.g. never strong on both tasks at once). This
//! module lifts the most-unfair-partitioning search to that joint view:
//! each partition is represented by the **2-D histogram** of its members'
//! `(score_a, score_b)` pairs and compared with the cityblock-ground
//! EMD, and a balanced-style greedy searches the attribute-subset space.
//!
//! The 2-D EMD needs the exact transportation solver (no closed form),
//! so joint audits are ~100× more expensive per pair than the 1-D audit;
//! the greedy here evaluates O(attributes²) candidate partitionings,
//! which stays interactive for the paper-scale populations.

use crate::context::{check_scores, AuditConfig, AuditContext};
use crate::error::AuditError;
use fairjob_hist::hist2d::{emd_2d, Histogram2d};
use fairjob_hist::BinSpec;
use fairjob_store::index::IndexSet;
use fairjob_store::{Predicate, RowSet, Table};
use std::time::{Duration, Instant};

/// One group in a joint audit.
#[derive(Debug, Clone)]
pub struct JointPartition {
    /// Defining constraints.
    pub predicate: Predicate,
    /// Member rows.
    pub rows: RowSet,
    /// Joint histogram of the members' two scores.
    pub histogram: Histogram2d,
}

impl JointPartition {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Result of a joint audit.
#[derive(Debug, Clone)]
pub struct JointAuditResult {
    /// The most-unfair partitioning found (greedy over attribute
    /// subsets).
    pub partitions: Vec<JointPartition>,
    /// Average pairwise 2-D EMD of that partitioning.
    pub unfairness: f64,
    /// Attributes split on (schema indexes, sorted).
    pub attributes_used: Vec<usize>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// The joint-audit evaluation context: two row-aligned score vectors.
pub struct JointAuditContext<'a> {
    table: &'a Table,
    scores_a: &'a [f64],
    scores_b: &'a [f64],
    spec: BinSpec,
    attributes: Vec<usize>,
    indexes: IndexSet,
    /// Precomputed per-axis bin indices (`bin_a[row]` = the x-axis bin
    /// of the row's first score), so the 2-D histogram path bumps cells
    /// directly instead of re-binning floats per partition.
    bin_a: Vec<u32>,
    bin_b: Vec<u32>,
}

impl<'a> JointAuditContext<'a> {
    /// Validate and build. Both score vectors must be row-aligned with
    /// `table` and lie in `[0, 1]`; `bins` is the per-axis bin count
    /// (the joint grid has `bins²` cells — keep it modest, the default
    /// audit uses 8).
    ///
    /// # Errors
    ///
    /// The same validation failures, in the same order, as
    /// [`crate::AuditContext::new`].
    pub fn new(
        table: &'a Table,
        scores_a: &'a [f64],
        scores_b: &'a [f64],
        bins: usize,
    ) -> Result<Self, AuditError> {
        let (spec, attributes) = AuditContext::validate(
            table.schema(),
            table.len(),
            &[scores_a.len(), scores_b.len()],
            None,
            &AuditConfig::with_bins(bins),
        )?;
        check_scores(0, scores_a)?;
        check_scores(0, scores_b)?;
        let indexes = IndexSet::build(table, &attributes)?;
        let bin_a: Vec<u32> = scores_a.iter().map(|&s| spec.bin_index(s) as u32).collect();
        let bin_b: Vec<u32> = scores_b.iter().map(|&s| spec.bin_index(s) as u32).collect();
        Ok(JointAuditContext {
            table,
            scores_a,
            scores_b,
            spec,
            attributes,
            indexes,
            bin_a,
            bin_b,
        })
    }

    /// The audited table.
    pub fn table(&self) -> &Table {
        self.table
    }

    /// The first per-row score vector (x axis of the joint grid).
    pub fn scores_a(&self) -> &[f64] {
        self.scores_a
    }

    /// The second per-row score vector (y axis of the joint grid).
    pub fn scores_b(&self) -> &[f64] {
        self.scores_b
    }

    /// Joint histogram of a row set, built from the precomputed per-axis
    /// bin indices (no per-row float binning).
    pub fn histogram(&self, rows: &RowSet) -> Histogram2d {
        let mut h = Histogram2d::empty(self.spec.clone(), self.spec.clone());
        for row in rows.iter() {
            h.add_cell(self.bin_a[row] as usize, self.bin_b[row] as usize);
        }
        h
    }

    fn partition(&self, predicate: Predicate, rows: RowSet) -> JointPartition {
        let histogram = self.histogram(&rows);
        JointPartition {
            predicate,
            rows,
            histogram,
        }
    }

    /// Average pairwise 2-D EMD over non-empty partitions.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the solver.
    pub fn unfairness(&self, parts: &[JointPartition]) -> Result<f64, AuditError> {
        let live: Vec<&JointPartition> = parts.iter().filter(|p| !p.is_empty()).collect();
        if live.len() < 2 {
            return Ok(0.0);
        }
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..live.len() {
            for j in i + 1..live.len() {
                sum += emd_2d(&live[i].histogram, &live[j].histogram)?;
                pairs += 1;
            }
        }
        Ok(sum / pairs as f64)
    }

    fn split_all(&self, parts: &[JointPartition], attr: usize) -> Vec<JointPartition> {
        let mut out = Vec::with_capacity(parts.len() * 2);
        for p in parts {
            let splittable = !p.predicate.constrains(attr);
            let groups = if splittable {
                self.indexes
                    .get(attr)
                    .map(|idx| idx.split(&p.rows))
                    .unwrap_or_default()
            } else {
                Vec::new()
            };
            if groups.len() <= 1 {
                out.push(p.clone());
            } else {
                for (code, rows) in groups {
                    out.push(self.partition(p.predicate.and(attr, code), rows));
                }
            }
        }
        out
    }

    /// Balanced-style greedy joint audit: repeatedly split every
    /// partition on the attribute that maximises the joint unfairness,
    /// stopping when no attribute strictly improves it.
    ///
    /// # Errors
    ///
    /// [`AuditError::Distance`] from the solver.
    pub fn balanced_greedy(&self) -> Result<JointAuditResult, AuditError> {
        let start = Instant::now();
        let mut current = vec![self.partition(Predicate::always(), RowSet::all(self.table.len()))];
        let mut current_value = 0.0;
        let mut remaining: Vec<usize> = self.attributes.clone();
        loop {
            let mut best: Option<(usize, Vec<JointPartition>, f64)> = None;
            for &a in &remaining {
                let candidate = self.split_all(&current, a);
                if candidate.len() == current.len() {
                    continue;
                }
                let value = self.unfairness(&candidate)?;
                if best.as_ref().is_none_or(|(_, _, b)| value > *b) {
                    best = Some((a, candidate, value));
                }
            }
            let Some((a, candidate, value)) = best else {
                break;
            };
            if value <= current_value + 1e-15 {
                break;
            }
            remaining.retain(|&x| x != a);
            current = candidate;
            current_value = value;
        }
        let mut attributes_used: Vec<usize> = current
            .iter()
            .flat_map(|p| p.predicate.constraints().iter().map(|c| c.attr))
            .collect();
        attributes_used.sort_unstable();
        attributes_used.dedup();
        Ok(JointAuditResult {
            partitions: current,
            unfairness: current_value,
            attributes_used,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairjob_marketplace::{bucketise_numeric_protected, generate_uniform};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scores where gender determines the joint structure (diagonal vs
    /// anti-diagonal) but both marginals are identical across genders.
    fn joint_biased_population() -> (fairjob_store::Table, Vec<f64>, Vec<f64>) {
        let mut workers = generate_uniform(600, 71);
        bucketise_numeric_protected(&mut workers).unwrap();
        let gender = workers.schema().index_of("gender").unwrap();
        let codes = workers.column(gender).as_categorical().unwrap().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = Vec::with_capacity(workers.len());
        let mut b = Vec::with_capacity(workers.len());
        for &code in &codes {
            let base: f64 = rng.gen();
            a.push(base);
            b.push(if code == 0 { base } else { 1.0 - base });
        }
        (workers, a, b)
    }

    #[test]
    fn joint_audit_finds_marginal_invisible_bias() {
        let (workers, a, b) = joint_biased_population();
        // 1-D audits of either function restricted to gender: ~nothing.
        let cfg = crate::AuditConfig {
            attributes: Some(vec!["gender".into()]),
            ..Default::default()
        };
        let ctx1 = crate::AuditContext::new(&workers, &a, cfg).unwrap();
        let genders = ctx1.split(&ctx1.root(), 0).unwrap();
        let marginal = ctx1.unfairness(&genders).unwrap();
        assert!(marginal < 0.05, "marginals should look fair: {marginal}");

        // The joint audit localises the bias on gender with a large gap.
        let jctx = JointAuditContext::new(&workers, &a, &b, 8).unwrap();
        let result = jctx.balanced_greedy().unwrap();
        let gender = workers.schema().index_of("gender").unwrap();
        assert!(
            result.attributes_used.contains(&gender),
            "joint audit should split on gender: {:?}",
            result.attributes_used
        );
        assert!(
            result.unfairness > 10.0 * marginal.max(0.01),
            "joint {} vs marginal {marginal}",
            result.unfairness
        );
    }

    #[test]
    fn validation() {
        let (workers, a, b) = joint_biased_population();
        assert!(matches!(
            JointAuditContext::new(&workers, &a[..5], &b, 8),
            Err(AuditError::ScoreLength { .. })
        ));
        let mut bad = a.clone();
        bad[0] = 2.0;
        assert!(matches!(
            JointAuditContext::new(&workers, &bad, &b, 8),
            Err(AuditError::BadScore { .. })
        ));
        assert!(matches!(
            JointAuditContext::new(&workers, &a, &b, 0),
            Err(AuditError::Bins(_))
        ));
    }

    #[test]
    fn single_partition_unfairness_is_zero() {
        let (workers, a, b) = joint_biased_population();
        let jctx = JointAuditContext::new(&workers, &a, &b, 6).unwrap();
        let root = jctx.partition(Predicate::always(), RowSet::all(workers.len()));
        assert_eq!(jctx.unfairness(&[root]).unwrap(), 0.0);
    }

    #[test]
    fn unbiased_scores_show_only_noise_on_gender() {
        // Both functions identical and independent of gender: the
        // gender split's joint unfairness is sampling noise, far below
        // the designed diagonal/anti-diagonal case (~1.0).
        let mut workers = generate_uniform(400, 72);
        bucketise_numeric_protected(&mut workers).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let a: Vec<f64> = (0..workers.len()).map(|_| rng.gen()).collect();
        let jctx = JointAuditContext::new(&workers, &a, &a, 6).unwrap();
        let gender = workers.schema().index_of("gender").unwrap();
        let root = jctx.partition(Predicate::always(), RowSet::all(workers.len()));
        let genders = jctx.split_all(&[root], gender);
        assert_eq!(genders.len(), 2);
        let noise = jctx.unfairness(&genders).unwrap();
        assert!(
            noise < 0.15,
            "gender split of unbiased joint scores: {noise}"
        );

        // The designed case on the same population for contrast.
        let codes = workers.column(gender).as_categorical().unwrap().to_vec();
        let b: Vec<f64> = codes
            .iter()
            .zip(&a)
            .map(|(&c, &x)| if c == 0 { x } else { 1.0 - x })
            .collect();
        let jctx2 = JointAuditContext::new(&workers, &a, &b, 6).unwrap();
        let root2 = jctx2.partition(Predicate::always(), RowSet::all(workers.len()));
        let genders2 = jctx2.split_all(&[root2], gender);
        let designed = jctx2.unfairness(&genders2).unwrap();
        assert!(
            designed > 5.0 * noise,
            "designed {designed} vs noise {noise}"
        );
    }
}
