//! The crowdsourcing-platform event loop.
//!
//! A minimal but realistic simulation of the marketplace the paper
//! audits: requesters post tasks, each task ranks the worker pool with
//! its qualification function, and the platform records who was shown
//! where. The resulting logs feed the audit layer: scores per task, and
//! accumulated exposure for `fairjob_core::exposure`.

use crate::ranking::{accumulate_exposure, rank, ExposureModel, Ranked};
use crate::scoring::{ScoreError, ScoringFunction};
use fairjob_store::Table;

/// A task posted to the platform.
pub struct Task {
    /// Task identifier.
    pub id: u64,
    /// Human-readable title ("help with HTML/CSS", "assemble furniture").
    pub title: String,
    /// The qualification function used to rank workers for this task.
    pub scorer: Box<dyn ScoringFunction>,
    /// How many workers the requester sees.
    pub top_k: usize,
}

/// What the platform recorded for one task.
#[derive(Debug, Clone)]
pub struct RankingLog {
    /// The task id.
    pub task_id: u64,
    /// The scoring-function name used.
    pub function: String,
    /// Scores for every worker (row-aligned with the table).
    pub scores: Vec<f64>,
    /// The top-k ranking that was shown.
    pub shown: Vec<Ranked>,
}

/// The simulated platform: a worker pool plus accumulated logs.
pub struct Platform {
    workers: Table,
    exposure_model: ExposureModel,
    exposure: Vec<f64>,
    logs: Vec<RankingLog>,
    next_task_id: u64,
}

impl Platform {
    /// Create a platform over a worker pool.
    pub fn new(workers: Table, exposure_model: ExposureModel) -> Self {
        let n = workers.len();
        Platform {
            workers,
            exposure_model,
            exposure: vec![0.0; n],
            logs: Vec::new(),
            next_task_id: 0,
        }
    }

    /// The worker pool.
    pub fn workers(&self) -> &Table {
        &self.workers
    }

    /// Post a task: scores all workers, records the shown ranking and
    /// its exposure, and returns the log entry.
    ///
    /// # Errors
    ///
    /// [`ScoreError`] when the task's scoring function cannot evaluate
    /// the worker table.
    pub fn post_task(
        &mut self,
        title: &str,
        scorer: &dyn ScoringFunction,
        top_k: usize,
    ) -> Result<&RankingLog, ScoreError> {
        let scores = scorer.score_all(&self.workers)?;
        let shown = rank(&scores, Some(top_k));
        accumulate_exposure(&shown, self.exposure_model, &mut self.exposure);
        let log = RankingLog {
            task_id: self.next_task_id,
            function: scorer.name().to_string(),
            scores,
            shown,
        };
        self.next_task_id += 1;
        let _ = title; // titles are informational; kept in the signature for callers' logs
        self.logs.push(log);
        Ok(self.logs.last().expect("just pushed"))
    }

    /// All logs so far.
    pub fn logs(&self) -> &[RankingLog] {
        &self.logs
    }

    /// Accumulated exposure per worker row.
    pub fn exposure(&self) -> &[f64] {
        &self.exposure
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_uniform;
    use crate::scoring::LinearScore;

    #[test]
    fn post_task_logs_and_ranks() {
        let mut p = Platform::new(generate_uniform(50, 1), ExposureModel::Logarithmic);
        let f = LinearScore::alpha("f1", 0.5);
        let log = p.post_task("quickstart gig", &f, 10).unwrap();
        assert_eq!(log.task_id, 0);
        assert_eq!(log.function, "f1");
        assert_eq!(log.scores.len(), 50);
        assert_eq!(log.shown.len(), 10);
        // Shown ranking is sorted descending.
        for w in log.shown.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn exposure_accumulates_across_tasks() {
        let mut p = Platform::new(generate_uniform(30, 2), ExposureModel::TopK { k: 5 });
        let f = LinearScore::alpha("f4", 1.0);
        p.post_task("a", &f, 5).unwrap();
        p.post_task("b", &f, 5).unwrap();
        let total: f64 = p.exposure().iter().sum();
        assert!((total - 10.0).abs() < 1e-9); // 2 tasks x 5 slots x weight 1
        assert_eq!(p.logs().len(), 2);
    }

    #[test]
    fn task_ids_increment() {
        let mut p = Platform::new(generate_uniform(10, 4), ExposureModel::Reciprocal);
        let f = LinearScore::alpha("f1", 0.5);
        assert_eq!(p.post_task("a", &f, 3).unwrap().task_id, 0);
        assert_eq!(p.post_task("b", &f, 3).unwrap().task_id, 1);
    }
}
