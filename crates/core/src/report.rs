//! Audit results and their human-readable / machine-readable rendering.

use crate::engine::EngineStats;
use crate::partition::Partitioning;
use crate::AuditContext;
use std::time::Duration;

/// Minimal JSON string escaping (the workspace deliberately carries no
/// serialisation crates; audit reports are flat enough to emit by hand).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The outcome of running one algorithm on one audit context.
#[derive(Debug, Clone)]
pub struct AuditResult {
    /// Which algorithm produced this result (`"balanced"`, …).
    pub algorithm: String,
    /// The most-unfair partitioning the algorithm found.
    pub partitioning: Partitioning,
    /// `unfairness(P, f)` of that partitioning — the average pairwise
    /// histogram distance reported in the paper's tables.
    pub unfairness: f64,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// How many candidate partitionings the algorithm evaluated (the
    /// driver of the runtime differences in Tables 1–2).
    pub candidates_evaluated: usize,
    /// Evaluation-engine counters for the run: distances actually
    /// computed and memo-cache hits, splits computed from the cell cube,
    /// split-cache hits, histograms built, and the rows read into the
    /// cube. All zero for algorithms that do not route through
    /// [`crate::EvalEngine`].
    pub engine: EngineStats,
}

impl AuditResult {
    /// Render a report in the style of Figure 1: the unfairness value
    /// followed by one line per partition (predicate, size, score mean)
    /// and optionally the per-partition histograms.
    pub fn render(&self, ctx: &AuditContext<'_>, with_histograms: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "algorithm: {}\nunfairness (avg pairwise {}): {:.4}\npartitions: {}\nattributes used: {}\nelapsed: {:?}\n",
            self.algorithm,
            ctx.distance().name(),
            self.unfairness,
            self.partitioning.len(),
            self.partitioning
                .attributes_used()
                .iter()
                .map(|&a| ctx.schema().attribute(a).name.clone())
                .collect::<Vec<_>>()
                .join(", "),
            self.elapsed,
        ));
        if self.engine.lookups() > 0 {
            out.push_str(&format!(
                "engine: {} distances computed, {} cache hits\n",
                self.engine.distances_computed, self.engine.cache_hits,
            ));
        }
        if self.engine.split_lookups() > 0 {
            out.push_str(&format!(
                "splits: {} computed, {} cache hits, {} rows scanned, {} histograms built\n",
                self.engine.splits_computed,
                self.engine.split_cache_hits,
                self.engine.rows_scanned,
                self.engine.histograms_built,
            ));
        }
        if self.engine.cache_evictions + self.engine.split_evictions > 0 {
            out.push_str(&format!(
                "evictions: {} distance entries, {} split entries\n",
                self.engine.cache_evictions, self.engine.split_evictions,
            ));
        }
        if self.engine.bounds_screened + self.engine.exact_solves + self.engine.pool_tasks > 0 {
            out.push_str(&format!(
                "bounds: {} pairs screened, {} exact solves, {} pool tasks\n",
                self.engine.bounds_screened, self.engine.exact_solves, self.engine.pool_tasks,
            ));
        }
        if self.engine.column_scored + self.engine.column_ties > 0 {
            out.push_str(&format!(
                "columns: {} candidates scored, {} ties\n",
                self.engine.column_scored, self.engine.column_ties,
            ));
        }
        if self.engine.ground_cache_hits + self.engine.scratch_reuses + self.engine.warm_starts > 0
        {
            out.push_str(&format!(
                "solver: {} ground cache hits, {} scratch reuses, {} warm starts\n",
                self.engine.ground_cache_hits, self.engine.scratch_reuses, self.engine.warm_starts,
            ));
        }
        if self.engine.shard_tasks > 0 {
            out.push_str(&format!(
                "shards: {} shard tasks, {} rows classified in parallel\n",
                self.engine.shard_tasks, self.engine.rows_classified_parallel,
            ));
        }
        if self.engine.page_hits + self.engine.page_misses + self.engine.pages_skipped > 0 {
            out.push_str(&format!(
                "pages: {} scanned, {} skipped, {} cache hits, {} misses, {} evictions\n",
                self.engine.pages_scanned,
                self.engine.pages_skipped,
                self.engine.page_hits,
                self.engine.page_misses,
                self.engine.page_evictions,
            ));
        }
        let mut parts: Vec<&crate::Partition> = self.partitioning.partitions().iter().collect();
        parts.sort_by_key(|p| std::cmp::Reverse(p.len()));
        for p in parts {
            let mean = p
                .histogram
                .mean()
                .map(|m| format!("{m:.3}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "  {:<60} mean score {}\n",
                p.describe_in(ctx.schema()),
                mean
            ));
            if with_histograms {
                for line in p.histogram.render_ascii(30).lines() {
                    out.push_str(&format!("    {line}\n"));
                }
            }
        }
        out
    }
}

impl AuditResult {
    /// Machine-readable JSON rendering of the result (stable field
    /// names; one object, no trailing newline). `unfairness` is the
    /// shortest decimal that reads back as the same `f64`, and
    /// `unfairness_bits` its 16 hex digits, as `fairjob query` prints
    /// them.
    pub fn to_json(&self, ctx: &AuditContext<'_>) -> String {
        let schema = ctx.schema();
        let attributes: Vec<String> = self
            .partitioning
            .attributes_used()
            .iter()
            .map(|&a| format!("\"{}\"", json_escape(&schema.attribute(a).name)))
            .collect();
        let partitions: Vec<String> = self
            .partitioning
            .partitions()
            .iter()
            .map(|p| {
                let constraints: Vec<String> = p
                    .predicate
                    .constraints()
                    .iter()
                    .map(|c| {
                        let attr = schema.attribute(c.attr);
                        format!(
                            "{{\"attribute\":\"{}\",\"value\":\"{}\"}}",
                            json_escape(&attr.name),
                            json_escape(attr.label_of(c.code).unwrap_or("?"))
                        )
                    })
                    .collect();
                let mean = p
                    .histogram
                    .mean()
                    .map(|m| format!("{m:.6}"))
                    .unwrap_or_else(|| "null".into());
                format!(
                    "{{\"constraints\":[{}],\"size\":{},\"mean_score\":{}}}",
                    constraints.join(","),
                    p.len(),
                    mean
                )
            })
            .collect();
        // Engine counters come from `EngineStats::as_pairs` so a counter
        // added to the struct appears here without touching this file.
        let engine: Vec<String> = self
            .engine
            .as_pairs()
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!(
            "{{\"algorithm\":\"{}\",\"distance\":\"{}\",\"unfairness\":{},\"unfairness_bits\":\"{:016x}\",\"elapsed_ms\":{:.3},\"candidates_evaluated\":{},\"engine\":{{{}}},\"attributes_used\":[{}],\"partitions\":[{}]}}",
            json_escape(&self.algorithm),
            json_escape(ctx.distance().name()),
            self.unfairness,
            self.unfairness.to_bits(),
            self.elapsed.as_secs_f64() * 1000.0,
            self.candidates_evaluated,
            engine.join(","),
            attributes.join(","),
            partitions.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AuditConfig, AuditContext};
    use fairjob_marketplace::toy::toy_workers;

    #[test]
    fn render_mentions_key_fields() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let unfairness = ctx.unfairness(&genders).unwrap();
        let result = AuditResult {
            algorithm: "test".into(),
            partitioning: Partitioning::new(genders),
            unfairness,
            elapsed: Duration::from_millis(1),
            candidates_evaluated: 1,
            engine: EngineStats {
                distances_computed: 4,
                cache_hits: 96,
                splits_computed: 5,
                split_cache_hits: 11,
                rows_scanned: 320,
                histograms_built: 12,
                cache_evictions: 2,
                split_evictions: 0,
                bounds_screened: 40,
                exact_solves: 6,
                column_scored: 10,
                column_ties: 1,
                pool_tasks: 3,
                ground_cache_hits: 14,
                scratch_reuses: 13,
                warm_starts: 7,
                shard_tasks: 6,
                rows_classified_parallel: 320,
                page_hits: 9,
                page_misses: 4,
                page_evictions: 1,
                pages_skipped: 8,
                pages_scanned: 13,
            },
        };
        let text = result.render(&ctx, false);
        assert!(text.contains("algorithm: test"));
        assert!(text.contains("engine: 4 distances computed, 96 cache hits\n"));
        assert!(text
            .contains("splits: 5 computed, 11 cache hits, 320 rows scanned, 12 histograms built"));
        assert!(text.contains("evictions: 2 distance entries, 0 split entries"));
        assert!(text.contains("bounds: 40 pairs screened, 6 exact solves, 3 pool tasks"));
        assert!(text.contains("columns: 10 candidates scored, 1 ties"));
        assert!(text.contains("solver: 14 ground cache hits, 13 scratch reuses, 7 warm starts"));
        assert!(text.contains("shards: 6 shard tasks, 320 rows classified in parallel"));
        assert!(text.contains("pages: 13 scanned, 8 skipped, 9 cache hits, 4 misses, 1 evictions"));
        assert!(text.contains("0.5000"));
        assert!(text.contains("gender=Male"));
        assert!(text.contains("gender=Female"));
        let with_hists = result.render(&ctx, true);
        assert!(with_hists.len() > text.len());
        assert!(with_hists.contains('#'));
    }

    #[test]
    fn json_structure() {
        let (t, scores) = toy_workers();
        let ctx = AuditContext::new(&t, &scores, AuditConfig::default()).unwrap();
        let genders = ctx.split(&ctx.root(), 0).unwrap();
        let unfairness = ctx.unfairness(&genders).unwrap();
        let result = AuditResult {
            algorithm: "test\"quoted".into(),
            partitioning: Partitioning::new(genders),
            unfairness,
            elapsed: Duration::from_millis(2),
            candidates_evaluated: 3,
            engine: EngineStats {
                distances_computed: 7,
                cache_hits: 2,
                splits_computed: 4,
                split_cache_hits: 9,
                rows_scanned: 250,
                histograms_built: 8,
                cache_evictions: 0,
                split_evictions: 3,
                bounds_screened: 20,
                exact_solves: 5,
                column_scored: 6,
                column_ties: 0,
                pool_tasks: 2,
                ground_cache_hits: 12,
                scratch_reuses: 10,
                warm_starts: 4,
                shard_tasks: 6,
                rows_classified_parallel: 250,
                page_hits: 21,
                page_misses: 7,
                page_evictions: 2,
                pages_skipped: 11,
                pages_scanned: 17,
            },
        };
        let json = result.to_json(&ctx);
        // Balanced braces/brackets and escaped quote.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\\\"quoted"));
        // Full precision: the printed value reads back as the same f64,
        // and the bits are printed beside it.
        let printed = json
            .split("\"unfairness\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .unwrap();
        assert_eq!(
            printed.parse::<f64>().unwrap().to_bits(),
            unfairness.to_bits()
        );
        assert!(json.contains(&format!(
            "\"unfairness_bits\":\"{:016x}\"",
            unfairness.to_bits()
        )));
        assert!(json.contains("\"attribute\":\"gender\""));
        assert!(json.contains("\"value\":\"Male\""));
        assert!(json.contains("\"candidates_evaluated\":3"));
        assert!(json.contains(
            "\"engine\":{\"distances_computed\":7,\"cache_hits\":2,\"splits_computed\":4,\"split_cache_hits\":9,\"rows_scanned\":250,\"histograms_built\":8,\"cache_evictions\":0,\"split_evictions\":3,\"bounds_screened\":20,\"exact_solves\":5,\"column_scored\":6,\"column_ties\":0,\"pool_tasks\":2,\"ground_cache_hits\":12,\"scratch_reuses\":10,\"warm_starts\":4,\"shard_tasks\":6,\"rows_classified_parallel\":250,\"page_hits\":21,\"page_misses\":7,\"page_evictions\":2,\"pages_skipped\":11,\"pages_scanned\":17}"
        ));
        // Structural completeness: every counter as_pairs knows about is
        // present in the JSON by name.
        for (name, _) in result.engine.as_pairs() {
            assert!(json.contains(&format!("\"{name}\":")), "missing {name}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn json_escape_covers_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\te\r"), "a\\\"b\\\\c\\nd\\te\\r");
        assert_eq!(json_escape("\u{01}"), "\\u0001");
    }
}
