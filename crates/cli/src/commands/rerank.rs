//! `fairjob rerank` — quota-constrained re-ranking of a scored top-k
//! list: show what the displayed ranking looks like after enforcing
//! proportional representation on one protected attribute.

use crate::args::Args;
use crate::CliError;
use fairjob_marketplace::ranking::rank;
use fairjob_repair::rerank::{first_quota_violation, rerank_proportional, RankedItem};

/// The flags `fairjob rerank` accepts; any other `--flag` is a usage error.
const FLAGS: &[&str] = &[
    "workers",
    "schema",
    "function",
    "alpha",
    "attribute",
    "quota",
    "top",
    "seed",
];

/// Run the subcommand; returns the before/after rendering.
///
/// # Errors
///
/// [`CliError`] on bad flags or re-ranking failure.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv, FLAGS)?;
    let workers =
        crate::commands::load_workers(args.required("workers")?, args.optional("schema"))?;
    let seed: u64 = args.parsed_or("seed", 0xBEEF)?;
    let scorer =
        crate::commands::resolve_scorer(args.optional("function"), args.optional("alpha"), seed)?;
    let attribute = args.optional("attribute").unwrap_or("gender");
    let alpha: f64 = args.parsed_or("quota", 1.0)?;
    let k: usize = args.parsed_or("top", 20)?;

    let attr_idx = workers
        .schema()
        .index_of(attribute)
        .map_err(|e| CliError::Usage(format!("--attribute: {e}")))?;
    let cardinality = workers
        .schema()
        .attribute(attr_idx)
        .cardinality()
        .ok_or_else(|| CliError::Usage(format!("`{attribute}` is not categorical")))?
        as u32;

    let scores = scorer
        .score_all(&workers)
        .map_err(|e| CliError::Run(format!("scoring with {}: {e}", scorer.name())))?;
    // Re-rank the FULL ranking so quotas reflect population shares and
    // excluded groups can actually be surfaced; display the top-k.
    let full = rank(&scores, None);
    let items: Vec<RankedItem> = full
        .iter()
        .map(|r| {
            Ok(RankedItem {
                id: r.row,
                score: r.score,
                group: workers
                    .code_at(attr_idx, r.row as usize)
                    .map_err(|e| CliError::Run(e.to_string()))?,
            })
        })
        .collect::<Result<_, CliError>>()?;
    let reranked = rerank_proportional(&items, cardinality, alpha)
        .map_err(|e| CliError::Run(format!("rerank: {e}")))?;

    let label = |code: u32| -> String {
        workers
            .schema()
            .attribute(attr_idx)
            .label_of(code)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = format!(
        "top-{k} for {} re-ranked with quota {alpha} on `{attribute}`\n\n{:<5} {:<28} {:<28}\n",
        scorer.name(),
        "pos",
        "before",
        "after"
    );
    for (pos, (before, after)) in items.iter().zip(&reranked).take(k).enumerate() {
        out.push_str(&format!(
            "{:<5} {:<28} {:<28}\n",
            pos + 1,
            format!(
                "#{} {} ({:.3})",
                before.id,
                label(before.group),
                before.score
            ),
            format!("#{} {} ({:.3})", after.id, label(after.group), after.score),
        ));
    }
    out.push_str(&format!(
        "\nquota check before: {}\nquota check after:  {}\n",
        match first_quota_violation(&items, cardinality, alpha) {
            Some((prefix, group)) =>
                format!("violated at prefix {prefix} (group {})", label(group)),
            None => "satisfied".to_string(),
        },
        match first_quota_violation(&reranked, cardinality, alpha) {
            Some((prefix, group)) =>
                format!("violated at prefix {prefix} (group {})", label(group)),
            None => "satisfied".to_string(),
        }
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::testutil::{argv, TempFile};

    fn population() -> TempFile {
        let tmp = TempFile::new("rerank.csv");
        crate::commands::generate::run(&argv(&["--size", "150", "--out", &tmp.path_str()]))
            .unwrap();
        tmp
    }

    #[test]
    fn reranks_biased_top_list() {
        let tmp = population();
        let out = run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f6",
            "--attribute",
            "gender",
            "--top",
            "10",
        ]))
        .unwrap();
        // f6 puts only males on top; before violates, after satisfies.
        assert!(out.contains("quota check before: violated"));
        assert!(out.contains("quota check after:  satisfied"));
        assert!(
            out.contains("Female"),
            "re-ranked list must surface females:\n{out}"
        );
    }

    #[test]
    fn bad_attribute_rejected() {
        let tmp = population();
        assert!(run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f6",
            "--attribute",
            "approval_rate",
        ]))
        .is_err());
        assert!(run(&argv(&[
            "--workers",
            &tmp.path_str(),
            "--function",
            "f6",
            "--attribute",
            "nope",
        ]))
        .is_err());
    }
}
