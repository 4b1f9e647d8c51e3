//! Simulation of an online job marketplace / crowdsourcing platform.
//!
//! The paper evaluates its unfairness-exploration algorithms on "a
//! simulation of a crowdsourcing platform using two sets of active
//! workers and various scoring functions". This crate is that platform:
//!
//! * [`schema`] — the paper's worker schema: six protected attributes
//!   (Gender, Country, Year of Birth, Language, Ethnicity, Years of
//!   Experience) and two observed attributes (LanguageTest,
//!   ApprovalRate), plus the ≤5-value bucketisation of the numeric
//!   protected attributes that splitting requires.
//! * [`generate`] — population generators: uniform-at-random (the paper's
//!   setting, "to avoid injecting any bias in the data ourselves") and a
//!   correlated generator standing in for real marketplace data.
//! * [`scoring`] — task-qualification functions: the linear family
//!   `f = α·LanguageTest + (1-α)·ApprovalRate` (f1–f5) and the
//!   biased-by-design rule-based functions f6–f9 of the qualitative
//!   experiment.
//! * [`ranking`] — top-k ranking with deterministic tie-breaking and
//!   position-bias exposure accounting.
//! * [`platform`] — a task event loop producing ranking logs and
//!   accumulated exposure, the input of exposure audits (Singh &
//!   Joachims, "Fairness of Exposure in Rankings").
//! * [`hiring`] — multi-round hiring with reputation feedback, the loop
//!   through which ranking bias compounds (Sühr et al., "Does Fair
//!   Ranking Improve Minority Outcomes?").
//! * [`toy`] — the reconstructed 10-worker toy example of Figure 1.

pub mod generate;
pub mod hiring;
pub mod platform;
pub mod ranking;
pub mod schema;
pub mod scoring;
pub mod stream;
pub mod toy;

pub use generate::{generate_correlated, generate_uniform, CorrelationConfig};
pub use schema::{amt_schema, bucketise_numeric_protected};
pub use scoring::{LinearScore, RuleBasedScore, ScoreError, ScoringFunction};
pub use stream::{generate_stream, Event, EventLog, StreamConfig, StreamScenario};
