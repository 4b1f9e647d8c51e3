//! `fairjob-serve`: a resident audit daemon for the streaming fairness
//! auditor.
//!
//! The offline pipeline answers one audit per process; a marketplace
//! wants the audit *resident*: events keep arriving, and analysts ask
//! "how unfair is ranking right now?" without paying a cold rebuild.
//! This crate keeps a [`fairjob_stream::StreamAuditor`] alive behind a
//! dependency-free TCP daemon speaking the line-delimited
//! [`protocol::PROTOCOL_HEADER`] protocol:
//!
//! - a single **writer** session appends epochs through the warm
//!   incremental path (`EPOCH <k>` + `k` record lines in the
//!   `fairjob-events v1` grammar); the writer audits the starting
//!   epoch at [`Server::start`] and every epoch it applies;
//! - each audited epoch is published in one `Arc` swap: the
//!   [`fairjob_stream::StreamSnapshot`] together with the `AUDIT` reply
//!   rendered from the writer's report. A reader `AUDIT` returns that
//!   reply, so it runs no audit, needs no admission permit, never
//!   blocks ingest and never observes a half-applied epoch — results
//!   are bit-identical to a cold offline audit of the same epoch;
//! - `QUERY <fairql>` runs FairQL statements (`AUDIT`/`SELECT`/
//!   `DESCRIBE`/`EXPLAIN`) against the published snapshot, with FairQL
//!   caches held per session and parse failures answered as
//!   `ERR parse <byte-offset> <message>`;
//! - [`AdmissionGate`] bounds in-flight `QUERY`s, the verb that still
//!   runs audits, with a typed `ERR overloaded` rejection instead of
//!   unbounded queueing;
//! - request lines are bounded by [`protocol::MAX_LINE_BYTES`], and
//!   the records of one `EPOCH` payload by [`protocol::MAX_EPOCH_BYTES`];
//! - `METRICS`/`HEALTH` expose server counters and
//!   [`fairjob_core::EngineStats`] totals of the writer's and
//!   `QUERY`'s audits.
//!
//! Start one with [`Server::start`]; drive it with [`ServeClient`] or
//! `fairjob serve` from the CLI.

pub mod admission;
pub mod client;
pub mod error;
pub mod protocol;
pub mod server;

pub use admission::{AdmissionGate, AdmissionPermit};
pub use client::ServeClient;
pub use error::ServeError;
pub use server::{ServeConfig, Server};
