//! Errors of the serving layer.
//!
//! Protocol-visible failures ([`ServeError::code`]) render as
//! `ERR <code> <detail>` response lines; transport failures
//! ([`ServeError::Io`]) end the session or the accept loop.

use crate::protocol::{MAX_EPOCH_BYTES, MAX_LINE_BYTES};
use fairjob_stream::StreamError;
use std::fmt;

/// Errors from the resident audit daemon.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure (bind, accept, read, write).
    Io(std::io::Error),
    /// The bounded in-flight audit budget is exhausted — the typed
    /// admission-control rejection. The request was *not* queued;
    /// clients should back off and retry.
    Overloaded {
        /// Audits in flight when the request arrived.
        inflight: usize,
        /// The configured bound.
        max: usize,
    },
    /// Another session currently owns the writer role; only a single
    /// writer session may append epochs.
    WriterBusy {
        /// Session id of the current writer.
        owner: u64,
    },
    /// A previous epoch failed mid-application; the writer view may
    /// hold a partial epoch and has been retired. Readers keep serving
    /// the last published snapshot; appending requires a restart.
    WriterPoisoned,
    /// A malformed request line or epoch payload.
    Protocol(String),
    /// A request line or epoch payload record longer than
    /// [`MAX_LINE_BYTES`]. The framing is lost, so the server answers
    /// once and closes the session.
    LineTooLong,
    /// An `EPOCH` payload whose records add up to more than
    /// [`MAX_EPOCH_BYTES`]. The rest of the payload is never read, so
    /// the server answers once and closes the session.
    EpochTooLarge,
    /// A FairQL parse or analysis failure; `position` is the byte
    /// offset in the query text. Renders as
    /// `ERR parse <position> <message>`.
    Parse {
        /// Byte offset of the offending token in the query text.
        position: usize,
        /// What went wrong there.
        message: String,
    },
    /// A FairQL execution failure (the query was well-formed).
    Query(String),
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// Underlying stream-layer failure (event application, the
    /// writer's audits, snapshots).
    Stream(StreamError),
}

impl ServeError {
    /// Stable machine-readable code used in `ERR <code> …` responses.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::Io(_) => "io",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::WriterBusy { .. } => "writer-busy",
            ServeError::WriterPoisoned => "writer-poisoned",
            ServeError::Protocol(_) | ServeError::LineTooLong | ServeError::EpochTooLarge => {
                "usage"
            }
            ServeError::Parse { .. } => "parse",
            ServeError::Query(_) => "query",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Stream(_) => "stream",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Overloaded { inflight, max } => {
                write!(f, "audit budget exhausted: {inflight}/{max} in flight")
            }
            ServeError::WriterBusy { owner } => {
                write!(f, "session {owner} holds the writer role")
            }
            ServeError::WriterPoisoned => {
                write!(
                    f,
                    "writer view retired after a failed epoch; restart to append"
                )
            }
            ServeError::Protocol(msg) => write!(f, "{msg}"),
            ServeError::LineTooLong => {
                write!(f, "line longer than {MAX_LINE_BYTES} bytes; closing")
            }
            ServeError::EpochTooLarge => {
                write!(
                    f,
                    "EPOCH payload longer than {MAX_EPOCH_BYTES} bytes; closing"
                )
            }
            ServeError::Parse { position, message } => write!(f, "{position} {message}"),
            ServeError::Query(msg) => write!(f, "{msg}"),
            ServeError::ShuttingDown => write!(f, "server is draining"),
            ServeError::Stream(e) => write!(f, "stream: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}
