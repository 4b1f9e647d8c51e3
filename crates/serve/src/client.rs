//! A small blocking client for the `fairjob-serve v1` protocol, used
//! by the load bench, the integration tests, and scripted drivers.

use crate::error::ServeError;
use crate::protocol::{self, PROTOCOL_HEADER};
use fairjob_marketplace::stream::Event;
use fairjob_store::schema::Schema;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One protocol session over TCP. Request methods return the raw
/// response line (`OK …`) so callers can pull fields with
/// [`protocol::kv`]; `ERR` responses become [`ServeError::Protocol`]
/// carrying the full line.
#[derive(Debug)]
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connect and consume the version greeting.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on connect failure, or
    /// [`ServeError::Protocol`] when the greeting is not
    /// `fairjob-serve v1`.
    pub fn connect(addr: SocketAddr) -> Result<Self, ServeError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader.read_line(&mut greeting)?;
        if greeting.trim_end() != PROTOCOL_HEADER {
            return Err(ServeError::Protocol(format!(
                "unexpected greeting `{}`",
                greeting.trim_end()
            )));
        }
        Ok(ServeClient { reader, writer })
    }

    fn read_response(&mut self) -> Result<String, ServeError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ServeError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        let line = line.trim_end().to_string();
        if line.starts_with("OK") {
            Ok(line)
        } else {
            Err(ServeError::Protocol(line))
        }
    }

    /// Send one request line and read the one response line.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure; [`ServeError::Protocol`]
    /// carrying the server's `ERR …` line.
    pub fn request(&mut self, line: &str) -> Result<String, ServeError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `AUDIT`: the writer's report on the published epoch.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn audit(&mut self) -> Result<String, ServeError> {
        self.request("AUDIT")
    }

    /// Run FairQL statement text (one line; `;`-separate statements)
    /// against the published snapshot. Returns the `OK results=…
    /// lines=…` header and the payload lines that follow it.
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`]; FairQL errors surface as
    /// [`ServeError::Protocol`] carrying the server's
    /// `ERR parse <offset> <message>` or `ERR query <message>` line,
    /// and admission rejections as `ERR overloaded …` — check with
    /// [`is_overloaded`].
    ///
    /// [`is_overloaded`]: ServeClient::is_overloaded
    pub fn query(&mut self, text: &str) -> Result<(String, Vec<String>), ServeError> {
        let header = self.request(&format!("QUERY {text}"))?;
        let count: usize = protocol::kv(&header, "lines")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ServeError::Protocol(format!("malformed QUERY header `{header}`")))?;
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ServeError::Protocol(
                    "server closed the connection mid-payload".to_string(),
                ));
            }
            lines.push(line.trim_end().to_string());
        }
        Ok((header, lines))
    }

    /// Append one epoch of `events` (writer sessions only).
    ///
    /// # Errors
    ///
    /// See [`ServeClient::request`].
    pub fn epoch(&mut self, events: &[Event], schema: &Schema) -> Result<String, ServeError> {
        let records = protocol::render_epoch_records(events, schema);
        let mut framed = format!("EPOCH {}\n", records.len());
        for record in &records {
            framed.push_str(record);
            framed.push('\n');
        }
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Whether an error is the typed admission-control rejection.
    pub fn is_overloaded(error: &ServeError) -> bool {
        matches!(error, ServeError::Protocol(line) if line.starts_with("ERR overloaded"))
    }

    /// `QUIT` politely; transport errors on the way out are ignored.
    pub fn quit(mut self) {
        let _ = self.request("QUIT");
    }
}
