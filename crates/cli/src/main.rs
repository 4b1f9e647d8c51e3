//! The `fairjob` binary: thin wrapper around [`fairjob_cli::dispatch`].

use std::io::{ErrorKind, Write};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let err = match fairjob_cli::dispatch(&argv) {
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(output.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stopped early (`| head`) is not a failure.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => fairjob_cli::CliError::Io(e),
                _ => return,
            }
        }
        Err(err) => err,
    };
    eprintln!("fairjob: {err}");
    std::process::exit(err.exit_code());
}
