//! The `bce` command-line tool. See `bce help`.

use std::io::{ErrorKind, Write};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match bce_cli::dispatch(raw) {
        Ok(out) => {
            // A reader that stops early (`bce trace ... | head`) closes the
            // pipe; that ends the output, it is not an error. `print!`
            // would panic on it.
            let mut stdout = std::io::stdout().lock();
            let written = stdout.write_all(out.as_bytes()).and_then(|()| stdout.flush());
            if let Err(e) = written {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("error: cannot write the output: {e}");
                    std::process::exit(3);
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            // Exit-code classes (see CliError): 1 generic, 2 validation,
            // 3 I/O — so CI distinguishes "bad input" from "sick disk"
            // without grepping stderr.
            std::process::exit(e.exit_code);
        }
    }
}
