//! The `cachegraph` command-line tool. See [`cachegraph_cli::USAGE`].

use cachegraph_cli::{run, Args, CliError, USAGE};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    if command == "--help" || command == "-h" || command == "help" {
        print!("{USAGE}");
        return;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout();
    if let Err(e) = run(&command, args, &mut stdout) {
        // One-line diagnostic; exit 2 for usage errors, 1 for runtime
        // failures (the contract documented in USAGE).
        eprintln!("error: {e}");
        let code = match e {
            CliError::Args(_) | CliError::UnknownCommand(_) | CliError::Usage(_) => 2,
            _ => 1,
        };
        std::process::exit(code);
    }
}
