//! `ses` — command-line front end for social event scheduling.
//!
//! ```text
//! ses generate --members 3000 --events 1500 --weeks 52 --seed 0 --out data.json
//! ses analyze  --dataset data.json
//! ses solve    --dataset data.json --k 100 --algo GRD [--checkins] [--format json]
//! ses pack     --profile sparse --users 100000 --out universe.sesstore
//! ses quality  [--instances 20] [--k 4]
//! ses simulate --scenario flash-crowd --steps 10000 --seed 42 [--format json]
//! ses serve    --addr 127.0.0.1:7878 --shards 4 [--wal-dir DIR [--fsync POLICY]] [--instance name=path]...
//! ses instances --addr 127.0.0.1:7878
//! ses top      --addr 127.0.0.1:7878 [--once]
//! ses loadgen  --addr 127.0.0.1:7878 --clients 8 [--instance name]... [--strict]
//! ses wal inspect --dir DIR [--records] [--format json]
//! ses help
//! ```

use ses_cli::{args, commands};
use std::process::ExitCode;

fn main() -> ExitCode {
    end_quietly_on_closed_stdout();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // `ses wal <action>` is a two-word command; fold it into one token so
    // the flat option parser stays flat.
    if argv.first().map(String::as_str) == Some("wal")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        let action = argv.remove(1);
        argv[0] = format!("wal-{action}");
    }
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ses: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed),
        "analyze" => commands::analyze(&parsed),
        "solve" | "schedule" => commands::solve(&parsed),
        "pack" => commands::pack(&parsed),
        "quality" => commands::quality(&parsed),
        "simulate" => commands::simulate(&parsed),
        "serve" => commands::serve(&parsed),
        "instances" => commands::instances(&parsed),
        "top" => commands::top(&parsed),
        "loadgen" => commands::loadgen(&parsed),
        "wal-inspect" => commands::wal_inspect(&parsed),
        "wal" => Err("wal needs an action (try `ses wal inspect --dir DIR`)".to_owned()),
        "help" | "--help" | "-h" => {
            print!("{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}' (try `ses help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ses: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `println!` panics when stdout is a pipe whose reader has gone away
/// (`ses solve … | head -1`). The reader already has what it wanted, so
/// end the process quietly instead of printing a panic and a backtrace.
fn end_quietly_on_closed_stdout() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let closed_stdout = info.payload().downcast_ref::<String>().is_some_and(|msg| {
            msg.starts_with("failed printing to stdout") && msg.contains("Broken pipe")
        });
        if closed_stdout {
            std::process::exit(0);
        }
        default_hook(info);
    }));
}
