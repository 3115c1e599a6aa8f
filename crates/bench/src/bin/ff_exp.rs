//! ff_exp — regenerates one paper table or figure from the experiment
//! registry.
//!
//! ```text
//! ff_exp fig6 test --jobs max
//! ff_exp ablate_queue tiny --json --no-cache
//! ```
//!
//! A missing or unknown name, or a malformed sweep flag, exits 2 with
//! the usage and the list of experiments.

use ff_bench::experiments::{find, REGISTRY};
use ff_bench::sweep::{RunStore, SweepOpts, COMMAND};
use std::process::ExitCode;

fn usage_error(msg: &str) -> ExitCode {
    let usage = COMMAND.synopsis("ff_exp").replace('\n', "\n       ");
    eprintln!("error: {msg}\nusage: {usage}\n\nexperiments:");
    for e in REGISTRY {
        eprintln!("  {:<18} {}", e.name(), e.title());
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else { return usage_error("missing experiment name") };
    let Some(experiment) = find(&name) else {
        return usage_error(&format!("unknown experiment `{name}`"));
    };
    match SweepOpts::parse(args) {
        Ok(opts) => {
            print!("{}", experiment.run(&opts, &mut RunStore::default()).text);
            ExitCode::SUCCESS
        }
        Err(msg) => usage_error(&msg),
    }
}
