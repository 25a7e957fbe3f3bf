//! `hygcn` — command-line driver for the HyGCN (HPCA 2020) reproduction.
//!
//! ```text
//! hygcn simulate --dataset CR --model GCN --out report.json
//! hygcn compare  --dataset PB --model GIN
//! hygcn sweep    --dataset PB --knob aggbuf
//! hygcn campaign --datasets CR,PB --axes "aggbuf-mb=2,8,32;sparsity=on,off"
//! hygcn campaign --axes "aggbuf-mb=2,4,8,16" --strategy successive-halving
//! hygcn figures  fig15 --store figures.jsonl
//! hygcn store    fsck --store campaign.jsonl
//! hygcn bench    --vertices 131072 --json BENCH_sim.json
//! hygcn datasets
//! ```

mod args;
mod commands;

use args::Args;
use commands::{
    bench, campaign, compare, datasets, figures, help, lint, observed, simulate, store_cmd, sweep,
    CliError, BENCH_BOOL_FLAGS, BENCH_FLAGS, CAMPAIGN_BOOL_FLAGS, CAMPAIGN_FLAGS, FIGURE_FLAGS,
    LINT_BOOL_FLAGS, LINT_FLAGS, STORE_BOOL_FLAGS, STORE_FLAGS, WORKLOAD_FLAGS,
};

/// Every command `run` dispatches, as `hygcn help <command>` names it.
const COMMANDS: [&str; 10] = [
    "simulate", "compare", "sweep", "campaign", "figures", "store", "bench", "lint", "datasets",
    "help",
];

/// The answer to a request for the usage, if `raw` is one: no arguments,
/// `hygcn help` (or `--help`/`-h`) alone or before one command name, or
/// a command with `--help`/`-h` among its arguments. A request about an
/// unknown command is an error naming it.
fn usage(raw: &[String]) -> Option<Result<String, CliError>> {
    let is_help_flag = |a: &String| a == "--help" || a == "-h";
    let about = |command: &String| {
        if COMMANDS.contains(&command.as_str()) {
            Ok(help())
        } else {
            Err(CliError::Unknown(format!(
                "unknown command '{command}' (try `hygcn help`)"
            )))
        }
    };
    match raw {
        [] => Some(Ok(help())),
        [first, rest @ ..] if first == "help" || is_help_flag(first) => match rest {
            [] => Some(Ok(help())),
            [command] => Some(about(command)),
            _ => None,
        },
        [command, rest @ ..] if rest.iter().any(is_help_flag) => Some(about(command)),
        _ => None,
    }
}

fn run() -> Result<String, CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(answer) = usage(&raw) {
        return answer;
    }
    // Each command validates against its own flag set, so a bench-only
    // flag passed to `simulate` still fails loudly. `figures` and
    // `store` take a positional (artifact id / maintenance action).
    let parsed = match raw[0].as_str() {
        "bench" => Args::parse_full(raw, BENCH_FLAGS, BENCH_BOOL_FLAGS, 0)?,
        "campaign" => Args::parse_full(raw, CAMPAIGN_FLAGS, CAMPAIGN_BOOL_FLAGS, 0)?,
        "figures" => Args::parse_with_positionals(raw, FIGURE_FLAGS, 1)?,
        "store" => Args::parse_full(raw, STORE_FLAGS, STORE_BOOL_FLAGS, 1)?,
        "lint" => Args::parse_full(raw, LINT_FLAGS, LINT_BOOL_FLAGS, 0)?,
        _ => Args::parse(raw, WORKLOAD_FLAGS)?,
    };
    match parsed.command() {
        "simulate" => observed(&parsed, simulate),
        "compare" => observed(&parsed, compare),
        "sweep" => observed(&parsed, sweep),
        "campaign" => campaign(&parsed),
        "figures" => observed(&parsed, figures),
        "store" => store_cmd(&parsed),
        "bench" => bench(&parsed),
        "lint" => lint(&parsed),
        "datasets" => Ok(datasets()),
        other => Err(CliError::Unknown(format!(
            "unknown command '{other}' (try `hygcn help`)"
        ))),
    }
}

fn main() {
    match run() {
        Ok(out) => print!("{out}"),
        // A campaign that completed with failed points still prints its
        // report, then exits with the dedicated code 3 (distinct from
        // the generic error exit 2) so scripts can tell "some points
        // failed, resume will retry" from "the invocation was wrong".
        Err(CliError::CampaignFailed { output, failed }) => {
            print!("{output}");
            eprintln!("error: campaign completed with {failed} failed point(s)");
            std::process::exit(3);
        }
        // Lint findings go to stdout (they ARE the report — text or
        // JSON) with only the summary on stderr, exit 2 as the issue's
        // "violations present" contract.
        Err(CliError::LintViolations { output, count }) => {
            print!("{output}");
            eprintln!("error: lint found {count} violation(s)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
