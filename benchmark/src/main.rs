//! The repo benchmark. See README.md in this directory.
//!
//! ```text
//! pgp-benchmark [--workload NAME]… [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//! pgp-benchmark compare A.json B.json
//! ```

mod child;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use run::{Env, Options};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str =
    "usage: pgp-benchmark [--workload NAME]... [--seed S] [--seconds T] [--trace 0|1] [--smoke]
       pgp-benchmark compare A.json B.json

  --workload NAME  run this workload only (repeatable; default: all of them)
  --seed S         seed of the instance and of the partitioner (default 3)
  --seconds T      how long each run of a workload may measure (default 40)
  --trace 0|1      0: the end-to-end run only; 1: the traced run only (default: both)
  --smoke          tiny instances, three reps: checks the harness, measures nothing";

struct Cli {
    workloads: Vec<&'static Workload>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = Vec::new();
    let mut opts = Options {
        seed: 3,
        seconds: 40.0,
        smoke: false,
        end_to_end: true,
        traced: true,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workloads.push(
                    workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => match value()?.as_str() {
                "0" => (opts.end_to_end, opts.traced) = (true, false),
                "1" => (opts.end_to_end, opts.traced) = (false, true),
                other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
            },
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if workloads.is_empty() {
        workloads = workloads::WORKLOADS.iter().collect();
    }
    Ok(Cli { workloads, opts })
}

/// Builds the shipped binary from the repository's own manifest, into the
/// target directory this harness was built into, and returns its path.
fn build_program(root: &Path) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot tell the target directory from this executable's path")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "pgp-partition", "--target-dir"])
        .arg(target_dir)
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building pgp-partition in {} failed",
            root.display()
        ));
    }
    let program = target_dir.join("release").join("pgp-partition");
    if !program.is_file() {
        return Err(format!("{} was not built", program.display()));
    }
    Ok(program)
}

fn benchmark(cli: &Cli) -> Result<String, String> {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = here
        .parent()
        .ok_or("the benchmark directory has no parent")?;
    let env = Env {
        data: here.join("data"),
        results: here.join("results"),
        program: build_program(root)?,
    };
    for dir in [&env.data, &env.results] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    // A harness that cannot reject a bad partition must not report on one.
    verify::self_test(&env.data)?;

    let mut results = Vec::new();
    for w in &cli.workloads {
        eprintln!("running {} (seed {})", w.name, cli.opts.seed);
        results.push(run::run_workload(w, &cli.opts, &env)?);
    }
    let scope = match cli.workloads.as_slice() {
        [one] => one.name,
        _ => "all",
    };
    let kind = match (cli.opts.smoke, cli.opts.end_to_end, cli.opts.traced) {
        (true, _, _) => "smoke",
        (false, true, true) => "run",
        (false, true, false) => "e2e",
        (false, false, _) => "traced",
    };
    let path = env
        .results
        .join(format!("{kind}-{scope}-seed{}.json", cli.opts.seed));
    std::fs::write(&path, report::results_json(&results, &cli.opts).to_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report::print_table(&results);
    println!("results written to {}", path.display());
    Ok(report::summary_line(&results))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("reap") {
        // The harness's own helper; see child.rs.
        return child::reap_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match benchmark(&cli) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
