//! The dynbatch benchmark: three workloads, end-to-end metrics with
//! tracing off, a per-layer breakdown with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload esp-table2|swf-month|service-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records the host and build the figures come from.
//! Every correctness check runs before any number is printed; a failed
//! check is named on standard error and the process exits with code 1.
//! See `README.md` for the workloads, the metrics and what should move
//! them.

mod alloc;
mod esp;
mod report;
mod service;
mod swf;
mod trace;
mod traced_sim;

use report::{EndToEnd, Gate, Layers};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Largest share of a traced section's wall time that may fall outside
/// every layer's self time before the breakdown is refused.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Raw spans kept per traced run (aggregates are exact regardless).
pub const SPAN_CAP: usize = 50_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// What a workload run produced.
pub struct Outcome {
    /// What one attempted operation is, for the log.
    pub unit: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    /// The workload's end-to-end figures under their workload-specific
    /// names, logged alongside the generic ones.
    pub named: Vec<(&'static str, f64, &'static str)>,
    pub layers: Option<Layers>,
    pub tracer: Option<Tracer>,
    pub gate: Gate,
}

impl Outcome {
    pub fn new(unit: &'static str) -> Self {
        Outcome {
            unit,
            attempted: 0,
            failed: 0,
            e2e: EndToEnd::default(),
            named: Vec::new(),
            layers: None,
            tracer: None,
            gate: Gate::default(),
        }
    }
}

/// Runs `setup` [`SETUPS`] times; returns the median wall time in
/// seconds and the last result.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let out = setup();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (report::median(&secs), last.expect("SETUPS >= 1"))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// JSON string literal for `s`.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// FNV-1a over the program's sources (`crates/`, `Cargo.toml`,
/// `Cargo.lock`) and the benchmark's own — identifies the code measured
/// when the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The git commit, when the checkout is a git repository.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir).to_path_buf();
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("benchmark: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir.clone(),
    };
    let run: fn(&Ctx) -> Outcome = match args.workload.as_str() {
        "esp-table2" => esp::run,
        "swf-month" => swf::run,
        "service-mix" => service::run,
        other => {
            eprintln!("benchmark: unknown workload {other} (esp-table2, swf-month, service-mix)");
            return ExitCode::from(2);
        }
    };
    let mut out = run(&ctx);
    if let Some(l) = &out.layers {
        out.gate.check(
            "trace.self_times_sum",
            l.unattributed_frac.abs() <= UNATTRIBUTED_TOLERANCE,
            || {
                format!(
                    "layer self times leave {:.2}% of the traced {:.1} ms unattributed \
                     (tolerance {:.0}%)",
                    100.0 * l.unattributed_frac,
                    l.traced_ms,
                    100.0 * UNATTRIBUTED_TOLERANCE
                )
            },
        );
    }

    // The correctness gate: nothing is printed unless every check held.
    if !out.gate.failures().is_empty() || out.failed > 0 {
        for f in out.gate.failures() {
            eprintln!("benchmark: correctness check failed: {f}");
        }
        if out.failed > 0 {
            eprintln!(
                "benchmark: {} of {} operations failed",
                out.failed, out.attempted
            );
        }
        return ExitCode::from(1);
    }
    if args.trace && out.layers.is_none() {
        eprintln!("benchmark: traced run produced no layer breakdown");
        return ExitCode::from(1);
    }

    eprintln!(
        "benchmark: {} seed {}: {} checks passed, {} {}s attempted",
        args.workload,
        args.seed,
        out.gate.passed(),
        out.attempted,
        out.unit
    );
    let failed_frac = report::ratio(out.failed as f64, out.attempted as f64);
    for (name, v, unit) in out
        .named
        .iter()
        .chain([&("failed_frac", failed_frac, "ratio")])
    {
        eprintln!("  {name:<24} {v:>14.3} {unit}");
    }
    let metrics = match &out.layers {
        Some(l) if args.trace => {
            eprintln!("  self time by layer (traced {:.1} ms):", l.traced_ms);
            eprint!("{}", l.breakdown());
            l.metrics()
        }
        _ => out.e2e.metrics(),
    };
    let mut span_file = String::new();
    if let Some(tr) = &out.tracer {
        let path = out_dir.join(format!("spans-{}-{}.csv", args.workload, args.seed));
        match tr.write_spans(&path) {
            Ok(()) => {
                span_file = path
                    .strip_prefix(&root)
                    .unwrap_or(&path)
                    .display()
                    .to_string()
            }
            Err(e) => eprintln!("benchmark: spans not written: {e}"),
        }
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"rustc\": {}, \"commit\": {}, \
         \"source_digest\": {}, \"spans\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        json_str(env!("BENCH_RUSTC_VERSION")),
        json_str(&commit(&root)),
        json_str(&source_digest(&root)),
        json_str(&span_file),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
