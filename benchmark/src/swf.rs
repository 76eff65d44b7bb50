//! `swf-month`: a month-scale SWF trace replayed through the streaming
//! ingestion path.
//!
//! Set-up writes a 30-day synthetic trace (25 s mean interarrival, 32
//! users, 1–8 cores, 103 680 jobs) as SWF; each replay streams it back
//! through `SwfSource` into `BatchSim::run_streamed` with a 6 h
//! lookahead and low-memory retention, converting 10 % of the jobs to
//! evolving ones. The unit of work is one replayed job; the unit of
//! latency is the wall time the replay takes per simulated hour of trace.
//! Every replay is the same deterministic sequence of simulated hours,
//! so each hour is timed at its fastest replay
//! ([`fastest_per_unit`](crate::report::fastest_per_unit)).

use crate::report::{fastest_per_unit, median, percentile, Gate, Layers};
use crate::trace::Tracer;
use crate::traced_sim::{Fingerprint, TracedSim};
use crate::{alloc, timed_setups, Ctx, Outcome, SPAN_CAP};
use dynbatch_cluster::Cluster;
use dynbatch_core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration, SimTime};
use dynbatch_sim::BatchSim;
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{
    stream_synthetic, write_swf_to, SwfConfig, SwfSource, SyntheticConfig, WorkloadItem,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const DAYS: usize = 30;
const JOBS: usize = DAYS * 86_400 / 25;
const LOOKAHEAD: SimDuration = SimDuration::from_hours(6);
/// Jobs in the one-day prefix the untraced run's traced-loop check uses.
const PREFIX_JOBS: usize = 86_400 / 25;

fn sched() -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = DfsConfig::highest_priority();
    s
}

fn swf_config(seed: u64, max_jobs: usize) -> SwfConfig {
    SwfConfig {
        evolving_fraction: 0.1,
        seed: SplitMix64::new(seed).derive(0x5F).next_u64(),
        max_jobs,
        ..SwfConfig::default()
    }
}

/// Writes the month trace for `seed` to `path`.
fn setup(seed: u64, path: &Path) -> std::io::Result<()> {
    let stream = stream_synthetic(
        &SyntheticConfig {
            seed,
            jobs: JOBS,
            users: 32,
            total_cores: 120,
            mean_interarrival: SimDuration::from_secs(25),
            runtime_secs: (60, 1800),
            cores: (1, 8),
            evolving_fraction: 0.0,
            extra_cores: 4,
            det_factor: 0.7,
        },
        &mut CredRegistry::new(),
    );
    let mut out = BufWriter::new(File::create(path)?);
    let written = write_swf_to(&mut out, stream, 8)?;
    out.flush()?;
    assert_eq!(written, JOBS, "trace writer dropped jobs");
    Ok(())
}

/// Records the wall time between successive simulated-hour boundaries
/// of the submissions pulled through it. Lookahead admission pulls
/// items a fixed window ahead of the simulation clock, so the intervals
/// track the replay's pace per simulated hour.
struct HourClock<I> {
    inner: I,
    next_hour: SimTime,
    last: Instant,
    segments_us: Vec<f64>,
}

impl<I: Iterator<Item = WorkloadItem>> Iterator for HourClock<I> {
    type Item = WorkloadItem;

    fn next(&mut self) -> Option<WorkloadItem> {
        let item = self.inner.next()?;
        if item.at >= self.next_hour {
            let now = Instant::now();
            self.segments_us
                .push(now.duration_since(self.last).as_secs_f64() * 1e6);
            self.last = now;
            while self.next_hour <= item.at {
                self.next_hour += SimDuration::from_hours(1);
            }
        }
        Some(item)
    }
}

struct Replay {
    secs: f64,
    /// Wall time per simulated hour of submissions, then the tail after
    /// the last one; they add up to `secs`.
    segments_us: Vec<f64>,
    jobs: usize,
    peak: usize,
    fp: Fingerprint,
}

fn open(path: &Path) -> BufReader<File> {
    BufReader::new(File::open(path).expect("trace written at set-up"))
}

fn check_source<R: std::io::BufRead>(gate: &mut Gate, src: &SwfSource<'_, R>, want: usize) {
    gate.check("swf.parse", src.error().is_none(), || {
        format!("{:?}", src.error())
    });
    gate.check("swf.emitted", src.emitted() == want, || {
        format!("{} of {want} jobs parsed", src.emitted())
    });
}

fn check_drained(gate: &mut Gate, server: &dynbatch_server::PbsServer, want: usize) {
    gate.check("swf.drained", server.is_drained(), || {
        format!(
            "{} jobs stuck",
            server.queued_count() + server.active_count()
        )
    });
    let jobs = server.accounting().totals().jobs;
    gate.check("swf.accounted", jobs == want as u64, || {
        format!("{jobs} of {want} jobs accounted")
    });
}

/// One untraced replay of the first `max_jobs` jobs (0 = all).
fn replay(gate: &mut Gate, path: &Path, seed: u64, max_jobs: usize) -> Replay {
    let want = if max_jobs == 0 { JOBS } else { max_jobs };
    let base = alloc::reset_peak();
    let t0 = Instant::now();
    let mut src = SwfSource::with_own_registry(open(path), swf_config(seed, max_jobs));
    let mut clock = HourClock {
        inner: &mut src,
        next_hour: SimTime::ZERO + SimDuration::from_hours(1),
        last: t0,
        segments_us: Vec::with_capacity(DAYS * 24 + 1),
    };
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), sched());
    sim.set_low_memory(true);
    sim.run_streamed(&mut clock, LOOKAHEAD);
    let end = Instant::now();
    let secs = end.duration_since(t0).as_secs_f64();
    let peak = alloc::peak_above(base);
    let mut segments_us = clock.segments_us;
    segments_us.push(end.duration_since(clock.last).as_secs_f64() * 1e6);
    check_source(gate, &src, want);
    check_drained(gate, sim.server(), want);
    Replay {
        secs,
        segments_us,
        jobs: src.emitted(),
        peak,
        fp: Fingerprint::of(sim.server()),
    }
}

fn replay_traced(
    gate: &mut Gate,
    path: &Path,
    seed: u64,
    max_jobs: usize,
    tr: Tracer,
) -> (TracedSim, f64, usize) {
    let want = if max_jobs == 0 { JOBS } else { max_jobs };
    let mut src = SwfSource::with_own_registry(open(path), swf_config(seed, max_jobs));
    let mut sim = TracedSim::new(Cluster::homogeneous(15, 8), sched(), tr);
    sim.set_low_memory();
    let t0 = Instant::now();
    sim.run(&mut src, Some(LOOKAHEAD));
    let secs = t0.elapsed().as_secs_f64();
    check_source(gate, &src, want);
    check_drained(gate, sim.server(), want);
    gate.check("swf.traced_supported", sim.unsupported.is_none(), || {
        sim.unsupported.clone().unwrap_or_default()
    });
    let s = src.stats();
    (
        sim,
        secs,
        s.comments + s.skipped_unusable + s.skipped_malformed,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let path: PathBuf =
        ctx.out_dir
            .join(format!("swf-month-{}-{}.swf", ctx.seed, std::process::id()));
    let (setup_s, written) = timed_setups(|| setup(ctx.seed, &path));
    let mut out = Outcome::new("SWF job");
    if let Err(e) = written {
        out.gate.check("swf.setup", false, || e.to_string());
        return out;
    }
    let out = measure(ctx, &path, setup_s, out);
    let _ = std::fs::remove_file(&path);
    out
}

fn measure(ctx: &Ctx, path: &Path, setup_s: f64, mut out: Outcome) -> Outcome {
    let mut gate = Gate::default();
    let budget = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let mut replays: Vec<Replay> = Vec::new();
    let start = Instant::now();
    while replays.is_empty() || start.elapsed() < budget {
        let r = replay(&mut gate, path, ctx.seed, 0);
        if let Some(first) = replays.first() {
            gate.check("swf.repeatable", first.fp == r.fp, || {
                "fingerprint changed between replays".into()
            });
            gate.check(
                "swf.segments",
                first.segments_us.len() == r.segments_us.len(),
                || {
                    format!(
                        "replays crossed {} and {} simulated hours",
                        first.segments_us.len(),
                        r.segments_us.len()
                    )
                },
            );
        }
        replays.push(r);
    }
    // Each simulated hour at its fastest replay; the last segment is the
    // tail after the final submission, counted in the throughput only.
    let best = fastest_per_unit(
        &replays
            .iter()
            .map(|r| r.segments_us.clone())
            .collect::<Vec<_>>(),
    );
    let hours_us = &best[..best.len() - 1];
    let peaks: Vec<f64> = replays.iter().map(|r| r.peak as f64).collect();
    out.attempted = replays.iter().map(|r| r.jobs as u64).sum();
    out.e2e.setup_s = setup_s;
    out.e2e.work_per_s = replays[0].jobs as f64 / (best.iter().sum::<f64>() / 1e6);
    out.e2e.latency_us_p50 = percentile(hours_us, 50.0);
    out.e2e.latency_us_p99 = percentile(hours_us, 99.0);
    out.e2e.peak_mib = median(&peaks) / (1u64 << 20) as f64;
    out.named = vec![
        ("swf_jobs_per_s", out.e2e.work_per_s, "1/s"),
        ("swf_peak_mib", out.e2e.peak_mib, "MiB"),
        ("swf_hour_us_p50", out.e2e.latency_us_p50, "us"),
        ("swf_hour_us_p99", out.e2e.latency_us_p99, "us"),
    ];
    let first_fp = replays[0].fp.clone();

    if !ctx.trace {
        // Traced-loop check on the trace's first day: the untraced and
        // traced loops must end on the same fingerprint.
        let untraced = replay(&mut gate, path, ctx.seed, PREFIX_JOBS);
        let (sim, _, _) = replay_traced(&mut gate, path, ctx.seed, PREFIX_JOBS, Tracer::off());
        gate.check(
            "swf.traced_fingerprint",
            Fingerprint::of(sim.server()) == untraced.fp,
            || "traced loop ended on another fingerprint (one-day prefix)".into(),
        );
        out.gate = gate;
        return out;
    }

    // Traced replays of the whole month for the rest of the time.
    let untraced_secs = median(&replays.iter().map(|r| r.secs).collect::<Vec<_>>());
    let mut tr = Tracer::new(true, SPAN_CAP);
    let mut counts = crate::traced_sim::LoopCounts::default();
    let (mut traced_secs, mut n, mut skipped) = (0.0, 0usize, 0usize);
    let start = Instant::now();
    while n == 0 || start.elapsed() < budget {
        tr.set_request(n as u32);
        let (sim, secs, sk) = replay_traced(&mut gate, path, ctx.seed, 0, tr);
        gate.check(
            "swf.traced_fingerprint",
            Fingerprint::of(sim.server()) == first_fp,
            || "traced loop ended on another fingerprint".into(),
        );
        traced_secs += secs;
        skipped += sk;
        counts.merge(&sim.counts);
        tr = sim.tr;
        n += 1;
    }
    let mut layers = Layers::from_tracer(&tr, (traced_secs * 1e9) as u64);
    layers.add_loop_counts(&counts);
    layers.workload_skipped = skipped as f64;
    layers.overhead_frac = traced_secs / (n as f64 * untraced_secs) - 1.0;
    out.layers = Some(layers);
    out.tracer = Some(tr);
    out.gate = gate;
    out
}
