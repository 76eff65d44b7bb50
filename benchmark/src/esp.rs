//! `esp-table2`: the paper's Table II campaign.
//!
//! The 230-job dynamic ESP workload (static ESP for the Static column)
//! on the 15×8 testbed under Static, Dyn-HP, Dyn-500 and Dyn-100, over a
//! set of shuffle seeds derived from `--seed`; one fresh `BatchSim` per
//! run, one thread. The unit of work and of latency is one ESP run.
//! Every round repeats the same deterministic runs, so each run is
//! timed at its fastest round
//! ([`fastest_per_unit`](crate::report::fastest_per_unit)).

use crate::report::{fastest_per_unit, median, percentile, Gate, Layers};
use crate::trace::Tracer;
use crate::traced_sim::{Fingerprint, LoopCounts, TracedSim};
use crate::{alloc, timed_setups, Ctx, Outcome, SPAN_CAP};
use dynbatch_cluster::Cluster;
use dynbatch_core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration};
use dynbatch_sim::BatchSim;
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{stream_esp, EspConfig, WorkloadItem};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Shuffle seeds per campaign: each is run under every configuration.
const CAMPAIGN_SEEDS: usize = 8;

/// Table II columns: label, DFS target cap (seconds), dynamic workload.
const CONFIGS: [(&str, Option<u64>, bool); 4] = [
    ("Static", None, false),
    ("Dyn-HP", None, true),
    ("Dyn-500", Some(500), true),
    ("Dyn-100", Some(100), true),
];

struct Cell {
    label: &'static str,
    sched: SchedulerConfig,
    items: Rc<Vec<WorkloadItem>>,
}

fn sched_for(cap: Option<u64>) -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = match cap {
        None => DfsConfig::highest_priority(),
        Some(c) => DfsConfig::uniform_target(c, SimDuration::from_hours(1)),
    };
    s
}

fn esp_items(evolving: bool, seed: u64) -> Vec<WorkloadItem> {
    let cfg = EspConfig {
        seed,
        ..if evolving {
            EspConfig::paper_dynamic()
        } else {
            EspConfig::paper_static()
        }
    };
    stream_esp(&cfg, &mut CredRegistry::new()).collect()
}

/// Generates the campaign's workloads and warms every configuration up
/// with one untraced run.
fn setup(seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix64::new(seed);
    let mut cells = Vec::new();
    for _ in 0..CAMPAIGN_SEEDS {
        let s = rng.next_u64();
        let static_items = Rc::new(esp_items(false, s));
        let dynamic_items = Rc::new(esp_items(true, s));
        for (label, cap, dynamic) in CONFIGS {
            cells.push(Cell {
                label,
                sched: sched_for(cap),
                items: Rc::clone(if dynamic {
                    &dynamic_items
                } else {
                    &static_items
                }),
            });
        }
    }
    for cell in &cells[..CONFIGS.len()] {
        run_untraced(cell);
    }
    cells
}

fn run_untraced(cell: &Cell) -> BatchSim {
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cell.sched.clone());
    sim.load(&cell.items);
    sim.run();
    sim
}

fn run_traced(cell: &Cell, tr: Tracer) -> TracedSim {
    let mut sim = TracedSim::new(Cluster::homogeneous(15, 8), cell.sched.clone(), tr);
    sim.run(cell.items.iter().cloned(), None);
    sim
}

fn check_run(gate: &mut Gate, cell: &Cell, server: &dynbatch_server::PbsServer) {
    gate.check("esp.drained", server.is_drained(), || {
        format!(
            "{}: {} jobs stuck",
            cell.label,
            server.queued_count() + server.active_count()
        )
    });
    let jobs = server.accounting().totals().jobs;
    gate.check("esp.accounted", jobs == cell.items.len() as u64, || {
        format!(
            "{}: {jobs} of {} jobs accounted",
            cell.label,
            cell.items.len()
        )
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (setup_s, cells) = timed_setups(|| setup(ctx.seed));
    let mut gate = Gate::default();
    let mut fps: Vec<Option<Fingerprint>> = vec![None; cells.len()];
    let mut rounds_us: Vec<Vec<f64>> = Vec::new();
    let mut cell_us: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut runs = 0usize;
    let mut peaks = Vec::new();
    let budget = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });

    // Untraced campaign rounds: every run must drain, account each job
    // and repeat its cell's fingerprint exactly.
    let start = Instant::now();
    'rounds: loop {
        rounds_us.push(Vec::with_capacity(cells.len()));
        for (i, cell) in cells.iter().enumerate() {
            let base = alloc::reset_peak();
            let t0 = Instant::now();
            let sim = run_untraced(cell);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            peaks.push(alloc::peak_above(base) as f64);
            runs += 1;
            rounds_us.last_mut().expect("round started").push(us);
            cell_us[i].push(us);
            check_run(&mut gate, cell, sim.server());
            let fp = Fingerprint::of(sim.server());
            match &fps[i] {
                None => fps[i] = Some(fp),
                Some(first) => gate.check("esp.repeatable", *first == fp, || {
                    format!("{}: fingerprint changed between rounds", cell.label)
                }),
            }
            if start.elapsed() >= budget && runs >= cells.len() {
                break 'rounds;
            }
        }
    }
    let run_us = fastest_per_unit(&rounds_us);
    let campaign_s: f64 = run_us.iter().sum::<f64>() / 1e6;
    let mut out = Outcome::new("ESP run");
    out.attempted = runs as u64;
    out.e2e.setup_s = setup_s;
    out.e2e.work_per_s = run_us.len() as f64 / campaign_s;
    out.e2e.latency_us_p50 = percentile(&run_us, 50.0);
    out.e2e.latency_us_p99 = percentile(&run_us, 99.0);
    out.e2e.peak_mib = median(&peaks) / (1u64 << 20) as f64;
    out.named = vec![
        ("esp_runs_per_s", out.e2e.work_per_s, "1/s"),
        ("esp_run_us_p50", out.e2e.latency_us_p50, "us"),
        ("esp_run_us_p99", out.e2e.latency_us_p99, "us"),
    ];

    if !ctx.trace {
        // The traced loop must land on the untraced fingerprint: checked
        // for every configuration of the first campaign seed.
        for (i, cell) in cells.iter().enumerate().take(CONFIGS.len()) {
            let sim = run_traced(cell, Tracer::off());
            traced_matches(&mut gate, cell, &sim, fps[i].as_ref());
        }
        out.gate = gate;
        return out;
    }

    // Traced rounds over the same cells, for the rest of the time.
    let mut tr = Tracer::new(true, SPAN_CAP);
    let mut counts = LoopCounts::default();
    let (mut traced_ns, mut untraced_ns) = (0u64, 0f64);
    let start = Instant::now();
    let mut n = 0usize;
    'traced: loop {
        for (i, cell) in cells.iter().enumerate() {
            tr.set_request(n as u32);
            let t0 = Instant::now();
            let sim = run_traced(cell, tr);
            traced_ns += t0.elapsed().as_nanos() as u64;
            untraced_ns += median(&cell_us[i]) * 1e3;
            check_run(&mut gate, cell, sim.server());
            traced_matches(&mut gate, cell, &sim, fps[i].as_ref());
            counts.merge(&sim.counts);
            tr = sim.tr;
            n += 1;
            if start.elapsed() >= budget && n >= CONFIGS.len() {
                break 'traced;
            }
        }
    }
    let mut layers = Layers::from_tracer(&tr, traced_ns);
    layers.add_loop_counts(&counts);
    layers.overhead_frac = traced_ns as f64 / untraced_ns - 1.0;
    out.layers = Some(layers);
    out.tracer = Some(tr);
    out.gate = gate;
    out
}

fn traced_matches(gate: &mut Gate, cell: &Cell, sim: &TracedSim, fp: Option<&Fingerprint>) {
    gate.check("esp.traced_supported", sim.unsupported.is_none(), || {
        format!(
            "{}: {}",
            cell.label,
            sim.unsupported.as_deref().unwrap_or("")
        )
    });
    let traced = Fingerprint::of(sim.server());
    gate.check("esp.traced_fingerprint", Some(&traced) == fp, || {
        format!("{}: traced loop ended on another fingerprint", cell.label)
    });
}
