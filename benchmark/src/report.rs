//! Statistics helpers, the correctness gate, and the two metric sets.
//!
//! The statistics are computed here rather than with the program's own
//! `metrics::stats`, so that no change to the program can change how the
//! benchmark summarises its measurements.

use crate::trace::{Layer, Op, Tracer};
use crate::traced_sim::LoopCounts;

/// Nearest-rank percentile (`p` in `[0, 100]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest timing of each unit of a repeated, deterministic
/// sequence: `reps[r][j]` is unit `j`'s time in repetition `r`. A
/// repetition cut short contributes the units it reached.
///
/// The benchmark runs on a few cores of a shared host, where other
/// tenants' memory traffic slows the very same unit by up to half again
/// from one second to the next (the thread's CPU time grows with its
/// wall time, so this is contention, not preemption). Taking each unit
/// at its least-disturbed repetition measures what the program costs
/// rather than what the neighbours do; units are short, so every one
/// gets several chances at a quiet moment within a run.
pub fn fastest_per_unit(reps: &[Vec<f64>]) -> Vec<f64> {
    let units = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..units)
        .map(|j| {
            reps.iter()
                .filter_map(|r| r.get(j).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The correctness gate: every check a run makes before any number is
/// printed. A failed check names itself and stops the benchmark.
#[derive(Default)]
pub struct Gate {
    failures: Vec<String>,
    passed: u64,
}

impl Gate {
    /// Records check `name`; `detail` explains a failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Checks that passed so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// The failed checks, each prefixed with its name.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The end-to-end metrics every workload reports (trace off).
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Units of work completed per second.
    pub work_per_s: f64,
    /// Median wall time of one unit of latency, microseconds.
    pub latency_us_p50: f64,
    /// 99th-percentile wall time of one unit of latency, microseconds.
    pub latency_us_p99: f64,
    /// Median peak heap above the entry level, MiB.
    pub peak_mib: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            ("setup_s".into(), self.setup_s, "s"),
            ("work_per_s".into(), self.work_per_s, "1/s"),
            ("latency_us_p50".into(), self.latency_us_p50, "us"),
            ("latency_us_p99".into(), self.latency_us_p99, "us"),
            ("peak_mib".into(), self.peak_mib, "MiB"),
        ]
    }
}

/// Every per-layer metric (trace on). Layers a workload does not reach
/// stay 0 — the "light in" side of each layer's pairing.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub queue_ops: f64,
    pub queue_peek_ms: f64,
    pub queue_stale_frac: f64,
    pub workload_items: f64,
    pub workload_skipped: f64,
    pub server_mutations: f64,
    pub server_mutate_ms: f64,
    pub server_snapshot_ms: f64,
    pub server_snapshot_deltas_mean: f64,
    pub server_apply_ms: f64,
    pub cmd_us_p50: [f64; 4],
    pub sched_iterations: f64,
    pub sched_iterate_ms: f64,
    pub sched_iterate_us_p50: f64,
    pub sched_iterate_us_p99: f64,
    pub sched_queue_depth_p50: f64,
    pub sched_queue_depth_max: f64,
    pub sched_dyn_evaluated: f64,
    pub sched_grant_frac: f64,
    pub sched_timeline_rebuild_frac: f64,
    pub reactor_batches: f64,
    pub reactor_cmds_per_batch: f64,
    pub reactor_denied: f64,
    pub journal_records: f64,
    pub journal_records_per_cmd: f64,
    pub journal_compactions: f64,
    pub repl_pump_ms: f64,
    pub repl_records_sent: f64,
    pub repl_snapshots_sent: f64,
    pub repl_lag_records_p50: f64,
    pub repl_lag_records_p99: f64,
    pub repl_converge_ms: f64,
    pub sim_cycles: f64,
    pub sim_steps: f64,
    /// Self time per layer, ms, in [`Layer::ALL`] order.
    pub self_ms: [f64; 10],
    /// Wall time of the traced section, ms.
    pub traced_ms: f64,
    pub overhead_frac: f64,
    pub unattributed_frac: f64,
}

const CMD_OPS: [(Op, &str); 4] = [
    (Op::SrvQsub, "qsub"),
    (Op::SrvQstat, "qstat"),
    (Op::SrvQdel, "qdel"),
    (Op::SrvDynget, "dynget"),
];

/// Name of each layer's self-time metric, in [`Layer::ALL`] order.
const SELF_NAMES: [&str; 10] = [
    "simtime.queue.self_ms",
    "workload.self_ms",
    "server.self_ms",
    "sched.self_ms",
    "sim.self_ms",
    "server.reactor.self_ms",
    "server.journal.self_ms",
    "server.replication.self_ms",
    "client.self_ms",
    "host.self_ms",
];

impl Layers {
    /// Fills every span-derived field from `tr`, whose spans covered
    /// `traced_ns` of wall time.
    pub fn from_tracer(tr: &Tracer, traced_ns: u64) -> Self {
        let ms = |op: Op| ns_to_ms(tr.op(op).self_ns);
        let us = |ns: &[u64]| ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<f64>>();
        let mut l = Layers {
            queue_ops: [Op::QSchedule, Op::QCancel, Op::QPop, Op::QPeek]
                .iter()
                .map(|op| tr.op(*op).count as f64)
                .sum(),
            queue_peek_ms: ms(Op::QPeek),
            server_mutate_ms: [
                Op::SrvQsub,
                Op::SrvQdel,
                Op::SrvDynget,
                Op::SrvDynfree,
                Op::SrvFinish,
                Op::SrvExpire,
            ]
            .iter()
            .map(|op| ms(*op))
            .sum(),
            server_snapshot_ms: ms(Op::SrvSnapshot),
            server_apply_ms: ms(Op::SrvApply),
            sched_iterate_ms: ms(Op::SchedIterate),
            repl_pump_ms: ms(Op::ReplPump),
            traced_ms: ns_to_ms(traced_ns),
            ..Layers::default()
        };
        for (i, (op, _)) in CMD_OPS.iter().enumerate() {
            l.cmd_us_p50[i] = percentile(&us(tr.samples(*op)), 50.0);
        }
        let iterate = us(tr.samples(Op::SchedIterate));
        l.sched_iterations = iterate.len() as f64;
        l.sched_iterate_us_p50 = percentile(&iterate, 50.0);
        l.sched_iterate_us_p99 = percentile(&iterate, 99.0);
        for (i, layer) in Layer::ALL.iter().enumerate() {
            l.self_ms[i] = ns_to_ms(tr.layer_self_ns(*layer));
        }
        let attributed = tr.total_self_ns() as f64;
        l.unattributed_frac = ratio(traced_ns as f64 - attributed, traced_ns as f64);
        l
    }

    /// Adds the counts an event loop made at the layer boundaries.
    pub fn add_loop_counts(&mut self, c: &LoopCounts) {
        self.queue_stale_frac = ratio((c.cancelled + c.stale_pops) as f64, c.scheduled as f64);
        self.workload_items = c.items as f64;
        self.sim_cycles = c.cycles as f64;
        self.sim_steps = c.steps as f64;
        self.add_sched_counts(c);
    }

    /// The scheduler/snapshot counts shared by every event loop.
    pub fn add_sched_counts(&mut self, c: &LoopCounts) {
        self.server_mutations = c.mutations as f64;
        self.server_snapshot_deltas_mean = ratio(c.snapshot_deltas as f64, c.snapshots as f64);
        let depths: Vec<f64> = c.queue_depths.iter().map(|&d| d as f64).collect();
        self.sched_queue_depth_p50 = percentile(&depths, 50.0);
        self.sched_queue_depth_max = percentile(&depths, 100.0);
        self.sched_dyn_evaluated = c.dyn_evaluated as f64;
        self.sched_grant_frac = ratio(c.dyn_granted as f64, c.dyn_evaluated as f64);
        self.sched_timeline_rebuild_frac = ratio(c.rebuilds_needed as f64, c.snapshots as f64);
    }

    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("simtime.queue.ops".into(), self.queue_ops, "count"),
            ("simtime.queue.peek_ms".into(), self.queue_peek_ms, "ms"),
            (
                "simtime.queue.stale_frac".into(),
                self.queue_stale_frac,
                "ratio",
            ),
            ("workload.items".into(), self.workload_items, "count"),
            ("workload.skipped".into(), self.workload_skipped, "count"),
            ("server.mutations".into(), self.server_mutations, "count"),
            ("server.mutate_ms".into(), self.server_mutate_ms, "ms"),
            ("server.snapshot_ms".into(), self.server_snapshot_ms, "ms"),
            (
                "server.snapshot_deltas_mean".into(),
                self.server_snapshot_deltas_mean,
                "count",
            ),
            ("server.apply_ms".into(), self.server_apply_ms, "ms"),
        ];
        for (i, (_, name)) in CMD_OPS.iter().enumerate() {
            m.push((
                format!("server.cmd_us_p50.{name}"),
                self.cmd_us_p50[i],
                "us",
            ));
        }
        m.extend([
            ("sched.iterations".into(), self.sched_iterations, "count"),
            ("sched.iterate_ms".into(), self.sched_iterate_ms, "ms"),
            (
                "sched.iterate_us_p50".into(),
                self.sched_iterate_us_p50,
                "us",
            ),
            (
                "sched.iterate_us_p99".into(),
                self.sched_iterate_us_p99,
                "us",
            ),
            (
                "sched.queue_depth_p50".into(),
                self.sched_queue_depth_p50,
                "count",
            ),
            (
                "sched.queue_depth_max".into(),
                self.sched_queue_depth_max,
                "count",
            ),
            (
                "sched.dyn_evaluated".into(),
                self.sched_dyn_evaluated,
                "count",
            ),
            ("sched.grant_frac".into(), self.sched_grant_frac, "ratio"),
            (
                "sched.timeline_rebuild_frac".into(),
                self.sched_timeline_rebuild_frac,
                "ratio",
            ),
            (
                "server.reactor.batches".into(),
                self.reactor_batches,
                "count",
            ),
            (
                "server.reactor.cmds_per_batch".into(),
                self.reactor_cmds_per_batch,
                "count",
            ),
            ("server.reactor.denied".into(), self.reactor_denied, "count"),
            (
                "server.journal.records".into(),
                self.journal_records,
                "count",
            ),
            (
                "server.journal.records_per_cmd".into(),
                self.journal_records_per_cmd,
                "ratio",
            ),
            (
                "server.journal.compactions".into(),
                self.journal_compactions,
                "count",
            ),
            ("server.replication.pump_ms".into(), self.repl_pump_ms, "ms"),
            (
                "server.replication.records_sent".into(),
                self.repl_records_sent,
                "count",
            ),
            (
                "server.replication.snapshots_sent".into(),
                self.repl_snapshots_sent,
                "count",
            ),
            (
                "server.replication.lag_records_p50".into(),
                self.repl_lag_records_p50,
                "records",
            ),
            (
                "server.replication.lag_records_p99".into(),
                self.repl_lag_records_p99,
                "records",
            ),
            (
                "server.replication.converge_ms".into(),
                self.repl_converge_ms,
                "ms",
            ),
            ("sim.cycles".into(), self.sim_cycles, "count"),
            ("sim.steps".into(), self.sim_steps, "count"),
        ]);
        for (i, name) in SELF_NAMES.iter().enumerate() {
            m.push(((*name).into(), self.self_ms[i], "ms"));
        }
        m.extend([
            ("trace.traced_ms".into(), self.traced_ms, "ms"),
            ("trace.overhead_frac".into(), self.overhead_frac, "ratio"),
            (
                "trace.unattributed_frac".into(),
                self.unattributed_frac,
                "ratio",
            ),
        ]);
        m
    }

    /// One-line-per-layer breakdown for the log: self time and share.
    pub fn breakdown(&self) -> String {
        let mut out = String::new();
        for (i, layer) in Layer::ALL.iter().enumerate() {
            if self.self_ms[i] > 0.0 {
                out.push_str(&format!(
                    "  {:<22} {:>10.2} ms  {:>5.1}%\n",
                    layer.name(),
                    self.self_ms[i],
                    100.0 * ratio(self.self_ms[i], self.traced_ms)
                ));
            }
        }
        out
    }
}
