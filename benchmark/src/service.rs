//! `service-mix`: the client command path on the testbed.
//!
//! Seeded scripts from `reactor_drive::script_from_stream` (qsub, qdel,
//! dynget, dynfree, qstat and malformed lines) plus two extra `qstat`
//! polls per submission, so reads outnumber writes, go through one
//! `Reactor` connection in fixed-size batches. A run cycles through
//! [`SCRIPTS`] scripts derived from its seed, each served by a fresh
//! leader and follower (a pass). One host thread serves, the way the
//! daemon does:
//!
//! * finishes jobs whose walltime has ended (a scheduler cycle at each
//!   end) and expires overdue negotiations;
//! * applies each command to a journaled `PbsServer`; the reactor
//!   group-commits and acks on append;
//! * runs `snapshot_incremental → iterate → apply` once per batch;
//! * raises the journal's retain floor to the replicated watermark + 1
//!   and pumps one hot follower.
//!
//! The same thread plays the client (send a batch, read its acks), so a
//! run uses two threads: the host and the follower. The unit of work is
//! one command; the unit of latency is one batch, first send to last ack.
//! Every round repeats the same deterministic batches, so each batch is
//! timed at its fastest round
//! ([`fastest_per_unit`](crate::report::fastest_per_unit)).

use crate::report::{fastest_per_unit, median, percentile, ratio, Gate, Layers};
use crate::trace::{Op, Tracer};
use crate::traced_sim::{Fingerprint, LoopCounts};
use crate::{alloc, timed_setups, Ctx, Outcome, SPAN_CAP};
use dynbatch_cluster::Cluster;
use dynbatch_core::{CredRegistry, DfsConfig, JobId, SchedulerConfig, SimDuration, SimTime};
use dynbatch_sched::Maui;
use dynbatch_server::reactor::{apply_to_server, parse_command, BatchEvent, Command, Reply};
use dynbatch_server::replication::{HubConfig, HubStats, ReplicationHub};
use dynbatch_server::{Applied, PbsServer, Reactor};
use dynbatch_sim::script_from_stream;
use dynbatch_simtime::SplitMix64;
use dynbatch_workload::{stream_synthetic, SyntheticConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Scripts per run, each from its own seed derived from the run's.
const SCRIPTS: usize = 8;
/// Jobs in the workload each script is derived from.
const JOBS: usize = 500;
/// Commands per reactor batch.
const BATCH: usize = 64;
/// Extra `qstat` polls per well-formed submission.
const POLLS_PER_QSUB: usize = 2;
/// Journal compaction interval, as in the daemon.
const SNAPSHOT_EVERY: usize = 64;

struct Batch {
    at: SimTime,
    lines: Vec<String>,
}

fn sched() -> SchedulerConfig {
    let mut s = SchedulerConfig::paper_eval();
    s.dfs = DfsConfig::uniform_target(500, SimDuration::from_hours(1));
    s
}

/// Builds the run's scripts and warms the serving path up with one pass.
fn setup(seed: u64, sched: &SchedulerConfig) -> Vec<Vec<Batch>> {
    let mut rng = SplitMix64::new(seed);
    let scripts: Vec<Vec<Batch>> = (0..SCRIPTS).map(|_| script(rng.next_u64())).collect();
    pass(&scripts[0], sched, &mut Tracer::off());
    scripts
}

/// Builds one seeded command script and cuts it into batches.
fn script(seed: u64) -> Vec<Batch> {
    let stream = stream_synthetic(
        &SyntheticConfig {
            seed,
            jobs: JOBS,
            users: 16,
            total_cores: 120,
            mean_interarrival: SimDuration::from_secs(40),
            runtime_secs: (60, 1800),
            cores: (1, 16),
            evolving_fraction: 0.3,
            extra_cores: 4,
            det_factor: 0.7,
        },
        &mut CredRegistry::new(),
    );
    let script = script_from_stream(stream, seed);
    let mut rng = SplitMix64::new(seed).derive(0x9057);
    let mut submitted = 0u64;
    let mut steps: Vec<(SimTime, String)> = Vec::new();
    for step in script.steps {
        let qsub = matches!(parse_command(&step.line), Ok(Command::QSub(_)));
        let at = step.at;
        steps.push((at, step.line));
        if qsub {
            submitted += 1;
            for _ in 0..POLLS_PER_QSUB {
                steps.push((at, format!("qstat {}", 1 + rng.next_below(submitted))));
            }
        }
    }
    steps
        .chunks(BATCH)
        .map(|chunk| Batch {
            at: chunk.last().expect("chunks are non-empty").0,
            lines: chunk.iter().map(|(_, l)| l.clone()).collect(),
        })
        .collect()
}

fn op_of(cmd: &Command) -> Op {
    match cmd {
        Command::QSub(_) => Op::SrvQsub,
        Command::QStat(_) => Op::SrvQstat,
        Command::QDel(_) => Op::SrvQdel,
        Command::DynGet { .. } => Op::SrvDynget,
        Command::DynFree { .. } => Op::SrvDynfree,
    }
}

/// Server + scheduler + the world-advance rule (job ends at
/// `start + walltime`, earliest first, a cycle at each end).
struct World {
    server: PbsServer,
    maui: Maui,
    ends: BinaryHeap<Reverse<(SimTime, JobId)>>,
    counts: LoopCounts,
}

impl World {
    fn new(sched: &SchedulerConfig) -> Self {
        let mut server = PbsServer::new(Cluster::homogeneous(15, 8), sched.alloc);
        server.enable_journal(SNAPSHOT_EVERY);
        World {
            server,
            maui: Maui::new(sched.clone()),
            ends: BinaryHeap::new(),
            counts: LoopCounts::default(),
        }
    }

    fn cycle(&mut self, now: SimTime, tr: &mut Tracer) {
        self.counts.cycles += 1;
        let snap = tr.span(Op::SrvSnapshot, || self.server.snapshot_incremental(now));
        self.counts.note_snapshot(&snap);
        let outcome = tr.span(Op::SchedIterate, || self.maui.iterate(&snap));
        self.counts.note_outcome(&outcome);
        self.counts.mutations += 1;
        let applied = tr.span(Op::SrvApply, || self.server.apply(&outcome, now));
        for action in applied {
            if let Applied::Started { job, .. } = action {
                let end = tr.span(Op::SrvRead, || {
                    self.server
                        .job(job)
                        .ok()
                        .and_then(|j| j.start_time.map(|s| s + j.spec.walltime))
                });
                if let Some(end) = end {
                    self.ends.push(Reverse((end, job)));
                }
            }
        }
    }

    fn advance_to(&mut self, now: SimTime, tr: &mut Tracer) {
        while let Some(&Reverse((end, job))) = self.ends.peek() {
            if end > now {
                break;
            }
            self.ends.pop();
            let due = tr.span(Op::SrvRead, || {
                self.server.job(job).is_ok_and(|j| {
                    j.state.is_active() && j.start_time.map(|s| s + j.spec.walltime) == Some(end)
                })
            });
            if !due {
                continue;
            }
            self.counts.mutations += 1;
            let _ = tr.span(Op::SrvFinish, || self.server.job_finished(job, end));
            tr.span(Op::SchedLeftQueue, || {
                self.maui.dfs_mut().job_left_queue(job)
            });
            self.cycle(end, tr);
        }
        self.counts.mutations += 1;
        tr.span(Op::SrvExpire, || self.server.expire_dyn_requests(now));
    }

    fn appended(&self) -> u64 {
        self.server.journal().map_or(0, |j| j.total_appended())
    }

    fn snapshot_pos(&self) -> Option<u64> {
        self.server
            .journal()
            .and_then(|j| j.latest_snapshot())
            .map(|(pos, _)| pos)
    }
}

/// What one pass over the script produced.
struct Pass {
    wall_s: f64,
    /// Per batch: first send to last ack.
    batch_us: Vec<f64>,
    /// Per batch: the host's whole step (job ends, the batch, the
    /// scheduler cycle, retain and pump); they add up to `wall_s`.
    step_us: Vec<f64>,
    replies: Vec<Option<Reply>>,
    leader: Fingerprint,
    follower: Option<String>,
    errors: Vec<String>,
    hub: HubStats,
    lags: Vec<f64>,
    records: u64,
    compactions: u64,
    converge_ms: f64,
    batches: u64,
    denied_parse: u64,
    peak: usize,
    counts: LoopCounts,
}

/// One pass through the reactor with a fresh leader and follower.
fn pass(batches: &[Batch], sched: &SchedulerConfig, tr: &mut Tracer) -> Pass {
    let base = alloc::reset_peak();
    let mut reactor = Reactor::new();
    reactor.set_reply_capacity(BATCH + 1);
    let client = reactor.connect();
    let mut world = World::new(sched);
    let mut hub = ReplicationHub::new(HubConfig::default());
    hub.add_follower("benchrep0");
    // Seeds the follower with the journal's genesis snapshot.
    let mut errors = hub.pump(&world.server).errors;

    let mut batch_us = Vec::with_capacity(batches.len());
    let mut step_us = Vec::with_capacity(batches.len());
    let mut replies = Vec::new();
    let mut lags = Vec::with_capacity(batches.len());
    let mut compactions = 0u64;
    let mut missing = 0usize;
    let mut snap_pos = world.snapshot_pos();
    let t_pass = Instant::now();
    for (b, batch) in batches.iter().enumerate() {
        let t_step = Instant::now();
        let now = batch.at;
        tr.set_request(b as u32);
        tr.enter(Op::HostBatch);
        world.advance_to(now, tr);
        let t0 = Instant::now();
        for line in &batch.lines {
            tr.span(Op::ClientSend, || client.send(line));
        }
        tr.enter(Op::ReactorPoll);
        reactor.poll_batch(u64::MAX, |ev| match ev {
            BatchEvent::Apply { cmd, .. } => {
                let op = op_of(cmd);
                if op != Op::SrvQstat {
                    world.counts.mutations += 1;
                }
                Some(tr.span(op, || apply_to_server(&mut world.server, cmd, now)))
            }
            BatchEvent::Commit => None,
        });
        tr.exit();
        for _ in &batch.lines {
            // Acks are flushed before `poll_batch` returns. Once one is
            // missing the pass has failed; stop waiting so a broken build
            // still ends in bounded time.
            let wait = if missing == 0 {
                Duration::from_secs(2)
            } else {
                Duration::ZERO
            };
            let reply = tr.span(Op::ClientRecv, || client.recv_timeout(wait));
            missing += usize::from(reply.is_none());
            replies.push(reply);
        }
        batch_us.push(t0.elapsed().as_secs_f64() * 1e6);
        world.cycle(now, tr);
        if let Some(w) = hub.replicated_watermark() {
            tr.span(Op::JournalRetain, || {
                world.server.journal_retain_from(w + 1)
            });
        }
        let report = tr.span(Op::ReplPump, || hub.pump(&world.server));
        lags.push(report.target.saturating_sub(report.replicated.unwrap_or(0)) as f64);
        errors.extend(report.errors);
        let pos = world.snapshot_pos();
        if pos != snap_pos {
            compactions += 1;
            snap_pos = pos;
        }
        tr.exit();
        step_us.push(t_step.elapsed().as_secs_f64() * 1e6);
        if missing > 0 || !errors.is_empty() {
            break; // the pass has failed; the gate reports it
        }
    }
    let wall_s = t_pass.elapsed().as_secs_f64();
    let peak = alloc::peak_above(base);

    // Drain the stream to the follower and compare replicas.
    let target = world.appended();
    let t0 = Instant::now();
    for _ in 0..1_000 {
        errors.extend(hub.pump(&world.server).errors);
        hub.refresh_acks();
        if !errors.is_empty() || hub.replicated_watermark().is_none_or(|w| w >= target) {
            break;
        }
    }
    let converge_ms = t0.elapsed().as_secs_f64() * 1e3;
    let follower = hub.follower_digest(0);
    let stats = hub.stats();
    hub.shutdown();
    let rs = reactor.stats();
    Pass {
        wall_s,
        batch_us,
        step_us,
        replies,
        leader: Fingerprint::of(&world.server),
        follower,
        errors,
        hub: stats,
        lags,
        records: target,
        compactions,
        converge_ms,
        batches: rs.batches,
        denied_parse: rs.denied_parse,
        peak,
        counts: world.counts,
    }
}

/// The no-reactor replay: the same batches and world-advance rule, each
/// line parsed and applied directly.
fn reference(batches: &[Batch], sched: &SchedulerConfig) -> (Vec<Reply>, Fingerprint) {
    let mut tr = Tracer::off();
    let mut world = World::new(sched);
    let mut replies = Vec::new();
    for batch in batches {
        world.advance_to(batch.at, &mut tr);
        for line in &batch.lines {
            replies.push(match parse_command(line) {
                Ok(cmd) => apply_to_server(&mut world.server, &cmd, batch.at),
                Err(e) => Reply::Denied(e),
            });
        }
        world.cycle(batch.at, &mut tr);
    }
    (replies, Fingerprint::of(&world.server))
}

fn check_pass(gate: &mut Gate, p: &Pass, cmds: usize, first: Option<&Fingerprint>) {
    let answered = p.replies.iter().filter(|r| r.is_some()).count();
    gate.check("service.answered", answered == cmds, || {
        format!("{answered} of {cmds} commands acked")
    });
    gate.check("service.replication_errors", p.errors.is_empty(), || {
        p.errors.join("; ")
    });
    gate.check(
        "service.follower_digest",
        p.follower.as_deref() == Some(p.leader.state.as_str()),
        || "follower digest differs from the leader's after convergence".into(),
    );
    gate.check("service.snapshots_sent", p.hub.snapshots_sent <= 1, || {
        format!(
            "{} snapshot transfers; only the genesis seed is expected",
            p.hub.snapshots_sent
        )
    });
    if let Some(first) = first {
        gate.check("service.repeatable", *first == p.leader, || {
            "leader fingerprint changed between passes".into()
        });
    }
}

/// Runs rounds of passes (every script once per round, round-major
/// order) until `budget` has elapsed, at least one round. Every pass is
/// checked, and against `anchor[i]`, an earlier pass of script `i`.
fn rounds(
    scripts: &[Vec<Batch>],
    sched: &SchedulerConfig,
    tr: &mut Tracer,
    budget: Duration,
    gate: &mut Gate,
    anchor: Option<&[Pass]>,
) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < budget {
        for (i, script) in scripts.iter().enumerate() {
            tr.set_request(passes.len() as u32);
            let p = pass(script, sched, tr);
            let first = anchor.unwrap_or(&passes).get(i).map(|f| &f.leader);
            check_pass(gate, &p, commands(script), first);
            passes.push(p);
        }
    }
    passes
}

fn commands(script: &[Batch]) -> usize {
    script.iter().map(|b| b.lines.len()).sum()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sched = sched();
    let (setup_s, scripts) = timed_setups(|| setup(ctx.seed, &sched));
    let mut gate = Gate::default();
    let budget = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let passes = rounds(
        &scripts,
        &sched,
        &mut Tracer::off(),
        budget,
        &mut gate,
        None,
    );

    // Each script's leader must equal a no-reactor replay of the same
    // batches, reply for reply.
    for (script, first) in scripts.iter().zip(&passes) {
        let (ref_replies, ref_fp) = reference(script, &sched);
        gate.check("service.replay_digest", first.leader == ref_fp, || {
            "leader state differs from the no-reactor replay".into()
        });
        let same_replies = first.replies.len() == ref_replies.len()
            && first
                .replies
                .iter()
                .zip(&ref_replies)
                .all(|(a, b)| a.as_ref() == Some(b));
        gate.check("service.replay_replies", same_replies, || {
            "replies differ from the no-reactor replay".into()
        });
    }

    let round_cmds: usize = scripts.iter().map(|s| commands(s)).sum();
    let n_rounds = passes.len() / SCRIPTS;
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    // Every round repeats the same deterministic batches; each batch is
    // timed at its fastest round (see `fastest_per_unit`).
    let per_round = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        let rounds: Vec<Vec<f64>> = passes
            .chunks(SCRIPTS)
            .map(|round| round.iter().flat_map(|p| f(p).iter().copied()).collect())
            .collect();
        fastest_per_unit(&rounds)
    };
    let step_us = per_round(|p| &p.step_us);
    let batch_us = per_round(|p| &p.batch_us);
    let peaks: Vec<f64> = passes.iter().map(|p| p.peak as f64).collect();
    let mut out = Outcome::new("command");
    out.attempted = (round_cmds * n_rounds) as u64;
    out.failed = passes
        .iter()
        .map(|p| p.replies.iter().filter(|r| r.is_none()).count() as u64)
        .sum();
    out.e2e.setup_s = setup_s;
    out.e2e.work_per_s = round_cmds as f64 / (step_us.iter().sum::<f64>() / 1e6);
    out.e2e.latency_us_p50 = percentile(&batch_us, 50.0);
    out.e2e.latency_us_p99 = percentile(&batch_us, 99.0);
    out.e2e.peak_mib = median(&peaks) / (1u64 << 20) as f64;
    out.named = vec![
        ("service_cmds_per_s", out.e2e.work_per_s, "1/s"),
        ("service_batch_us_p50", out.e2e.latency_us_p50, "us"),
        ("service_batch_us_p99", out.e2e.latency_us_p99, "us"),
    ];
    if !ctx.trace {
        out.gate = gate;
        return out;
    }

    // Traced rounds: the host loop carries the spans; every traced pass
    // must end on its script's untraced leader state.
    let mut tr = Tracer::new(true, SPAN_CAP);
    let traced = rounds(&scripts, &sched, &mut tr, budget, &mut gate, Some(&passes));
    let traced_s: f64 = traced.iter().map(|p| p.wall_s).sum();
    let traced_rounds = (traced.len() / SCRIPTS) as f64;
    let traced_cmds = round_cmds as f64 * traced_rounds;
    let mut layers = Layers::from_tracer(&tr, (traced_s * 1e9) as u64);
    let mut counts = LoopCounts::default();
    for p in &traced {
        counts.merge(&p.counts);
    }
    layers.add_sched_counts(&counts);
    let sum = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(f).sum::<f64>();
    layers.reactor_batches = sum(&|p| p.batches as f64);
    layers.reactor_cmds_per_batch = ratio(traced_cmds, layers.reactor_batches);
    layers.reactor_denied = sum(&|p| p.denied_parse as f64);
    layers.journal_records = sum(&|p| p.records as f64);
    layers.journal_records_per_cmd = ratio(layers.journal_records, traced_cmds);
    layers.journal_compactions = sum(&|p| p.compactions as f64);
    layers.repl_records_sent = sum(&|p| p.hub.records_sent as f64);
    layers.repl_snapshots_sent = sum(&|p| p.hub.snapshots_sent as f64);
    let lags: Vec<f64> = traced.iter().flat_map(|p| p.lags.iter().copied()).collect();
    layers.repl_lag_records_p50 = percentile(&lags, 50.0);
    layers.repl_lag_records_p99 = percentile(&lags, 99.0);
    layers.repl_converge_ms = median(&traced.iter().map(|p| p.converge_ms).collect::<Vec<_>>());
    layers.overhead_frac = (traced_s / traced_rounds) / (wall_s / n_rounds as f64) - 1.0;
    out.layers = Some(layers);
    out.tracer = Some(tr);
    out.gate = gate;
    out
}
