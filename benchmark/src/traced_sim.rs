//! The traced event loop: the calls `BatchSim` makes, made from here.
//!
//! `BatchSim` keeps its loop private, so a traced breakdown cannot wrap
//! its internals without instrumenting the program. Instead this module
//! drives the same public modules — `EventQueue`, `PbsServer`, `Maui`,
//! the workload stream — in the same order `BatchSim::run_streamed` and
//! `BatchSim::step` do, with a span around every call. The run must end
//! on the same fingerprint (state digest + accounting digest) as the
//! untraced `BatchSim` run of the same input; the correctness gate
//! checks it on every workload that uses this loop.
//!
//! Supported execution models are the ones the simulator workloads
//! produce: fixed-duration and ESP-style evolving jobs (with or without
//! negotiation timeouts). Anything else is reported as unsupported
//! rather than approximated.

use crate::trace::{Op, Tracer};
use dynbatch_cluster::Cluster;
use dynbatch_core::{
    ExecutionModel, FairshareMode, JobId, JobSpec, SchedulerConfig, SimDuration, SimTime,
};
use dynbatch_metrics::UtilizationRecorder;
use dynbatch_sched::incremental::ProfileDelta;
use dynbatch_sched::{DynDecision, IterationOutcome, Maui};
use dynbatch_server::{Applied, PbsServer};
use dynbatch_sim::Event;
use dynbatch_simtime::{EventQueue, ScheduledEvent, Token};
use dynbatch_workload::WorkloadItem;
use std::collections::{HashMap, VecDeque};

/// End-state identity of a run: `PbsServer::state_digest` plus the
/// accounting ledger's rolling digest (what `RunFingerprint` holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub state: String,
    pub accounting: u64,
}

impl Fingerprint {
    /// The fingerprint of `server`'s current state.
    pub fn of(server: &PbsServer) -> Self {
        Fingerprint {
            state: server.state_digest(),
            accounting: server.accounting().digest(),
        }
    }
}

/// Counts the loop makes at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct LoopCounts {
    pub steps: u64,
    pub cycles: u64,
    pub items: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    pub stale_pops: u64,
    pub mutations: u64,
    pub snapshots: u64,
    pub snapshot_deltas: u64,
    pub rebuilds_needed: u64,
    pub dyn_evaluated: u64,
    pub dyn_granted: u64,
    pub queue_depths: Vec<u32>,
    /// Epoch of the last delta log seen (continuity tracking).
    last_epoch: Option<u64>,
}

impl LoopCounts {
    /// Adds `other`'s counts to these.
    pub fn merge(&mut self, other: &LoopCounts) {
        self.steps += other.steps;
        self.cycles += other.cycles;
        self.items += other.items;
        self.scheduled += other.scheduled;
        self.cancelled += other.cancelled;
        self.stale_pops += other.stale_pops;
        self.mutations += other.mutations;
        self.snapshots += other.snapshots;
        self.snapshot_deltas += other.snapshot_deltas;
        self.rebuilds_needed += other.rebuilds_needed;
        self.dyn_evaluated += other.dyn_evaluated;
        self.dyn_granted += other.dyn_granted;
        self.queue_depths.extend_from_slice(&other.queue_depths);
    }

    /// Delta-log bookkeeping: how many deltas each snapshot carries and
    /// whether the log continues the previous one (otherwise the
    /// scheduler's timeline has to rebuild from the running set).
    pub fn note_snapshot(&mut self, snap: &dynbatch_sched::Snapshot) {
        self.snapshots += 1;
        self.queue_depths.push(snap.queued.len() as u32);
        match &snap.deltas {
            Some(log) => {
                self.snapshot_deltas += log.deltas.len() as u64;
                let continuous = self.last_epoch == Some(log.base_epoch)
                    && !log
                        .deltas
                        .iter()
                        .any(|d| matches!(d, ProfileDelta::CapacityChanged));
                if !continuous {
                    self.rebuilds_needed += 1;
                }
                self.last_epoch = Some(log.epoch);
            }
            None => {
                self.rebuilds_needed += 1;
                self.last_epoch = None;
            }
        }
    }

    /// Counts one iteration's dynamic decisions.
    pub fn note_outcome(&mut self, outcome: &IterationOutcome) {
        self.dyn_evaluated += outcome.dyn_decisions.len() as u64;
        self.dyn_granted += outcome
            .dyn_decisions
            .iter()
            .filter(|d| d.is_granted())
            .count() as u64;
    }
}

struct Run {
    gen: u64,
    start: SimTime,
    finish_token: Option<Token>,
    /// `Some(granted)` for evolving jobs.
    evolving: Option<bool>,
}

/// The traced simulator (one run per value).
pub struct TracedSim {
    queue: EventQueue<Event>,
    server: PbsServer,
    maui: Maui,
    util: UtilizationRecorder,
    base: u32,
    slots: VecDeque<Option<JobSpec>>,
    stream_last_at: Option<SimTime>,
    runs: HashMap<JobId, Run>,
    gens: HashMap<JobId, u64>,
    batch: Vec<ScheduledEvent<Event>>,
    dyn_log: Option<Vec<(SimTime, DynDecision)>>,
    /// First unsupported construct met, if any.
    pub unsupported: Option<String>,
    pub counts: LoopCounts,
    pub tr: Tracer,
}

impl TracedSim {
    /// Mirrors `BatchSim::new(cluster, config)`.
    pub fn new(cluster: Cluster, config: SchedulerConfig, tr: Tracer) -> Self {
        let capacity = cluster.total_cores();
        let mut server = PbsServer::new(cluster, config.alloc);
        server.set_guarantee_evolving(config.guarantee_evolving);
        server.set_usage_half_life(config.fairshare.half_life);
        server.set_publish_usage(config.fairshare.mode == FairshareMode::TimeAware);
        TracedSim {
            queue: EventQueue::new(),
            server,
            maui: Maui::new(config),
            util: UtilizationRecorder::new(capacity, SimTime::ZERO),
            base: 0,
            slots: VecDeque::new(),
            stream_last_at: None,
            runs: HashMap::new(),
            gens: HashMap::new(),
            batch: Vec::new(),
            dyn_log: Some(Vec::new()),
            unsupported: None,
            counts: LoopCounts::default(),
            tr,
        }
    }

    /// Mirrors `BatchSim::set_low_memory(true)`.
    pub fn set_low_memory(&mut self) {
        self.server.set_accounting_retention(false);
        self.server.set_job_retention(false);
        self.util.set_samples_enabled(false);
        self.dyn_log = None;
    }

    /// The server (for the end-of-run checks).
    pub fn server(&self) -> &PbsServer {
        &self.server
    }

    /// Runs `stream` to completion. `window: None` admits everything up
    /// front (`BatchSim::load` + `run`); `Some(w)` admits lazily within
    /// `w` of the earliest pending event (`BatchSim::run_streamed`).
    pub fn run<S>(&mut self, mut stream: S, window: Option<SimDuration>)
    where
        S: Iterator<Item = WorkloadItem>,
    {
        let Some(window) = window else {
            self.tr.enter(Op::SimFeed);
            while let Some(item) = self.tr.span(Op::WlNext, || stream.next()) {
                self.admit(item);
            }
            self.tr.exit();
            while self.unsupported.is_none() && self.step() {}
            return;
        };
        let mut pending: Option<WorkloadItem> = None;
        while self.unsupported.is_none() {
            self.tr.enter(Op::SimFeed);
            self.feed(&mut stream, &mut pending, window);
            self.tr.exit();
            if !self.step() {
                break;
            }
        }
    }

    fn feed<S>(&mut self, stream: &mut S, pending: &mut Option<WorkloadItem>, window: SimDuration)
    where
        S: Iterator<Item = WorkloadItem>,
    {
        loop {
            if pending.is_none() {
                *pending = self.tr.span(Op::WlNext, || stream.next());
            }
            let Some(item) = pending.as_ref() else {
                return;
            };
            let horizon = self
                .tr
                .span(Op::QPeek, || self.queue.peek_time())
                .unwrap_or(item.at);
            if item.at > horizon.saturating_add(window) {
                return;
            }
            let item = pending.take().expect("checked above");
            if self.stream_last_at.is_some_and(|last| item.at < last) {
                self.unsupported = Some("stream out of submit-time order".into());
                return;
            }
            self.stream_last_at = Some(item.at);
            self.admit(item);
        }
    }

    fn admit(&mut self, item: WorkloadItem) {
        self.counts.items += 1;
        let idx = self.base + self.slots.len() as u32;
        self.schedule(item.at, Event::Submit(idx));
        self.slots.push_back(Some(item.spec));
    }

    fn take_slot(&mut self, idx: u32) -> Option<JobSpec> {
        let off = idx.checked_sub(self.base)? as usize;
        let spec = self.slots.get_mut(off)?.take()?;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(spec)
    }

    fn schedule(&mut self, at: SimTime, ev: Event) -> Token {
        self.counts.scheduled += 1;
        self.tr.span(Op::QSchedule, || self.queue.schedule(at, ev))
    }

    fn cancel(&mut self, token: Token) {
        self.counts.cancelled += 1;
        self.tr.span(Op::QCancel, || self.queue.cancel(token));
    }

    fn step(&mut self) -> bool {
        self.tr.enter(Op::SimStep);
        let more = self.step_inner();
        self.tr.exit();
        more
    }

    fn step_inner(&mut self) -> bool {
        let mut batch = std::mem::take(&mut self.batch);
        let Some(now) = self
            .tr
            .span(Op::QPop, || self.queue.pop_group_into(&mut batch))
        else {
            self.batch = batch;
            return false;
        };
        self.counts.steps += 1;
        loop {
            batch.sort_by_key(|ev| !matches!(ev.payload, Event::Submit(_)));
            for ev in batch.drain(..) {
                self.apply_event(ev.payload, now);
            }
            if self.tr.span(Op::QPeek, || self.queue.peek_time()) != Some(now) {
                break;
            }
            self.tr
                .span(Op::QPop, || self.queue.pop_group_into(&mut batch));
        }
        self.batch = batch;
        self.run_cycle(now);
        let busy = self
            .tr
            .span(Op::SrvRead, || self.server.cluster().busy_cores());
        self.util.record(now, busy);
        true
    }

    fn is_current(&self, job: JobId, gen: u64) -> bool {
        self.gens.get(&job).copied().unwrap_or(0) == gen && self.runs.contains_key(&job)
    }

    fn stale(&mut self, job: JobId, gen: u64) -> bool {
        let stale = !self.is_current(job, gen);
        if stale {
            self.counts.stale_pops += 1;
        }
        stale
    }

    fn mutation(&mut self) {
        self.counts.mutations += 1;
    }

    fn apply_event(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Submit(idx) => {
                let Some(spec) = self.take_slot(idx) else {
                    self.unsupported = Some(format!("submit of unknown item {idx}"));
                    return;
                };
                self.mutation();
                if let Err(e) = self.tr.span(Op::SrvQsub, || self.server.qsub(spec, now)) {
                    self.unsupported = Some(format!("qsub refused: {e}"));
                }
            }
            Event::Finish { job, gen } => {
                if self.stale(job, gen) {
                    return;
                }
                self.finish_job(job, now);
            }
            Event::WallKill { job, gen } => {
                if self.stale(job, gen) {
                    return;
                }
                let active = self.tr.span(Op::SrvRead, || {
                    self.server
                        .job(job)
                        .map(|j| j.state.is_active())
                        .unwrap_or(false)
                });
                if active {
                    self.cancel_run_events(job);
                    self.runs.remove(&job);
                    self.charge_fairshare(job, now);
                    self.mutation();
                    let _ = self.tr.span(Op::SrvQdel, || self.server.qdel(job, now));
                }
            }
            Event::RequestPoint { job, gen, .. } => {
                if self.stale(job, gen) {
                    return;
                }
                match self.runs[&job].evolving {
                    Some(false) => {}
                    _ => return,
                }
                let (extra, timeout) = self.tr.span(Op::SrvRead, || {
                    let spec = &self.server.job(job).expect("running job exists").spec;
                    (spec.exec.extra_cores(), spec.dyn_timeout)
                });
                self.mutation();
                match timeout {
                    None => {
                        let _ = self
                            .tr
                            .span(Op::SrvDynget, || self.server.tm_dynget(job, extra, now));
                    }
                    Some(t) => {
                        let deadline = now + t;
                        let ok = self.tr.span(Op::SrvDynget, || {
                            self.server
                                .tm_dynget_negotiated(job, extra, Some(deadline), now)
                                .is_ok()
                        });
                        if ok {
                            self.schedule(deadline, Event::DynExpire { job, gen });
                        }
                    }
                }
            }
            Event::DynExpire { job, gen } => {
                if self.stale(job, gen) {
                    return;
                }
                self.mutation();
                self.tr
                    .span(Op::SrvExpire, || self.server.expire_dyn_requests(now));
            }
            other => {
                self.unsupported = Some(format!("event {other:?}"));
                return;
            }
        }
        let busy = self
            .tr
            .span(Op::SrvRead, || self.server.cluster().busy_cores());
        self.util.record(now, busy);
    }

    fn run_cycle(&mut self, now: SimTime) {
        self.counts.cycles += 1;
        let snapshot = self
            .tr
            .span(Op::SrvSnapshot, || self.server.snapshot_incremental(now));
        self.counts.note_snapshot(&snapshot);
        let outcome = self
            .tr
            .span(Op::SchedIterate, || self.maui.iterate(&snapshot));
        self.counts.note_outcome(&outcome);
        if let Some(log) = self.dyn_log.as_mut() {
            for d in &outcome.dyn_decisions {
                log.push((now, d.clone()));
            }
        }
        self.mutation();
        let applied = self
            .tr
            .span(Op::SrvApply, || self.server.apply(&outcome, now));
        for action in applied {
            match action {
                Applied::Started { job, .. } => {
                    if self.maui.config().grow_malleable_on_idle {
                        self.unsupported = Some("grow_malleable_on_idle".into());
                    }
                    self.on_started(job, now);
                }
                Applied::DynGranted { job, .. } => {
                    self.on_granted(job, now);
                }
                Applied::Preempted { job } => {
                    self.cancel_run_events(job);
                    self.runs.remove(&job);
                    *self.gens.entry(job).or_insert(0) += 1;
                }
                Applied::Resized { .. } => {
                    self.unsupported = Some("malleable resize".into());
                }
                Applied::DynRejected { .. } | Applied::DynDeferred { .. } => {}
            }
        }
    }

    fn on_started(&mut self, job: JobId, now: SimTime) {
        let (exec, walltime) = self.tr.span(Op::SrvRead, || {
            let j = self.server.job(job).expect("started job exists");
            (j.spec.exec.clone(), j.spec.walltime)
        });
        let gen = self.gens.get(&job).copied().unwrap_or(0);
        let mut run = Run {
            gen,
            start: now,
            finish_token: None,
            evolving: None,
        };
        match &exec {
            ExecutionModel::Fixed { duration } => {
                run.finish_token = Some(self.schedule(now + *duration, Event::Finish { job, gen }));
            }
            ExecutionModel::Evolving { set, .. } => {
                run.evolving = Some(false);
                run.finish_token = Some(self.schedule(now + *set, Event::Finish { job, gen }));
                for (i, offset) in exec.request_offsets().into_iter().enumerate() {
                    self.schedule(
                        now + offset,
                        Event::RequestPoint {
                            job,
                            gen,
                            attempt: i as u32,
                        },
                    );
                }
            }
            other => {
                self.unsupported = Some(format!("execution model {other:?}"));
            }
        }
        self.schedule(
            now + walltime + SimDuration::from_millis(1),
            Event::WallKill { job, gen },
        );
        self.runs.insert(job, run);
    }

    fn on_granted(&mut self, job: JobId, now: SimTime) {
        let Some(run) = self.runs.get(&job) else {
            return;
        };
        if run.evolving.is_none() {
            return;
        }
        let (start, gen) = (run.start, run.gen);
        let exec = self.tr.span(Op::SrvRead, || {
            self.server
                .job(job)
                .expect("granted job exists")
                .spec
                .exec
                .clone()
        });
        let total = exec
            .evolved_total(now.duration_since(start))
            .expect("evolving job has an evolution model");
        if let Some(tok) = self.runs.get_mut(&job).and_then(|r| r.finish_token.take()) {
            self.cancel(tok);
        }
        let token = self.schedule(start + total, Event::Finish { job, gen });
        let run = self.runs.get_mut(&job).expect("run exists");
        run.finish_token = Some(token);
        run.evolving = Some(true);
    }

    fn finish_job(&mut self, job: JobId, now: SimTime) {
        self.cancel_run_events(job);
        self.runs.remove(&job);
        self.charge_fairshare(job, now);
        self.mutation();
        if let Err(e) = self
            .tr
            .span(Op::SrvFinish, || self.server.job_finished(job, now))
        {
            self.unsupported = Some(format!("job_finished refused: {e}"));
        }
        self.tr.span(Op::SchedLeftQueue, || {
            self.maui.dfs_mut().job_left_queue(job)
        });
    }

    fn charge_fairshare(&mut self, job: JobId, now: SimTime) {
        let charge = self.tr.span(Op::SrvRead, || {
            self.server.job(job).ok().and_then(|j| {
                j.start_time.map(|start| {
                    (
                        j.spec.user,
                        j.cores_allocated.max(j.spec.cores),
                        now.duration_since(start),
                    )
                })
            })
        });
        if let Some((user, cores, span)) = charge {
            self.tr.span(Op::SchedCharge, || {
                self.maui.fairshare_mut().charge_span(user, cores, span)
            });
        }
    }

    fn cancel_run_events(&mut self, job: JobId) {
        if let Some(tok) = self.runs.get_mut(&job).and_then(|r| r.finish_token.take()) {
            self.cancel(tok);
        }
    }
}
