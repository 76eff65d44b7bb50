//! Spans around the benchmark's calls into the program's layers.
//!
//! The benchmark never instruments inside the program: every span wraps
//! one call the benchmark itself makes into a public function of a
//! module (`EventQueue::schedule`, `PbsServer::qsub`, `Maui::iterate`,
//! ...). Spans nest; a span's self time is its duration minus the time
//! its child spans cover. Per-operation aggregates are exact; raw spans
//! are kept in memory up to a cap and written out when the run ends.
//!
//! A tracer that is off records nothing and reads no clock, so the same
//! host loop serves the untraced measurement and the traced breakdown.

use std::io::Write as _;
use std::time::Instant;

/// A module of the program (plus the benchmark's own client and host roles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `simtime::queue` — the event queue.
    Queue,
    /// `workload` — generators and the SWF parser, inside `next()`.
    Workload,
    /// `server::server` — `PbsServer` mutations, reads, snapshots.
    Server,
    /// `sched` — `Maui::iterate`, fairshare charges, DFS bookkeeping.
    Sched,
    /// `sim::batch_sim` — the event loop's own bookkeeping.
    Sim,
    /// `server::reactor` — `poll_batch` minus the apply callback.
    Reactor,
    /// `server::journal` — retain-floor maintenance.
    Journal,
    /// `server::replication` — hub pumps.
    Replication,
    /// The benchmark's client: sending commands, reading acks.
    Client,
    /// The service host loop's own bookkeeping.
    Host,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Queue,
        Layer::Workload,
        Layer::Server,
        Layer::Sched,
        Layer::Sim,
        Layer::Reactor,
        Layer::Journal,
        Layer::Replication,
        Layer::Client,
        Layer::Host,
    ];

    /// The module name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Queue => "simtime::queue",
            Layer::Workload => "workload",
            Layer::Server => "server::server",
            Layer::Sched => "sched",
            Layer::Sim => "sim::batch_sim",
            Layer::Reactor => "server::reactor",
            Layer::Journal => "server::journal",
            Layer::Replication => "server::replication",
            Layer::Client => "client",
            Layer::Host => "host",
        }
    }
}

/// One kind of call the benchmark makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    QSchedule,
    QCancel,
    QPop,
    QPeek,
    WlNext,
    SrvQsub,
    SrvQstat,
    SrvQdel,
    SrvDynget,
    SrvDynfree,
    SrvFinish,
    SrvExpire,
    SrvRead,
    SrvSnapshot,
    SrvApply,
    SchedIterate,
    SchedCharge,
    SchedLeftQueue,
    SimStep,
    SimFeed,
    ReactorPoll,
    JournalRetain,
    ReplPump,
    ClientSend,
    ClientRecv,
    HostBatch,
}

const N_OPS: usize = 26;

impl Op {
    /// Every operation, in declaration order.
    pub const ALL: [Op; N_OPS] = [
        Op::QSchedule,
        Op::QCancel,
        Op::QPop,
        Op::QPeek,
        Op::WlNext,
        Op::SrvQsub,
        Op::SrvQstat,
        Op::SrvQdel,
        Op::SrvDynget,
        Op::SrvDynfree,
        Op::SrvFinish,
        Op::SrvExpire,
        Op::SrvRead,
        Op::SrvSnapshot,
        Op::SrvApply,
        Op::SchedIterate,
        Op::SchedCharge,
        Op::SchedLeftQueue,
        Op::SimStep,
        Op::SimFeed,
        Op::ReactorPoll,
        Op::JournalRetain,
        Op::ReplPump,
        Op::ClientSend,
        Op::ClientRecv,
        Op::HostBatch,
    ];

    /// The layer this call enters.
    pub fn layer(self) -> Layer {
        match self {
            Op::QSchedule | Op::QCancel | Op::QPop | Op::QPeek => Layer::Queue,
            Op::WlNext => Layer::Workload,
            Op::SrvQsub
            | Op::SrvQstat
            | Op::SrvQdel
            | Op::SrvDynget
            | Op::SrvDynfree
            | Op::SrvFinish
            | Op::SrvExpire
            | Op::SrvRead
            | Op::SrvSnapshot
            | Op::SrvApply => Layer::Server,
            Op::SchedIterate | Op::SchedCharge | Op::SchedLeftQueue => Layer::Sched,
            Op::SimStep | Op::SimFeed => Layer::Sim,
            Op::ReactorPoll => Layer::Reactor,
            Op::JournalRetain => Layer::Journal,
            Op::ReplPump => Layer::Replication,
            Op::ClientSend | Op::ClientRecv => Layer::Client,
            Op::HostBatch => Layer::Host,
        }
    }

    /// The span name written to the span dump.
    pub fn name(self) -> &'static str {
        match self {
            Op::QSchedule => "EventQueue::schedule",
            Op::QCancel => "EventQueue::cancel",
            Op::QPop => "EventQueue::pop_group_into",
            Op::QPeek => "EventQueue::peek_time",
            Op::WlNext => "Iterator::next",
            Op::SrvQsub => "PbsServer::qsub",
            Op::SrvQstat => "PbsServer::qstat",
            Op::SrvQdel => "PbsServer::qdel",
            Op::SrvDynget => "PbsServer::tm_dynget",
            Op::SrvDynfree => "PbsServer::tm_dynfree",
            Op::SrvFinish => "PbsServer::job_finished",
            Op::SrvExpire => "PbsServer::expire_dyn_requests",
            Op::SrvRead => "PbsServer::read",
            Op::SrvSnapshot => "PbsServer::snapshot_incremental",
            Op::SrvApply => "PbsServer::apply",
            Op::SchedIterate => "Maui::iterate",
            Op::SchedCharge => "FairshareTracker::charge_span",
            Op::SchedLeftQueue => "DfsEngine::job_left_queue",
            Op::SimStep => "sim::step",
            Op::SimFeed => "sim::feed",
            Op::ReactorPoll => "Reactor::poll_batch",
            Op::JournalRetain => "PbsServer::journal_retain_from",
            Op::ReplPump => "ReplicationHub::pump",
            Op::ClientSend => "ReactorClient::send",
            Op::ClientRecv => "ReactorClient::recv",
            Op::HostBatch => "host::batch",
        }
    }

    /// Operations whose individual durations are kept for percentiles.
    fn sampled(self) -> bool {
        matches!(
            self,
            Op::SchedIterate | Op::SrvQsub | Op::SrvQstat | Op::SrvQdel | Op::SrvDynget
        )
    }
}

/// Exact aggregates of one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStats {
    /// Completed spans.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

/// One raw span as written to the dump.
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    req: u32,
    op: Op,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    start: u64,
    child: u64,
    span: u32,
    op: Op,
}

const NO_SPAN: u32 = u32::MAX;

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    ops: [OpStats; N_OPS],
    samples: Vec<Vec<u64>>,
    spans: Vec<SpanRec>,
    span_cap: usize,
    spans_dropped: u64,
    req: u32,
}

impl Tracer {
    /// A tracer that records when `on`, keeping at most `span_cap` raw
    /// spans (aggregates are always exact).
    pub fn new(on: bool, span_cap: usize) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            stack: Vec::new(),
            ops: [OpStats::default(); N_OPS],
            samples: vec![Vec::new(); N_OPS],
            spans: Vec::new(),
            span_cap,
            spans_dropped: 0,
            req: 0,
        }
    }

    /// An inert tracer (no clock reads, no records).
    pub fn off() -> Self {
        Tracer::new(false, 0)
    }

    /// Tags subsequent spans with request id `req` (a run, a replay, a
    /// command batch): spans of one request share it.
    pub fn set_request(&mut self, req: u32) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span for `op`.
    #[inline]
    pub fn enter(&mut self, op: Op) {
        if !self.on {
            return;
        }
        let start = self.now_ns();
        let parent = self.stack.last().map_or(NO_SPAN, |f| f.span);
        let span = if self.spans.len() < self.span_cap {
            self.spans.push(SpanRec {
                req: self.req,
                op,
                parent,
                start_ns: start,
                end_ns: start,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.spans_dropped += 1;
            NO_SPAN
        };
        self.stack.push(Frame {
            start,
            child: 0,
            span,
            op,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let f = self.stack.pop().expect("exit without a matching enter");
        let dur = end.saturating_sub(f.start);
        let s = &mut self.ops[f.op as usize];
        s.count += 1;
        s.total_ns += dur;
        s.self_ns += dur.saturating_sub(f.child);
        if f.op.sampled() {
            self.samples[f.op as usize].push(dur);
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child += dur;
        }
        if f.span != NO_SPAN {
            self.spans[f.span as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span for `op`.
    #[inline]
    pub fn span<T>(&mut self, op: Op, f: impl FnOnce() -> T) -> T {
        self.enter(op);
        let out = f();
        self.exit();
        out
    }

    /// Aggregates of one operation.
    pub fn op(&self, op: Op) -> OpStats {
        self.ops[op as usize]
    }

    /// Summed self time of every operation in `layer`, nanoseconds.
    pub fn layer_self_ns(&self, layer: Layer) -> u64 {
        Op::ALL
            .iter()
            .filter(|op| op.layer() == layer)
            .map(|op| self.ops[*op as usize].self_ns)
            .sum()
    }

    /// Summed self time over every layer, nanoseconds.
    pub fn total_self_ns(&self) -> u64 {
        self.ops.iter().map(|s| s.self_ns).sum()
    }

    /// Individual durations (ns) of a sampled operation.
    pub fn samples(&self, op: Op) -> &[u64] {
        &self.samples[op as usize]
    }

    /// Writes the raw spans as CSV: one line per span with its request,
    /// its own index, its parent's index, layer, name, start and end
    /// (ns since the tracer was created).
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "req,span,parent,layer,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{},{i},{parent},{},{},{},{}",
                s.req,
                s.op.layer().name(),
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        if self.spans_dropped > 0 {
            writeln!(out, "# {} later spans not kept", self.spans_dropped)?;
        }
        out.flush()
    }
}
