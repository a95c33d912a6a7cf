//! The traced run: spans around every call the benchmark makes into a
//! layer's public function, and the per-layer metrics built from them.
//!
//! Spans are kept in memory and written out as JSON lines at exit. Spans
//! of one operation (one program through one path in one repetition)
//! share an id; a span's self time is its duration minus the time its
//! children cover.

use crate::bench::{median, Metric, Pass, Report};
use crate::clock::{Stamp, Times};
use crate::paths::{Path, DAEMON_CHECKPOINT_EVERY};
use crate::programs::Program;
use futrace::offline::framed;
use futrace::service::{Session, SessionConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call. Times are process CPU time and wall time since the
/// tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the operation the span belongs to.
    pub op: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub cpu: (Duration, Duration),
    pub wall: (Duration, Duration),
}

/// One operation: a program through one path in one repetition.
#[derive(Clone, Debug)]
pub struct Op {
    pub rep: usize,
    pub program: String,
}

/// Times operations, and when it records, keeps a span of every
/// operation and of every call inside one.
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub ops: Vec<Op>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans, or with `recording` false one that
    /// only times operations.
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Runs `f` as one operation and returns its result with the time it
    /// took. A recording tracer also makes `name` the root span of a new
    /// operation.
    pub fn op<R>(
        &mut self,
        rep: usize,
        prog: &Program,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Times) {
        if !self.recording {
            let start = Stamp::now();
            let r = f(self);
            return (r, start.until(Stamp::now()));
        }
        self.ops.push(Op {
            rep,
            program: prog.label(),
        });
        self.record(self.ops.len() - 1, None, name, f)
    }

    /// A child span of the innermost open span; just `f` when the tracer
    /// does not record.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.recording {
            return f(self);
        }
        let parent = *self.open.last().expect("spans open inside an operation");
        self.record(self.spans[parent].op, Some(parent), name, f).0
    }

    fn record<R>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Times) {
        let idx = self.spans.len();
        let start = Stamp::now();
        let wall = start.wall - self.epoch;
        self.spans.push(Span {
            op,
            parent,
            name,
            cpu: (start.cpu, start.cpu),
            wall: (wall, wall),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end = Stamp::now();
        self.spans[idx].cpu.1 = end.cpu;
        self.spans[idx].wall.1 = end.wall - self.epoch;
        (r, start.until(end))
    }

    /// Self time of every span on one clock: its duration minus the union
    /// of its children's intervals.
    pub fn self_times(&self, clock: fn(&Span) -> (Duration, Duration)) -> Vec<Duration> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let (start, end) = clock(s);
                let mut covered = Duration::ZERO;
                let mut reach = start;
                for &k in kids {
                    let (a, b) = clock(&self.spans[k]);
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (end - start).saturating_sub(covered)
            })
            .collect()
    }

    /// Every child lies inside its parent on both clocks and shares its
    /// operation, so no self time can be negative.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.cpu.1 < s.cpu.0 || s.wall.1 < s.wall.0 {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent.map(|p| &self.spans[p]) {
                let inside = |(a, b): (Duration, Duration), (pa, pb): (Duration, Duration)| {
                    pa <= a && b <= pb
                };
                if s.op != p.op || !inside(s.cpu, p.cpu) || !inside(s.wall, p.wall) {
                    return Err(format!(
                        "span {i} ({}) escapes its parent {}",
                        s.name, p.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let cpu_self = self.self_times(|s| s.cpu);
        let wall_self = self.self_times(|s| s.wall);
        for (i, s) in self.spans.iter().enumerate() {
            let op = &self.ops[s.op];
            writeln!(
                out,
                "{{\"span\":{i},\"op\":{},\"parent\":{},\"name\":\"{}\",\"program\":\"{}\",\
                 \"rep\":{},\"cpu_start_ns\":{},\"cpu_end_ns\":{},\"cpu_self_ns\":{},\
                 \"wall_start_ns\":{},\"wall_end_ns\":{},\"wall_self_ns\":{}}}",
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                op.program,
                op.rep,
                s.cpu.0.as_nanos(),
                s.cpu.1.as_nanos(),
                cpu_self[i].as_nanos(),
                s.wall.0.as_nanos(),
                s.wall.1.as_nanos(),
                wall_self[i].as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Chunks, checkpoints and checkpoint-replayed chunks of one session.
#[derive(Default)]
pub struct SessionCounts {
    pub chunks: u64,
    pub checkpoints: u64,
    pub replayed: u64,
}

/// Drives a durable session directly, the way the daemon's worker does
/// for one connection: every chunk fed, a checkpoint every
/// [`DAEMON_CHECKPOINT_EVERY`] chunks, then finish.
pub fn drive_session(
    tr: &mut Tracer,
    blob: &[u8],
) -> Result<(futrace::AnalysisOutcome, SessionCounts), String> {
    let mut session = Session::open(SessionConfig {
        checkpoint_every: Some(DAEMON_CHECKPOINT_EVERY),
        ..SessionConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let mut counts = SessionCounts::default();
    for chunk in framed::chunks(blob) {
        let chunk = chunk.map_err(|e| e.to_string())?;
        let delta = tr
            .span("service.feed_chunk", |_| session.feed_chunk(chunk.payload))
            .map_err(|e| e.to_string())?;
        counts.chunks += 1;
        if delta.chunks % DAEMON_CHECKPOINT_EVERY == 0 {
            tr.span("service.checkpoint", |_| session.checkpoint())
                .map_err(|e| e.to_string())?;
            counts.checkpoints += 1;
            counts.replayed += delta.chunks - 1;
        }
    }
    let out = tr
        .span("service.finish", |_| session.finish())
        .map_err(|e| e.to_string())?;
    Ok((out, counts))
}

/// One repetition's sums for the per-layer metrics: the traced pass's
/// counters and span times, its CPU-time overhead over `untraced` (the
/// same repetition's untraced pass), and the untraced pass's wall times.
pub fn layer_sums(traced: Pass, untraced: &Pass) -> BTreeMap<&'static str, f64> {
    let mut sums = traced.sums;
    // The five paths both passes run on every program.
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    for path in Path::ALL.into_iter().filter(|p| *p != Path::Online) {
        traced_s += traced.paths[path as usize].cpu;
        plain_s += untraced.paths[path as usize].cpu;
    }
    sums.insert("trace.overhead_s", traced_s - plain_s);
    sums.insert("untraced_s", plain_s);
    sums.insert("setup_wall_s", untraced.setup.wall);
    for path in Path::ALL {
        sums.insert(path.wall_metric(), untraced.paths[path as usize].wall);
    }
    sums
}

/// The per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.check_s", "s"),
    ("core.check_ns_per_event", "ns"),
    ("core.precede_calls", "count"),
    ("core.visit_expansions", "count"),
    ("core.shadow_hit_ratio", "ratio"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.races_detected", "count"),
    ("core.dtrg_tasks", "count"),
    ("core.nt_edges", "count"),
    ("core.shadow_cells", "count"),
    ("core.stored_readers", "count"),
    ("core.slowdown", "x"),
    ("offline.decode_s", "s"),
    ("offline.decode_ns_per_event", "ns"),
    ("offline.trace_bytes", "bytes"),
    ("offline.chunks", "count"),
    ("offline.shard_imbalance", "ratio"),
    ("offline.control_events", "count"),
    ("offline.snapshots", "count"),
    ("offline.restarts", "count"),
    ("service.feed_s", "s"),
    ("service.checkpoint_s", "s"),
    ("service.checkpoints", "count"),
    ("service.checkpoint_replay_ratio", "ratio"),
    ("service.finish_s", "s"),
    ("service.wire_s", "s"),
    ("service.round_trips", "count"),
    ("runtime.record_s", "s"),
    ("runtime.exec_s", "s"),
    ("runtime.events", "count"),
    ("runtime.online_s", "s"),
    ("runtime.online.frontier_waits", "count"),
    ("runtime.online.publishes", "count"),
    ("runtime.online.batches", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("setup_wall_s", "s"),
    ("serial_wall_s", "s"),
    ("replay_wall_s", "s"),
    ("sharded_wall_s", "s"),
    ("supervised_wall_s", "s"),
    ("online_wall_s", "s"),
    ("daemon_wall_s", "s"),
];

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One repetition's value of a per-layer metric.
fn layer_value(name: &str, s: &BTreeMap<&'static str, f64>) -> f64 {
    let get = |k: &str| s.get(k).copied().unwrap_or(0.0);
    let session = get("service.feed_chunk") + get("service.checkpoint") + get("service.finish");
    match name {
        "core.check_s" => get("core.check"),
        "core.check_ns_per_event" => ratio(get("core.check") * 1e9, get("runtime.events")),
        "core.shadow_hit_ratio" => ratio(get("shadow_hits"), get("checks")),
        "core.memo_hit_ratio" => ratio(get("memo_hits"), get("memo_lookups")),
        "core.slowdown" => ratio(get("core.serial"), get("runtime.exec")),
        "offline.decode_s" => get("offline.decode"),
        "offline.decode_ns_per_event" => ratio(get("offline.decode") * 1e9, get("runtime.events")),
        "offline.shard_imbalance" => ratio(get("shard_max"), get("shard_mean")),
        "service.feed_s" => get("service.feed_chunk"),
        "service.checkpoint_s" => get("service.checkpoint"),
        "service.checkpoint_replay_ratio" => ratio(get("replayed_chunks"), get("offline.chunks")),
        "service.finish_s" => get("service.finish"),
        "service.wire_s" => get("service.stream_trace") - session,
        "runtime.record_s" => get("runtime.record"),
        "runtime.exec_s" => get("runtime.exec"),
        "runtime.online_s" => get("runtime.online"),
        "trace.overhead_ratio" => ratio(get("trace.overhead_s"), get("untraced_s")),
        counter => get(counter),
    }
}

/// Medians over the repetitions, plus the attribution the benchmark
/// documents, as measured by this run.
pub fn metrics(reps: &[BTreeMap<&'static str, f64>], report: &mut Report) {
    let med = |name: &str| {
        median(
            &reps
                .iter()
                .map(|s| layer_value(name, s))
                .collect::<Vec<_>>(),
        )
    };
    for (name, unit) in PER_LAYER {
        report.metrics.push(Metric {
            name,
            value: med(name),
            unit,
        });
    }
    let pct = |a: f64, b: f64| format!("{:.0}%", ratio(a, b) * 100.0);
    let (check, decode) = (med("core.check_s"), med("offline.decode_s"));
    let (replay, daemon) = (med("analyze.replay"), med("service.stream_trace"));
    report.notes.extend([
        format!("core.check_s is {} of replay_s", pct(check, replay)),
        format!(
            "offline.decode_s + core.check_s is {} of replay_s",
            pct(decode + check, replay)
        ),
        format!(
            "service.checkpoint_s is {} of daemon_s ({} checkpoint(s))",
            pct(med("service.checkpoint_s"), daemon),
            med("service.checkpoints")
        ),
        format!(
            "tracing overhead: {:.4} s, {} of the untraced path time",
            med("trace.overhead_s"),
            pct(med("trace.overhead_s"), med("untraced_s"))
        ),
    ]);
}
