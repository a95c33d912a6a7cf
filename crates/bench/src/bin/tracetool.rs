//! Record and analyze execution traces. `tracetool help` prints the usage
//! of every subcommand and the exit-code table (`USAGE` and `EXIT_CODES`
//! below); `futrace_bench::tracetool_cli` parses the flags.

use futrace_bench::detectors::{AnyReport, DETECTOR_NAMES};
use futrace_bench::fuzzdiff::{self, FuzzOptions};
use futrace_bench::tracetool_cli::{
    self, AnalyzeArgs, BenchProgram, ClientArgs, Command, CompareArgs, FuzzArgs, RecordArgs,
};
use futrace_benchsuite::registry;
use futrace_compgraph::{dot, GraphBuilder, GraphStats};
use futrace_corpus::{
    run_corpus, Analyze, AnalyzeError, CorpusError, CorpusOptions, DetectorOutcome, DetectorRun,
};
use futrace_detector::RaceDetector;
use futrace_offline::framed::{self, DEFAULT_CHUNK_BYTES};
use futrace_offline::{
    salvage, trace_chunks, Checkpoint, FrameError, ShardStats, StreamWriter, SupervisionReport,
    WriterStats,
};
use futrace_runtime::engine::{run_analysis, Analysis, Engine, EngineCounters};
use futrace_runtime::online::{run_online, OnlineOptions};
use futrace_service::{render_verdict, ClientOptions, ClientOutcome, ServeOptions, Server};
use futrace_util::faultinject::{
    read_to_end_with_retry, Backoff, FaultPlan, FaultyReader, FaultyWriter, IoFaultStats,
};
use std::io::BufWriter;
use std::time::Duration;

/// One source of truth for the usage text; `usage` sends it to stderr
/// (exit 2), `help` to stdout (exit 0, with the exit-code table).
const USAGE: &str = "\
usage:
  tracetool record --bench NAME --out FILE
                   [--tiny|--scaled] [--planted]
                   [--chunk-bytes N] [--inject SEED]
  tracetool exec --bench NAME --threads N [--detector dtrg]
                   [--tiny|--scaled] [--planted] [--steal-seed S]
  tracetool analyze FILE [--detector NAME] [--shards N] [--lenient]
                   [--graph] [--dot FILE] [--inject SEED]
                   [--checkpoint-every N] [--stop-after N --checkpoint FILE]
                   [--resume FILE]
  tracetool compare FILE [--detectors NAME,NAME,...] [--lenient]
  tracetool info FILE
  tracetool verify FILE
  tracetool corpus DIR [--out DIR] [--detectors NAME,NAME,...]
                   [--max-parallel N] [--failure-policy continue|abort]
                   [--shards N] [--lenient] [--fresh]
                   [--stop-after-jobs N] [--job-timeout-ms T]
                   [--job-retries N]
  tracetool fuzz [--programs N] [--seed S]
                   [--gen nontree|future-heavy|default] [--out-dir DIR]
                   [--time-budget-secs T] [--break-detector NAME]
  tracetool serve --listen HOST:PORT [--workers N] [--queue-depth N]
                   [--checkpoint-dir DIR] [--resume]
                   [--idle-timeout-ms T] [--io-deadline-ms T]
                   [--max-sessions N] [--inject-net SEED]
  tracetool client HOST:PORT FILE [--checkpoint-every N] [--lenient]
                   [--name NAME] [--chunk-events N]
                   [--suspend-after N] [--retries N]
                   [--retry-budget-ms T] [--inject-net SEED]
  tracetool client HOST:PORT --shutdown
  tracetool help";

const EXIT_CODES: &str = "\
exit codes:
  0  clean — no races, no damage; also a corpus run suspended by
     --stop-after-jobs (rerun the same command to resume)
  1  invalid or damaged trace; for corpus: any analyze job failed or
     never completed, or the run aborted; for serve: the listen socket
     failed or a drained session errored; for client: connection,
     trace, or daemon-reported failure
  2  usage error
  3  determinacy races detected by analyze or exec, or reported to client by
     the daemon's final verdict; for corpus: the reference detector
     found races in at least one trace
  4  fuzz found an unexpected detector disagreement (a minimized .ftrc
     reproducer is written to --out-dir)
  5  client gave up: the daemon shed the session with Busy, or the
     --retries/--retry-budget-ms reconnect budget ran out

`serve` exits 0 after a clean drain (Shutdown frame or --suspend-after
clients); suspended sessions are checkpointed, not errors. A `client`
run that suspends (--suspend-after) exits 0 — resume by re-running the
same client against a daemon started with --resume.";

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!("{USAGE}");
    eprintln!("benchmarks: {}", registry::names().join(", "));
    eprintln!("detectors: {}", DETECTOR_NAMES.join(", "));
    std::process::exit(2);
}

fn help() {
    println!("tracetool — record and analyze futrace execution traces");
    println!();
    println!("{USAGE}");
    println!();
    println!("{EXIT_CODES}");
    println!();
    println!("benchmarks: {}", registry::names().join(", "));
    println!("detectors: {}", DETECTOR_NAMES.join(", "));
}

fn print_fault_stats(kind: &str, seed: u64, s: &IoFaultStats) {
    eprintln!(
        "injected {kind} faults (seed {seed}): {} call(s), {} transient(s), \
         {} short op(s), {} hard error(s), {} byte(s) truncated",
        s.calls, s.transients, s.short_ops, s.hard_errors, s.truncated_bytes
    );
}

fn print_record_stats(stats: &WriterStats, out: &str) {
    eprintln!(
        "recorded {} events in {} framed chunks ({} bytes, {:.2} B/event) to {}",
        stats.events,
        stats.chunks,
        stats.bytes_written,
        stats.bytes_written as f64 / stats.events.max(1) as f64,
        out
    );
    if stats.io_retries > 0 {
        eprintln!("note: {} transient I/O error(s) retried", stats.io_retries);
    }
}

/// Checked close: a failing sink must end in a clear message and exit 1,
/// never a panic (the `StreamWriter` Drop impl stays silent by design).
fn finish_stream<W: std::io::Write>(writer: StreamWriter<W>, out: &str) -> (W, WriterStats) {
    match writer.finish() {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("failed to finalize trace {out}: {e}");
            eprintln!(
                "the file may hold a partial trace; \
                 `tracetool analyze {out} --lenient` salvages the intact chunks"
            );
            std::process::exit(1);
        }
    }
}

/// Records the selected benchmark straight to disk as a framed trace.
/// With `--inject`, the sink misbehaves per the seeded write-fault plan;
/// the writer's retry layer absorbs what it can and `finish` reports what
/// it cannot.
fn record(args: RecordArgs) {
    let file = std::fs::File::create(&args.out)
        .unwrap_or_else(|e| fail(&format!("cannot create trace {}: {e}", args.out)));
    let plan = args.inject.map(FaultPlan::from_seed);
    let faults = plan.as_ref().map(|p| p.write.clone()).unwrap_or_default();
    let sink = FaultyWriter::new(BufWriter::new(file), faults);
    let chunk = args.chunk_bytes.unwrap_or(DEFAULT_CHUNK_BYTES);
    let mut writer = StreamWriter::with_chunk_bytes(sink, chunk)
        .unwrap_or_else(|e| fail(&format!("cannot start trace {}: {e}", args.out)));
    let p = &args.program;
    p.workload().run_into(&mut writer, p.scale, p.planted);
    let dropped = writer.stats().dropped_events;
    if dropped > 0 {
        eprintln!("warning: sink failed hard; {dropped} event(s) dropped");
    }
    let (sink, stats) = finish_stream(writer, &args.out);
    if let Some(plan) = &plan {
        print_fault_stats("write", plan.seed, &sink.stats());
    }
    print_record_stats(&stats, &args.out);
}

/// Runs a benchsuite program live on the instrumented work-stealing
/// executor, with DTRG detection overlapped on the canonical walker's
/// thread — the online half of the front door, no trace file involved.
/// The verdict section stays byte-identical to `record` + `analyze
/// --detector dtrg` on the same bench (CI diffs it); online telemetry
/// rides in the engine block. A deadlocked execution still reports the analysis of
/// the executed prefix, then exits 1.
fn exec(program: BenchProgram, opts: OnlineOptions) {
    let w = program.workload();
    let start = std::time::Instant::now();
    let mut engine = Engine::new(RaceDetector::new());
    let run = run_online(opts, &mut engine, |ctx| {
        w.run_parallel_into(ctx, program.scale, program.planted)
    });
    let (detector, mut counters) = engine.into_parts();
    let report = detector.finish();
    counters.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let outcome = futrace_service::AnalysisOutcome::from_dtrg(report, counters);

    println!(
        "{}: {} events ({} thread(s), live)",
        program.bench, outcome.engine.events, run.stats.threads
    );
    note_if_empty(outcome.engine.events);
    if let Err(e) = &run.result {
        eprintln!("error: {e}");
        eprintln!("reporting the analysis of the executed prefix:");
    }

    print_engine_counters(&outcome.engine, None);
    println!("{}", run.stats);

    println!("\n-- detector --");
    println!("{}", outcome.stats);
    println!("footprint:   {}", outcome.footprint);
    println!("{}", render_verdict(&outcome.races));

    if run.result.is_err() {
        std::process::exit(1);
    }
    if outcome.races.has_races() {
        std::process::exit(3);
    }
}

fn read_trace(file: &str) -> Vec<u8> {
    std::fs::read(file).unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")))
}

/// Reads the trace through a seeded [`FaultyReader`], retrying transient
/// errors with bounded backoff. Hard faults still end the run (exit 1) —
/// the point is that *transient* ones must not.
fn read_trace_injected(file: &str, plan: &FaultPlan) -> Vec<u8> {
    let cannot = |e: std::io::Error| -> ! { fail(&format!("cannot read {file}: {e}")) };
    let f = std::fs::File::open(file).unwrap_or_else(|e| cannot(e));
    let mut reader = FaultyReader::new(std::io::BufReader::new(f), plan.read.clone());
    let mut backoff = Backoff::new(plan.seed, 8, Duration::from_millis(1));
    let mut buf = Vec::new();
    if let Err(e) = read_to_end_with_retry(&mut reader, &mut buf, &mut backoff) {
        cannot(e);
    }
    print_fault_stats("read", plan.seed, &reader.stats());
    if backoff.total_retries() > 0 {
        eprintln!(
            "note: {} transient read error(s) retried",
            backoff.total_retries()
        );
    }
    buf
}

/// An empty trace (valid header, zero chunks/events) is not damage:
/// every command states it explicitly and still reports clean. Printed
/// right after the event count — i.e. before (outside) the verdict
/// section CI diffs — and byte-identical across the serial, sharded,
/// and supervised paths.
fn note_if_empty(events: u64) {
    if events == 0 {
        println!("note: trace holds no events; verdict is trivially clean");
    }
}

/// Warns about the damage a lenient run got past: the truncation
/// [`salvage`] cut at and the damaged chunks the reader dropped.
fn warn_damage(truncated: Option<&FrameError>, events: u64, dropped: u64) {
    if let Some(e) = truncated {
        eprintln!("warning: {e}; analyzing the {events} intact event(s) before the damage");
    }
    if dropped > 0 {
        eprintln!("warning: skipped {dropped} damaged chunk(s)");
    }
}

/// Runs detector `name` over `file` as `analysis` is configured; any
/// failure exits 1.
fn run_or_exit(file: &str, name: &str, analysis: Analyze<'_>) -> DetectorRun {
    match analysis.run_named(name) {
        Ok(run) => run,
        Err(AnalyzeError::Trace(e)) => fail(&format!("invalid trace {file}: {e}")),
        Err(AnalyzeError::Supervise(e)) => fail(&format!("cannot resume: {e}")),
        Err(e) => fail(&format!("error: {e}")),
    }
}

/// Prints `msg` to stderr and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Prints any detector's verdict (and up to 5 race lines where the
/// detector records them). For the DTRG detector this is
/// [`render_verdict`], the daemon's renderer, so the section CI diffs
/// stays byte-identical across every path.
fn print_report(name: &str, report: &AnyReport) -> bool {
    if let AnyReport::Dtrg(r) = report {
        println!("{}", render_verdict(&r.report));
        return r.report.has_races();
    }
    let n = report.race_count();
    if n > 0 {
        println!("\n{n} race(s) flagged by {name}");
        for line in report.race_lines().iter().take(5) {
            println!("  {line}");
        }
        true
    } else {
        println!("\nno races flagged by {name}");
        false
    }
}

/// Prints the `-- engine --` block: the engine counters, then what the
/// supervisor recovered, only when it did, so the line CI diffs for a
/// clean run is unchanged.
fn print_engine_counters(counters: &EngineCounters, supervision: Option<&SupervisionReport>) {
    println!("\n-- engine --");
    print!("{counters}");
    if let Some(s) =
        supervision.filter(|s| s.shard_restarts + s.degradations + s.resumed_from_checkpoint > 0)
    {
        print!(
            "; supervision: {} restart(s), {} degradation(s), {} resume(s)",
            s.shard_restarts, s.degradations, s.resumed_from_checkpoint
        );
    }
    println!();
}

/// Reads the `--resume` checkpoint and checks it fits this trace and
/// the requested shard count; any mismatch ends the run.
fn load_checkpoint(args: &AnalyzeArgs, path: &str, blob: &[u8]) -> Checkpoint {
    let data = std::fs::read(path)
        .unwrap_or_else(|e| fail(&format!("cannot read checkpoint {path}: {e}")));
    let cp = Checkpoint::decode(&data)
        .unwrap_or_else(|e| fail(&format!("invalid checkpoint {path}: {e}")));
    if let Err(e) = cp.matches_trace(blob) {
        fail(&format!("checkpoint {path} cannot resume this trace: {e}"));
    }
    // Each state blob holds one shard's cells, so the checkpoint fixes the
    // shard count.
    if let Some(n) = args.shards.filter(|&n| n != cp.shards) {
        eprintln!(
            "error: --shards {n} conflicts with checkpoint {path}, cut across {} shard(s) \
             (drop --shards, or pass --shards {})",
            cp.shards, cp.shards
        );
        std::process::exit(2);
    }
    cp
}

/// Writes a suspended run's checkpoint and says how to resume it.
fn write_checkpoint(args: &AnalyzeArgs, checkpoint: &Checkpoint, supervision: &SupervisionReport) {
    let path = args
        .checkpoint
        .as_ref()
        .expect("parser requires --checkpoint with --stop-after");
    let encoded = checkpoint.encode();
    if let Err(e) = std::fs::write(path, &encoded) {
        fail(&format!("cannot write checkpoint {path}: {e}"));
    }
    println!(
        "suspended after {} chunk(s), {} event(s): checkpoint written to {} ({} bytes)",
        checkpoint.chunks_completed,
        checkpoint.events_consumed,
        path,
        encoded.len()
    );
    println!(
        "resume with: tracetool analyze {} --detector {} --resume {}",
        args.file, args.detector, path
    );
    if supervision.any() {
        println!(
            "supervision: {} restart(s), {} snapshot(s), {} watchdog timeout(s)",
            supervision.shard_restarts, supervision.snapshots_taken, supervision.watchdog_timeouts
        );
    }
}

/// Prints the shard stage's accounting: plain `--shards N` takes no
/// snapshots (a dead worker restarts by reading the trace again from the
/// start); `--checkpoint-every` adds the snapshots a restart reads from,
/// and `--stop-after`/`--resume` suspend and resume. Recovery outcomes
/// surface in the `-- engine --` block only.
fn print_sharding(s: &ShardStats, supervision: Option<&SupervisionReport>) {
    println!("\n-- sharded pipeline --");
    println!("shards:      {}", s.shards);
    println!(
        "events:      {} ({} control broadcast, {} accesses routed)",
        s.events, s.control_events, s.accesses
    );
    println!(
        "accesses:    {} reads, {} writes; per shard: {:?}",
        s.reads, s.writes, s.per_shard_accesses
    );
    if let Some(sup) = supervision.filter(|sup| sup.snapshots_taken > 0) {
        println!(
            "snapshots:   {} ({} full), {} bytes",
            sup.snapshots_taken, sup.full_snapshots, sup.snapshot_bytes
        );
    }
}

/// Prints the computation graph of the chunks a run of `args` checks,
/// read again from `blob`.
fn print_graph(args: &AnalyzeArgs, blob: &[u8]) {
    let (readable, _) = salvage(blob, args.lenient);
    let chunks = trace_chunks(readable, args.lenient).filter_map(Result::transpose);
    let graph = run_analysis(chunks, GraphBuilder::new())
        .unwrap_or_else(|e| fail(&format!("invalid trace {}: {e}", args.file)))
        .report;
    let gstats = GraphStats::compute(&graph);
    println!("\n-- computation graph --");
    println!("{gstats}");
    println!("parallelism:    {:.2}", gstats.parallelism());
    let mhp = futrace_compgraph::mhp::summarize(&graph);
    println!(
        "MHP:            {:.1}% of step pairs parallel ({} of {}); {} of {} task pairs",
        100.0 * mhp.step_parallel_fraction(),
        mhp.parallel_step_pairs,
        mhp.total_step_pairs,
        mhp.parallel_task_pairs,
        mhp.total_task_pairs
    );
    if let Some(path) = &args.dot {
        std::fs::write(path, dot::to_dot(&graph, &args.file)).expect("write dot");
        println!("wrote {path}");
    }
}

fn analyze(args: AnalyzeArgs) {
    let blob = match args.inject.map(FaultPlan::from_seed) {
        Some(plan) => read_trace_injected(&args.file, &plan),
        None => read_trace(&args.file),
    };
    let resume = args.resume.as_ref();
    let analysis = Analyze::trace_bytes(&blob)
        .lenient(args.lenient)
        .shards(args.shards)
        .checkpoint_every(args.checkpoint_every)
        .fault_plan(args.inject)
        .stop_after(args.stop_after)
        .resume(resume.map(|path| load_checkpoint(&args, path, &blob)));
    let out = match run_or_exit(&args.file, &args.detector, analysis) {
        DetectorRun::Completed(out) => out,
        DetectorRun::Suspended {
            checkpoint,
            supervision,
        } => return write_checkpoint(&args, &checkpoint, &supervision),
    };

    let (events, skipped) = (out.engine.events, out.engine.skipped_chunks);
    warn_damage(out.truncated.as_ref(), events, skipped);
    println!("{}: {events} events", args.file);
    note_if_empty(events);
    if let Some(s) = &out.sharding {
        print_sharding(s, out.supervision.as_ref());
    }
    print_engine_counters(&out.engine, out.supervision.as_ref());
    if out.sharding.is_none() {
        if let AnyReport::Dtrg(r) = &out.report {
            println!("\n-- detector --");
            println!("{}", r.stats);
            println!("footprint:   {}", r.footprint);
        } else {
            for note in out.report.notes() {
                println!("note: {note}");
            }
        }
    }
    let racy = print_report(&args.detector, &out.report);
    if args.graph {
        print_graph(&args, &blob);
    }
    if racy {
        std::process::exit(3);
    }
}

fn compare(args: CompareArgs) {
    let blob = read_trace(&args.file);
    let runs: Vec<(&str, DetectorOutcome)> = args
        .detectors
        .iter()
        .map(|name| {
            let analysis = Analyze::trace_bytes(&blob).lenient(args.lenient);
            match run_or_exit(&args.file, name, analysis) {
                DetectorRun::Completed(out) => (name.as_str(), out),
                DetectorRun::Suspended { .. } => unreachable!("no stop point, the run completes"),
            }
        })
        .collect();
    // Every run read the same chunks.
    let (first, events) = (&runs[0].1, runs[0].1.engine.events);
    let skipped = first.engine.skipped_chunks;
    warn_damage(first.truncated.as_ref(), events, skipped);
    println!(
        "{}: {events} events, {} detector(s)",
        args.file,
        args.detectors.len()
    );

    let verdict = |racy: bool| if racy { "racy" } else { "clean" };
    println!();
    println!(
        "{:<12} {:>7} {:>8} {:>10} {:>10} {:>9}",
        "detector", "verdict", "races", "events", "checks", "wall ms"
    );
    for (name, out) in &runs {
        println!(
            "{:<12} {:>7} {:>8} {:>10} {:>10} {:>9.2}",
            name,
            verdict(out.report.has_races()),
            out.report.race_count(),
            out.engine.events,
            out.engine.checks(),
            out.engine.wall_ms
        );
    }
    if runs.iter().any(|(_, o)| !o.report.notes().is_empty()) {
        println!();
        for (name, out) in &runs {
            for note in out.report.notes() {
                println!("note [{name}]: {note}");
            }
        }
    }

    // The DTRG detector is the reference implementation (the paper's
    // algorithm, exact for this model); fall back to the first listed.
    let reference = if args.detectors.iter().any(|d| d == "dtrg") {
        "dtrg"
    } else {
        runs[0].0
    };
    let ref_racy = runs
        .iter()
        .find(|(n, _)| *n == reference)
        .map(|(_, o)| o.report.has_races())
        .expect("reference is one of the runs");
    let disagree: Vec<&str> = runs
        .iter()
        .filter(|(_, o)| o.report.has_races() != ref_racy)
        .map(|(n, _)| *n)
        .collect();
    println!("\nreference: {reference} ({})", verdict(ref_racy));
    if disagree.is_empty() {
        println!(
            "agreement: all {} detector(s) say {}",
            runs.len(),
            verdict(ref_racy)
        );
    } else {
        let agree: Vec<&str> = runs
            .iter()
            .filter(|(_, o)| o.report.has_races() == ref_racy)
            .map(|(n, _)| *n)
            .collect();
        println!("agree:     {}", agree.join(", "));
        println!(
            "disagree:  {} ({})",
            disagree.join(", "),
            verdict(!ref_racy)
        );
    }
}

/// Reads `file`, failing (exit 1) unless it starts with the framed
/// header.
fn read_framed(file: &str) -> Vec<u8> {
    let blob = read_trace(file);
    if let Some(Err(e @ FrameError::NotFramed)) = framed::chunks(&blob).next() {
        fail(&format!("{file}: {e}"));
    }
    blob
}

/// What one pass over a trace's chunks found.
#[derive(Default)]
struct ChunkScan {
    intact: u64,
    damaged: u64,
    events: u64,
    payload: u64,
}

/// Strict full pass: every chunk CRC, and every CRC-checked chunk through
/// the one intact test the trace reader applies (it decodes, and holds
/// the events its header declares). The pass keeps going past damage, so
/// one run reports *every* damaged chunk on stderr, each with enough
/// context (chunk index, byte offset, stored vs computed CRC) to find it
/// on disk.
fn scan_chunks(file: &str, blob: &[u8]) -> ChunkScan {
    let mut scan = ChunkScan::default();
    for chunk in framed::chunks(blob) {
        match chunk.and_then(|c| Ok((c.decode()?.len(), c.payload.len()))) {
            Ok((events, payload)) => {
                scan.intact += 1;
                scan.events += events as u64;
                scan.payload += payload as u64;
            }
            Err(e) => {
                scan.damaged += 1;
                eprintln!("{file}: {e}");
            }
        }
    }
    scan
}

fn info(file: &str) {
    let blob = read_framed(file);
    println!("{file}: framed trace (format v2), {} bytes", blob.len());
    let scan = scan_chunks(file, &blob);
    println!(
        "chunks:      {} intact, {} damaged",
        scan.intact, scan.damaged
    );
    println!("events:      {} (declared by intact chunks)", scan.events);
    println!(
        "payload:     {} bytes ({:.2} B/event)",
        scan.payload,
        scan.payload as f64 / scan.events.max(1) as f64
    );
    if scan.damaged > 0 {
        std::process::exit(1);
    }
    note_if_empty(scan.events);
}

fn verify(file: &str) {
    let blob = read_framed(file);
    let scan = scan_chunks(file, &blob);
    if scan.damaged > 0 {
        fail(&format!(
            "{file}: FAILED: {} damaged chunk(s)",
            scan.damaged
        ));
    }
    println!(
        "{file}: OK (v2, {} events, {} bytes)",
        scan.events,
        blob.len()
    );
    note_if_empty(scan.events);
}

/// Differential fuzzing over the detector registry. One batch per base
/// seed; with `--time-budget-secs`, fresh batches (each with a derived
/// seed) run until the clock runs out or a counterexample lands.
fn fuzz(mut opts: FuzzOptions, args: FuzzArgs) {
    let started = std::time::Instant::now();
    let mut batch_state = opts.seed;
    let mut batch = 0u64;
    let mut total = fuzzdiff::Tally::default();
    loop {
        // Batch 0 fuzzes the seed exactly as given, so
        // `tracetool fuzz --seed S` reproduces a one-batch run; later
        // batches derive fresh seeds from the splitmix stream.
        if batch > 0 {
            opts.seed = futrace_util::rng::splitmix64(&mut batch_state);
        }
        let seed = opts.seed;
        eprintln!(
            "fuzz batch {batch}: {} program(s), seed {seed}, gen {}",
            opts.programs, args.gen
        );
        let report = fuzzdiff::run(&opts);
        total.absorb(&report.tally);

        if let Some(cx) = report.counterexample {
            // The report comes first: a trace that cannot be written must
            // not cost the minimized program and its replay line.
            let path = format!(
                "{}/fuzz_counterexample_{:#018x}.ftrc",
                args.out_dir, cx.seed
            );
            eprintln!(
                "\nUNEXPECTED DISAGREEMENT after {} shrink step(s):",
                cx.shrink_steps
            );
            eprintln!("  {}", cx.detail);
            eprintln!("  minimized program: {:?}", cx.program);
            eprintln!("  reproducer trace:  {path}");
            eprintln!("replay with:");
            eprintln!(
                "  FUTRACE_PROPCHECK_SEED={:#x} tracetool fuzz --programs 1 --seed {seed} --gen {}{}",
                cx.seed,
                args.gen,
                match &opts.broken_detector {
                    Some(d) => format!(" --break-detector {d}"),
                    None => String::new(),
                }
            );
            eprintln!("  tracetool compare {path}");
            println!(
                "fuzz: {} program(s), {} detector run(s), {} expected disagreement(s), \
                 1 unexpected disagreement",
                total.programs, total.detector_runs, total.expected_disagreements
            );
            if let Err(e) = std::fs::write(&path, &cx.trace) {
                fail(&format!("cannot write counterexample trace {path}: {e}"));
            }
            std::process::exit(4);
        }

        batch += 1;
        let done = match args.time_budget_secs {
            Some(t) => started.elapsed().as_secs() >= t,
            None => true,
        };
        if done {
            break;
        }
    }
    println!(
        "fuzz: {} program(s), {} detector run(s), {} expected disagreement(s), \
         0 unexpected disagreements",
        total.programs, total.detector_runs, total.expected_disagreements
    );
}

/// Batch analysis of a directory of traces on a worker pool; exits with
/// the corpus verdict ([`futrace_corpus::ExitVerdict`]).
fn corpus(dir: &str, opts: &CorpusOptions) {
    let outcome = match run_corpus(std::path::Path::new(dir), opts) {
        Ok(o) => o,
        Err(e @ CorpusError::Config(_)) => usage(&e.to_string()),
        Err(e) => fail(&format!("error: {e}")),
    };

    println!(
        "corpus {dir}: {} trace(s), {} job(s) ran, {} skipped via manifest",
        outcome.traces, outcome.jobs_ran, outcome.jobs_skipped
    );
    if outcome.jobs_retried > 0 {
        println!(
            "retries: {} attempt(s) absorbed by --job-retries",
            outcome.jobs_retried
        );
    }
    if outcome.suspended {
        println!(
            "suspended by --stop-after-jobs; rerun the same command (without \
             --fresh) to resume from {}",
            opts.out_dir.display()
        );
        std::process::exit(0);
    }
    if outcome.aborted {
        eprintln!("aborted on first failed job (--failure-policy abort)");
    }
    if let Some(rep) = &outcome.report {
        let s = &rep.summary;
        println!(
            "verdicts ({} reference): {} clean ({} empty), {} racy, {} damaged, \
             {} disagreeing",
            rep.reference,
            s.clean_traces,
            s.empty_traces,
            s.racy_traces,
            s.damaged_traces,
            s.disagreeing_traces
        );
        println!(
            "analyze jobs: {} ok, {} failed, {} missing",
            s.analyze_ok, s.analyze_failed, s.analyze_missing
        );
    }
    if let (Some(json), Some(md)) = (&outcome.report_json, &outcome.report_md) {
        println!("report: {} and {}", json.display(), md.display());
    }
    std::process::exit(outcome.exit.code());
}

/// Runs the analysis daemon: a TCP listener multiplexing streamed
/// sessions over a bounded worker pool. Blocks until a client sends
/// `Shutdown`, then drains (suspending in-flight sessions to FCKP
/// checkpoints) and prints a summary.
fn serve(opts: ServeOptions) {
    let listen = opts.addr.clone();
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot listen on {listen}: {e}")),
    };
    match server.local_addr() {
        // Printed first thing so scripts binding port 0 can discover
        // the real port (and know the daemon is accepting).
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => fail(&format!("cannot resolve listen address: {e}")),
    }
    match server.run() {
        Ok(sum) => {
            // Ignore a vanished stdout consumer (EPIPE): whoever spawned
            // the daemon may be long gone by drain time, and the summary
            // is telemetry, not a reason to die with a panic.
            use std::io::Write as _;
            // The failure count is appended only when nonzero, so the
            // summary line scripts grep stays unchanged for clean runs.
            let failures = match sum.checkpoint_failures {
                0 => String::new(),
                n => format!(", {n} checkpoint failure(s)"),
            };
            let _ = writeln!(
                std::io::stdout(),
                "drained: {} session(s) finished, {} suspended ({} idle-evicted), \
                 {} error(s), {} shed busy{failures}",
                sum.finished,
                sum.suspended,
                sum.idle_suspended,
                sum.errors,
                sum.busy_rejected
            );
            if sum.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => fail(&format!("serve failed: {e}")),
    }
}

/// Streams a trace to a running daemon chunk by chunk and prints the
/// returned verdict — byte-identical to one-shot `analyze` — or asks
/// the daemon to drain and exit (`--shutdown`).
fn client(opts: ClientOptions, args: ClientArgs) {
    if args.shutdown {
        match futrace_service::shutdown(&opts.addr) {
            Ok(()) => println!("daemon at {} is draining", opts.addr),
            Err(e) => fail(&format!("error: {e}")),
        }
        return;
    }

    let file = args.file.as_deref().expect("parser requires a file");
    let blob = read_trace(file);
    match futrace_service::stream_trace(&opts, &blob) {
        Ok(ClientOutcome::Finished {
            races,
            verdict,
            resumed_chunks,
            chunks_sent,
            events,
            truncated,
            skipped_chunks,
            attempts,
        }) => {
            warn_damage(truncated.as_ref(), events, skipped_chunks);
            println!("{file}: {chunks_sent} chunk(s) streamed to {}", opts.addr);
            if resumed_chunks > 0 {
                println!("resumed: daemon skipped {resumed_chunks} already-analyzed chunk(s)");
            }
            if attempts > 1 {
                println!("reconnected: verdict reached on attempt {attempts}");
            }
            println!("{verdict}");
            if races > 0 {
                std::process::exit(3);
            }
        }
        Ok(ClientOutcome::Suspended { chunks }) => {
            println!(
                "suspended after {chunks} chunk(s): daemon checkpoint keyed by \
                 session name {:?}",
                opts.trace_name
            );
            println!(
                "resume with: tracetool client {} {} --name {} (daemon needs --resume)",
                opts.addr, file, opts.trace_name
            );
        }
        Err(
            e @ (futrace_service::ClientError::Busy { .. }
            | futrace_service::ClientError::RetriesExhausted { .. }),
        ) => {
            eprintln!("error: {e}");
            std::process::exit(5);
        }
        Err(e) => fail(&format!("error: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match tracetool_cli::parse(&args) {
        Ok(Command::Record(r)) => record(r),
        Ok(Command::Exec(program, opts)) => exec(program, opts),
        Ok(Command::Analyze(a)) => analyze(a),
        Ok(Command::Compare(c)) => compare(c),
        Ok(Command::Info { file }) => info(&file),
        Ok(Command::Verify { file }) => verify(&file),
        Ok(Command::Corpus { dir, opts }) => corpus(&dir, &opts),
        Ok(Command::Fuzz(opts, f)) => fuzz(opts, f),
        Ok(Command::Serve(opts)) => serve(opts),
        Ok(Command::Client(opts, c)) => client(opts, c),
        Ok(Command::Help) => help(),
        Err(e) => usage(&e),
    }
}
