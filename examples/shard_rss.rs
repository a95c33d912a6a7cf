//! Peak memory of the shard stage: runs `Analyze::trace_bytes(..).shards(N)`
//! once over a trace file and prints how far the process's peak resident
//! set rose above its resident set before the run (`VmHWM` and `VmRSS` of
//! `/proc/self/status`, so Linux only). The peak never falls, so measure
//! one run per process, over a trace recorded beforehand:
//!
//! ```text
//! cargo run --release -p futrace-bench --bin tracetool -- \
//!     record --bench crypt --out crypt.ftrc --stream
//! cargo run --release --example shard_rss -- crypt.ftrc 4
//! ```

use futrace::Analyze;

/// A `/proc/self/status` field in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path, shards] = args.as_slice() else {
        eprintln!("usage: shard_rss TRACE SHARDS");
        std::process::exit(2);
    };
    let shards: usize = shards.parse().expect("SHARDS is a positive integer");
    let blob = std::fs::read(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let before = status_kb("VmRSS:").expect("VmRSS in /proc/self/status");
    let out = Analyze::trace_bytes(&blob)
        .shards(shards)
        .run()
        .expect("the trace analyzes");
    let peak = status_kb("VmHWM:").expect("VmHWM in /proc/self/status");
    println!(
        "{path}: {shards} shard(s), {} shadow cell(s), peak RSS {:.1} MB above the {:.1} MB \
         before the run",
        out.footprint.shadow_cells,
        peak.saturating_sub(before) as f64 / 1024.0,
        before as f64 / 1024.0
    );
}
