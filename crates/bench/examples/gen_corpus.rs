//! Generates a corpus of framed `.ftrc` traces from seeded random
//! programs — the input for `tracetool corpus` scale tests and the
//! nightly corpus lane. Deterministic in `--seed`: the same arguments
//! reproduce the same corpus byte-for-byte.
//!
//! ```text
//! cargo run --release -p futrace-bench --example gen_corpus -- \
//!     --out /tmp/corpus --count 120 --seed 7 \
//!     [--gen nontree|future-heavy|default] \
//!     [--damage-every 25] [--empty-every 40]
//! ```
//!
//! Every `--damage-every`-th trace is truncated mid-chunk (exercising
//! the damaged-trace inventory) and every `--empty-every`-th is a
//! header-only empty trace (exercising the empty-trace path). Pass 0
//! to disable either.

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_offline::StreamWriter;
use futrace_runtime::{replay, run_serial, EventLog};
use futrace_util::rng::splitmix64;

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: gen_corpus --out DIR [--count N] [--seed S] \
         [--gen nontree|future-heavy|default] [--damage-every K] [--empty-every K]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut count: u64 = 100;
    let mut seed: u64 = 7;
    let mut gen = "nontree".to_string();
    let mut damage_every: u64 = 25;
    let mut empty_every: u64 = 40;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--out" => out = Some(val("--out")),
            "--count" => {
                count = val("--count")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --count"))
            }
            "--seed" => {
                seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--gen" => gen = val("--gen"),
            "--damage-every" => {
                damage_every = val("--damage-every")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --damage-every"))
            }
            "--empty-every" => {
                empty_every = val("--empty-every")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --empty-every"))
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let out = out.unwrap_or_else(|| usage("--out is required"));
    let params = match gen.as_str() {
        "nontree" => GenParams::nontree_heavy(),
        "future-heavy" => GenParams::future_heavy(),
        "default" => GenParams::default(),
        other => usage(&format!("unknown --gen preset {other}")),
    };

    std::fs::create_dir_all(&out).expect("create output dir");
    let mut state = seed;
    let (mut full, mut damaged, mut empty) = (0u64, 0u64, 0u64);
    for i in 0..count {
        let path = format!("{out}/trace_{i:04}.ftrc");
        if empty_every > 0 && i % empty_every == empty_every - 1 {
            std::fs::write(&path, b"FTRC\x02").expect("write trace");
            empty += 1;
            continue;
        }
        let prog = randomprog::generate(splitmix64(&mut state), &params);
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            randomprog::execute(ctx, &prog);
        });
        let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 4096).expect("writing to a Vec");
        replay(&log.events, &mut w);
        let (mut blob, _) = w.finish().expect("writing to a Vec");
        if damage_every > 0 && i % damage_every == damage_every - 1 {
            // Truncate mid-chunk: keep the header plus two thirds of the
            // body so the strict reader fails and lenient salvages.
            blob.truncate((blob.len() * 2 / 3).max(6));
            damaged += 1;
        } else {
            full += 1;
        }
        std::fs::write(&path, &blob).expect("write trace");
    }
    eprintln!(
        "gen_corpus: {count} trace(s) in {out} ({full} full, {damaged} truncated, \
         {empty} empty; seed {seed}, gen {gen})"
    );
}
