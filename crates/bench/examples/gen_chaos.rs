//! Chaos driver for the analysis daemon — the CI/nightly face of the
//! `chaos_serve` harness. Deterministic in `--seed`: it generates traces,
//! runs N reconnecting clients with seeded network fault injection
//! against a `tracetool serve` daemon, SIGKILLs and restarts the daemon
//! (`--resume`) mid-run, and verifies every client's verdict is
//! byte-identical to one-shot `tracetool analyze`. A failure prints the
//! seed so the scenario reproduces bit-for-bit.
//!
//! ```text
//! cargo run --release -p futrace-bench --example gen_chaos -- \
//!     --bin target/release/tracetool --out /tmp/chaos \
//!     [--seed 7] [--clients 4] [--retries 16] [--trace-bytes 49152] \
//!     [--no-kill]
//! ```

use futrace_benchsuite::randomprog::{self, GenParams};
use futrace_offline::StreamWriter;
use futrace_runtime::{replay, run_serial, EventLog};
use futrace_util::rng::splitmix64;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: gen_chaos --bin TRACETOOL --out DIR [--seed S] [--clients N] \
         [--retries N] [--trace-bytes B] [--no-kill]"
    );
    std::process::exit(2);
}

fn fail(seed: u64, what: &str) -> ! {
    eprintln!("gen_chaos: FAIL (seed {seed}): {what}");
    std::process::exit(1);
}

fn gen_trace(path: &PathBuf, seed: u64, min_bytes: usize) {
    let mut programs = 128;
    loop {
        let mut state = seed;
        let progs: Vec<_> = (0..programs)
            .map(|_| randomprog::generate(splitmix64(&mut state), &GenParams::future_heavy()))
            .collect();
        let mut log = EventLog::new();
        run_serial(&mut log, |ctx| {
            for prog in &progs {
                randomprog::execute(ctx, prog);
            }
        });
        let mut w = StreamWriter::with_chunk_bytes(Vec::new(), 4096).expect("writing to a Vec");
        replay(&log.events, &mut w);
        let (blob, _) = w.finish().expect("writing to a Vec");
        if blob.len() >= min_bytes || programs >= 8192 {
            std::fs::write(path, &blob).expect("write trace");
            return;
        }
        programs *= 2;
    }
}

fn verdict_section(stdout: &str) -> Option<&str> {
    let at = stdout.find("determinacy")?;
    let line_start = stdout[..at].rfind('\n').map_or(0, |i| i + 1);
    Some(&stdout[line_start..])
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("probe port");
    let addr = l.local_addr().expect("probe addr").to_string();
    drop(l);
    addr
}

fn spawn_daemon(
    bin: &str,
    addr: &str,
    ckpt: &str,
) -> (Child, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(bin)
        .args([
            "serve",
            "--listen",
            addr,
            "--checkpoint-dir",
            ckpt,
            "--resume",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| usage(&format!("cannot spawn {bin}: {e}")));
    let mut stdout = BufReader::new(child.stdout.take().expect("daemon stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    if !line.starts_with("listening on ") {
        usage(&format!("unexpected daemon banner: {line:?}"));
    }
    (child, stdout)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bin = "tracetool".to_string();
    let mut out: Option<String> = None;
    let mut seed: u64 = 7;
    let mut clients: usize = 4;
    let mut retries: u64 = 16;
    let mut trace_bytes: usize = 48 * 1024;
    let mut kill = true;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--bin" => bin = val("--bin"),
            "--out" => out = Some(val("--out")),
            "--seed" => {
                seed = val("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--clients" => {
                clients = val("--clients")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --clients"))
            }
            "--retries" => {
                retries = val("--retries")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --retries"))
            }
            "--trace-bytes" => {
                trace_bytes = val("--trace-bytes")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --trace-bytes"))
            }
            "--no-kill" => kill = false,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let out = out.unwrap_or_else(|| usage("--out is required"));
    if clients == 0 {
        usage("--clients must be at least 1");
    }

    let dir = PathBuf::from(&out);
    let ckpt = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt).expect("create output dir");
    let ckpt_flag = ckpt.to_str().expect("utf-8 path").to_string();

    // Traces + their one-shot verdicts (the ground truth).
    let mut traces = Vec::new();
    for i in 0..clients {
        let path = dir.join(format!("chaos_{i}.ftrc"));
        gen_trace(&path, seed.wrapping_add(i as u64), trace_bytes);
        let one = Command::new(&bin)
            .arg("analyze")
            .arg(&path)
            .output()
            .unwrap_or_else(|e| usage(&format!("cannot spawn {bin}: {e}")));
        let stdout = String::from_utf8_lossy(&one.stdout).into_owned();
        let verdict = verdict_section(&stdout)
            .unwrap_or_else(|| {
                fail(
                    seed,
                    &format!("one-shot analyze of client {i} trace produced no verdict"),
                )
            })
            .to_string();
        traces.push((path, verdict, one.status.code()));
    }

    // Clients dial before the daemon is up: every one must reconnect.
    let addr = free_addr();
    let mut kids: Vec<Child> = traces
        .iter()
        .enumerate()
        .map(|(i, (path, _, _))| {
            Command::new(&bin)
                .args(["client", &addr])
                .arg(path)
                .args(["--name", &format!("chaos_{i}")])
                .args(["--chunk-events", "8", "--checkpoint-every", "100"])
                .args([
                    "--retries",
                    &retries.to_string(),
                    "--inject-net",
                    &seed.wrapping_add(1000 + i as u64).to_string(),
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| usage(&format!("cannot spawn {bin}: {e}")))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let (mut daemon, mut daemon_out) = spawn_daemon(&bin, &addr, &ckpt_flag);
    let mut kills = 0u32;

    if kill {
        // SIGKILL once periodic checkpoints prove sessions are mid-stream
        // (or every client already finished on a fast machine).
        let start = Instant::now();
        loop {
            let ckpts = std::fs::read_dir(&ckpt)
                .expect("ckpt dir")
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|x| x == "fckp")
                })
                .count();
            if ckpts >= 2 {
                break;
            }
            if kids
                .iter_mut()
                .all(|c| c.try_wait().expect("try_wait").is_some())
            {
                break;
            }
            if start.elapsed() > Duration::from_secs(120) {
                fail(seed, "no periodic checkpoints appeared within 120s");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        daemon.kill().expect("SIGKILL daemon");
        let _ = daemon.wait();
        kills += 1;
        (daemon, daemon_out) = spawn_daemon(&bin, &addr, &ckpt_flag);
    }

    let mut reconnects = 0u64;
    let deadline = Duration::from_secs(300);
    for (i, mut kid) in kids.drain(..).enumerate() {
        let start = Instant::now();
        let status = loop {
            if let Some(s) = kid.try_wait().expect("try_wait") {
                break s;
            }
            if start.elapsed() > deadline {
                let _ = kid.kill();
                let _ = kid.wait();
                fail(seed, &format!("client {i} hung past {deadline:?}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stdout = String::new();
        let mut stderr = String::new();
        kid.stdout
            .take()
            .unwrap()
            .read_to_string(&mut stdout)
            .expect("client stdout");
        kid.stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .expect("client stderr");
        let (_, want_verdict, want_code) = &traces[i];
        if status.code() != *want_code {
            fail(
                seed,
                &format!(
                    "client {i} exited {:?}, one-shot analyze exited {want_code:?}\n{stderr}",
                    status.code()
                ),
            );
        }
        match verdict_section(&stdout) {
            Some(got) if got == want_verdict => {}
            Some(got) => fail(
                seed,
                &format!("client {i} verdict diverged:\n--- streamed\n{got}\n--- one-shot\n{want_verdict}"),
            ),
            None => fail(seed, &format!("client {i} printed no verdict:\n{stdout}\n{stderr}")),
        }
        if stdout.contains("reconnected: verdict reached on attempt") {
            reconnects += 1;
        }
    }

    // Drain the daemon cleanly.
    let down = Command::new(&bin)
        .args(["client", &addr, "--shutdown"])
        .output()
        .expect("run client --shutdown");
    if down.status.code() != Some(0) {
        fail(seed, "daemon shutdown failed");
    }
    let _ = daemon.wait();
    let mut drain_summary = String::new();
    let _ = daemon_out.read_to_string(&mut drain_summary);
    print!("{drain_summary}");

    if reconnects == 0 {
        fail(seed, "no client ever reconnected — chaos was inert");
    }
    println!(
        "gen_chaos: seed {seed}: {clients} client(s) converged on the one-shot verdicts \
         ({reconnects} reconnected, daemon killed {kills} time(s))"
    );
}
