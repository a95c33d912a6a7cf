//! A motivating application: a build-system scheduler on futures.
//!
//! Build steps are future tasks; artifacts are shared cells. A step
//! `get()`s the futures of the steps that produce its declared inputs —
//! the OpenMP-`depends`/dataflow pattern the paper's introduction
//! motivates. A **missing dependency declaration** is exactly a
//! determinacy race on the artifact, and one serial detector run finds it
//! regardless of scheduling luck — this is the "use case" framing of the
//! whole paper.
//!
//! ```text
//! cargo run --example build_system
//! ```

use futrace::prelude::*;
use futrace::runtime::TaskCtx;
use std::collections::HashMap;

/// A declarative build graph: each rule names its inputs and output.
struct Rule {
    name: &'static str,
    inputs: Vec<&'static str>,
    output: &'static str,
    /// "Work": the value written to the output artifact.
    cost: u64,
}

fn rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "gen-config",
            inputs: vec![],
            output: "config.h",
            cost: 3,
        },
        Rule {
            name: "cc-lexer",
            inputs: vec!["config.h"],
            output: "lexer.o",
            cost: 10,
        },
        Rule {
            name: "cc-parser",
            inputs: vec!["config.h", "lexer.o"],
            output: "parser.o",
            cost: 20,
        },
        Rule {
            name: "cc-main",
            inputs: vec!["config.h"],
            output: "main.o",
            cost: 7,
        },
        Rule {
            name: "link",
            inputs: vec!["lexer.o", "parser.o", "main.o"],
            output: "app",
            cost: 5,
        },
    ]
}

/// Runs the build under any executor. `forget_dep` drops one declared
/// dependency (the bug this demo plants): `cc-parser` stops waiting for
/// `lexer.o`.
fn build<C: TaskCtx>(ctx: &mut C, forget_dep: bool) -> SharedArray<u64> {
    let rules = rules();
    // One artifact cell per distinct file.
    let mut files: Vec<&str> = rules.iter().map(|r| r.output).collect();
    files.sort_unstable();
    files.dedup();
    let artifacts = ctx.shared_array(files.len(), 0u64, "artifact");
    let slot: HashMap<&str, usize> = files.iter().enumerate().map(|(i, f)| (*f, i)).collect();

    let mut producers: HashMap<&str, C::Handle<()>> = HashMap::new();
    for rule in rules {
        let deps: Vec<C::Handle<()>> = rule
            .inputs
            .iter()
            .filter(|f| !(forget_dep && rule.name == "cc-parser" && **f == "lexer.o"))
            .map(|f| producers[f].clone())
            .collect();
        let arts = artifacts.clone();
        let in_slots: Vec<usize> = rule.inputs.iter().map(|f| slot[f]).collect();
        let out_slot = slot[rule.output];
        let cost = rule.cost;
        let fut = ctx.future(move |ctx| {
            for d in &deps {
                ctx.get(d); // wait for declared inputs
            }
            // "Compile": fold the inputs into the output artifact.
            let mut acc = cost;
            for &s in &in_slots {
                acc = acc.wrapping_mul(31).wrapping_add(arts.read(ctx, s));
            }
            arts.write(ctx, out_slot, acc);
        });
        producers.insert(rule.output, fut);
    }
    ctx.get(&producers["app"]);
    artifacts
}

fn main() {
    // --- Correct build graph: certified determinate. --------------------
    let outcome = Analyze::program(|ctx| {
        build(ctx, false);
    })
    .run()
    .unwrap();
    let (report, stats) = (outcome.races, outcome.stats);
    println!("correct build graph:   {report}");
    println!(
        "  {} build tasks, {} cross-step joins ({} non-tree)",
        stats.tasks,
        stats.dtrg.gets,
        stats.nt_joins()
    );
    assert!(!report.has_races());

    // Race-free ⇒ any parallel schedule produces the same artifacts.
    let serial = {
        let mut mon = futrace::runtime::NullMonitor;
        futrace::runtime::run_serial(&mut mon, |ctx| build(ctx, false).snapshot())
    };
    let parallel = run_parallel(4, |ctx| build(ctx, false).snapshot()).unwrap();
    assert_eq!(serial, parallel);
    println!("  parallel build reproduces the serial artifacts bit-for-bit\n");

    // --- One forgotten dependency: caught in a single serial run. -------
    let report = Analyze::program(|ctx| {
        build(ctx, true);
    })
    .run()
    .unwrap()
    .races;
    println!("cc-parser forgets its lexer.o dependency:");
    println!("{report}");
    assert!(report.has_races());
    let first = report.first().unwrap();
    assert!(first.loc_name.starts_with("artifact"));
    println!("=> the missing edge shows up as a determinacy race on the artifact —");
    println!("   no flaky rebuilds needed to expose it.");
}
