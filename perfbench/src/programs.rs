//! The programs each workload runs: benchsuite kernels called directly
//! with the registry's parameters, except for the kernel's `seed` field,
//! which is derived from the benchmark's `--seed`.

use futrace::benchsuite::registry::Scale;
use futrace::benchsuite::{
    actor, crypt, futlist, futtree, graphwalk, jacobi, prodcons, smithwaterman, sor,
};
use futrace::runtime::TaskCtx;

/// The `--seed` that reproduces the registry's parameters exactly.
pub const DEFAULT_SEED: u64 = 0;

/// One kernel with its parameters.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    Jacobi(jacobi::JacobiParams),
    SmithWaterman(smithwaterman::SwParams),
    Sor(sor::SorParams),
    Crypt(crypt::CryptParams),
    ProdCons(prodcons::ProdConsParams),
    FutList(futlist::FutListParams),
    FutTree(futtree::FutTreeParams),
    GraphWalk(graphwalk::GraphWalkParams),
    Actor(actor::ActorParams),
}

/// One program of a workload: a kernel, clean or with its planted race.
#[derive(Clone, Copy, Debug)]
pub struct Program {
    /// The kernel's registry name.
    pub name: &'static str,
    pub planted: bool,
    pub kernel: Kernel,
}

impl Program {
    /// Runs the kernel under any executor: the serial one for recording,
    /// detection and the uninstrumented reference, the pool for online
    /// detection.
    pub fn run<C: TaskCtx>(&self, ctx: &mut C) {
        let planted = self.planted;
        match &self.kernel {
            Kernel::Jacobi(p) => drop(jacobi::jacobi_run(ctx, p, planted)),
            Kernel::SmithWaterman(p) => drop(smithwaterman::sw_run(ctx, p, planted)),
            Kernel::Sor(p) => drop(sor::sor_run(ctx, p, planted)),
            Kernel::Crypt(p) => drop(crypt::crypt_run(ctx, p, crypt::CryptVariant::Future)),
            Kernel::ProdCons(p) => drop(prodcons::prodcons_run(ctx, p, planted)),
            Kernel::FutList(p) => drop(futlist::futlist_run(ctx, p, planted)),
            Kernel::FutTree(p) => drop(futtree::futtree_run(ctx, p, planted)),
            Kernel::GraphWalk(p) => drop(graphwalk::graphwalk_run(ctx, p, planted)),
            Kernel::Actor(p) => drop(actor::actor_run(ctx, p, planted)),
        }
    }

    /// Whether the untraced runs time this program's online detection.
    /// Online runs of `prodcons`, `futlist`, `graphwalk` and `actor` grow
    /// the pool on blocking sibling `get()`s (compensated blocking, up to
    /// the 256-worker cap on 2 cores), and their time then swings by up
    /// to 50x between identical runs; the traced run still times them.
    pub fn gates_online(&self) -> bool {
        !matches!(self.name, "prodcons" | "futlist" | "graphwalk" | "actor")
    }

    /// The verdict every path must reach.
    pub fn expect_races(&self) -> bool {
        self.planted
    }

    /// `name` plus `+race` for a planted variant, as reports print it.
    pub fn label(&self) -> String {
        if self.planted {
            format!("{}+race", self.name)
        } else {
            self.name.to_string()
        }
    }
}

/// A benchmark workload: a named set of programs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Clean future-structured programs: sibling `get()` joins miss the
    /// memo and shadow caches, so `Precede`/`Visit` dominate.
    Futures,
    /// Clean loop kernels: the shadow fast path answers most checks, so
    /// decoding, routing and the wire dominate.
    Loops,
    /// Planted-race variants of every plantable program above: the same
    /// code with failing checks.
    Racy,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Futures, Workload::Loops, Workload::Racy];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Futures => "futures",
            Workload::Loops => "loops",
            Workload::Racy => "racy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's programs in registry order, with every kernel seed
    /// derived from `seed`.
    pub fn programs(self, scale: Scale, seed: u64) -> Vec<Program> {
        let (names, planted): (&[&str], bool) = match self {
            Workload::Futures => (
                &["prodcons", "futlist", "futtree", "graphwalk", "actor"],
                false,
            ),
            Workload::Loops => (&["jacobi", "smithwaterman", "sor", "crypt"], false),
            Workload::Racy => (
                &[
                    "jacobi",
                    "smithwaterman",
                    "sor",
                    "prodcons",
                    "futlist",
                    "futtree",
                    "graphwalk",
                    "actor",
                ],
                true,
            ),
        };
        names
            .iter()
            .map(|&name| Program {
                name,
                planted,
                kernel: kernel(name, scale, seed),
            })
            .collect()
    }
}

/// XOR mask applied to every kernel's registry seed: zero for
/// [`DEFAULT_SEED`], and an odd multiplier keeps distinct seeds distinct.
fn seed_mask(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The registry's parameters for `name` at `scale` (`Scale::Perf` uses
/// the scaled sizes for every kernel here), reseeded from `seed`.
fn kernel(name: &str, scale: Scale, seed: u64) -> Kernel {
    macro_rules! params {
        ($params:ty) => {{
            let mut p = match scale {
                Scale::Tiny => <$params>::tiny(),
                Scale::Scaled | Scale::Perf => <$params>::scaled(),
            };
            p.seed ^= seed_mask(seed);
            p
        }};
    }
    match name {
        "jacobi" => Kernel::Jacobi(params!(jacobi::JacobiParams)),
        "smithwaterman" => Kernel::SmithWaterman(params!(smithwaterman::SwParams)),
        "sor" => Kernel::Sor(params!(sor::SorParams)),
        "crypt" => Kernel::Crypt(params!(crypt::CryptParams)),
        "prodcons" => Kernel::ProdCons(params!(prodcons::ProdConsParams)),
        "futlist" => Kernel::FutList(params!(futlist::FutListParams)),
        "futtree" => Kernel::FutTree(params!(futtree::FutTreeParams)),
        "graphwalk" => Kernel::GraphWalk(params!(graphwalk::GraphWalkParams)),
        "actor" => Kernel::Actor(params!(actor::ActorParams)),
        other => unreachable!("no kernel named {other}"),
    }
}
