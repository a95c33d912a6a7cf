//! Support data structures for the `futrace` project.
//!
//! This crate contains the domain-independent building blocks used by the
//! dynamic task reachability graph (DTRG) race detector and its substrates:
//!
//! * `unionfind` — a disjoint-set forest with user payloads attached to set
//!   representatives, implementing the `Make-Set` / `Union` / `Find-Set`
//!   interface of the paper (§4.1, "Disjoint set representation of tree
//!   joins") with path compression and union by rank.
//! * [`interval`] — the dynamic preorder/postorder *interval labeling* of the
//!   spawn tree (§4.1, "Interval encoding of spawn tree"), including the
//!   temporary-postorder scheme of Algorithms 1–3.
//! * `fxhash` — an FxHash-style hasher plus map/set aliases keyed by small
//!   integers; shadow-memory lookups dominate detector cost, so the default
//!   SipHash tables are replaced throughout.
//! * [`ids`] — strongly-typed identifiers shared by all crates
//!   ([`ids::TaskId`], [`ids::StepId`], [`ids::LocId`], [`ids::FinishId`]).
//! * [`stats`] — exact integer moments (count, sum, sum of squares,
//!   min/max), percentiles and timers, used both by the detector's Table-2
//!   instrumentation and by the bench harness.
//! * [`strided`] — the dense per-location cells of one shard of a
//!   location-routed analysis: shard `s` of `N` stores location `l` at
//!   index `l / N` (the shadow memories of the shardable detectors).
//! * [`rng`] — small deterministic RNG (splitmix64 + xoshiro256++, std-only)
//!   used by workload generators so every experiment is reproducible from a
//!   seed.
//! * [`propcheck`] — a minimal in-tree property-testing framework (seeded
//!   generation, configurable case counts, deterministic shrinking with
//!   replayable counterexample seeds) used by every randomized suite in the
//!   workspace; the repository builds and tests fully offline with zero
//!   external dependencies.
//! * [`faultinject`] — seeded deterministic fault plans ([`faultinject::FaultPlan`])
//!   that wrap any `io::Write`/`io::Read` with short ops, transient errors,
//!   hard errors, and truncation, plus worker panic/stall trigger points and
//!   the bounded [`faultinject::Backoff`] retry helper (DESIGN S38).
//! * [`wire`] — the length-delimited varint codec used by checkpoint state
//!   blobs (bounds-checked cursor, bit-exact floats), plus the framed
//!   session wire protocol ([`wire::proto`]) spoken by `tracetool serve`.
//! * [`crc32`] — slicing-by-16 CRC-32 (IEEE), one-shot and incremental,
//!   shared by the framed trace format, the corpus manifest, and the wire
//!   protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod faultinject;
pub(crate) mod fxhash;
pub mod ids;
pub mod interval;
pub mod propcheck;
pub mod rng;
pub mod stats;
pub mod strided;
pub(crate) mod unionfind;
pub mod wire;

pub use fxhash::{FxHashMap, FxHashSet};
pub use unionfind::UnionFind;
