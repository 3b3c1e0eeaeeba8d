//! # chl-core
//!
//! Shared-memory Canonical Hub Labeling (CHL) construction and querying —
//! the core contribution of *"Planting Trees for scalable and efficient
//! Canonical Hub Labeling"* (Lakhotia et al., VLDB 2019).
//!
//! Given a positively weighted graph and a network hierarchy (a
//! [`chl_ranking::Ranking`]), the constructors in this crate produce the
//! canonical hub labeling: the unique minimal labeling that respects the
//! hierarchy and covers every connected pair. A point-to-point shortest
//! distance (PPSD) query then reduces to intersecting two small sorted label
//! sets.
//!
//! ## The unified API
//!
//! All construction goes through one entry point, [`api::ChlBuilder`], which
//! dispatches over the [`api::Algorithm`] enum via the object-safe
//! [`api::Labeler`] trait, and every constructor returns its labeling as a
//! [`FlatIndex`]; all querying goes through the [`oracle::DistanceOracle`]
//! trait, implemented by [`FlatIndex`] and its views here and by the
//! distributed partitions and serving engines elsewhere in the workspace. Constructors and query backends can therefore be swapped
//! without touching call sites.
//!
//! ```
//! use chl_graph::generators::{grid_network, GridOptions};
//! use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
//! use chl_core::oracle::DistanceOracle;
//!
//! let g = grid_network(&GridOptions { rows: 8, cols: 8, ..GridOptions::default() }, 7);
//! let result = ChlBuilder::new(&g)
//!     .ranking(RankingStrategy::Degree)
//!     .algorithm(Algorithm::Hybrid)
//!     .threads(2)
//!     .validate()
//!     .expect("configuration is valid")
//!     .build()
//!     .expect("construction succeeds");
//!
//! // Hub labels answer exact shortest-path distance queries — through the
//! // index directly or through any `&dyn DistanceOracle`.
//! let oracle: &dyn DistanceOracle = &result.index;
//! assert_eq!(oracle.distance(0, 63), chl_graph::sssp::dijkstra(&g, 0)[63]);
//! ```
//!
//! ## Constructors
//!
//! Every [`api::Algorithm`] variant maps to one constructor module and one
//! paper section:
//!
//! | [`api::Algorithm`] | Module entry point | Paper section | Parallel? | Notes |
//! |---|---|---|---|---|
//! | `Pll` | [`pll::sequential_pll`] | §1 (baseline, Akiba et al.) | no | reference CHL constructor |
//! | `SParaPll` | [`para_pll::spara_pll`] | §3 (baseline, Qiu et al.) | yes | no rank queries ⇒ larger, non-canonical labeling |
//! | `Lcc` | [`lcc::lcc`] | §4.1, Alg. 2 | yes | construction + full cleaning ⇒ CHL |
//! | `Gll` | [`gll::gll`] | §4.2 | yes | superstep global/local tables ⇒ CHL, cheaper cleaning |
//! | `Plant` | [`plant::plant_labeling`] | §5.2, Alg. 3 | yes | embarrassingly parallel, no pruning queries ⇒ CHL |
//! | `Hybrid` | [`hybrid::shared_hybrid`] | §5.2.1 (shared-memory variant) | yes | PLaNT for the label-heavy prefix, one pass of pruned trees for the tail |
//!
//! Every one of them is a composition of tree kernel × tables × stop rule ×
//! clean over one crate-private root scheduler (`schedule.rs`), which claims
//! root positions in rank order on the `rayon` shim's workers.
//!
//! The per-module free functions remain as thin, panicking wrappers over the
//! corresponding [`api::Labeler`] so pre-builder call sites keep compiling;
//! new code should use the builder, which reports invalid input as
//! [`LabelingError`] instead.
//!
//! All constructors return the same canonical labeling for a given ranking
//! (except `SParaPll`, whose whole point is that it does not); the
//! [`canonical`] module contains a brute-force reference and property
//! checkers used heavily by the test-suite.
//!
//! ## Persistence: build once, serve forever
//!
//! Construction is the expensive phase and querying the latency-critical one
//! (§6), so the two are decoupled by a durable index: [`flat::FlatIndex`]
//! stores every label set in two contiguous CSR-style arrays (the serving
//! layout), and [`persist`] defines the versioned, checksummed `.chl` file
//! format it saves to and loads from. The on-disk layout is
//! byte-identical to the in-memory one (8-byte-aligned sections), so serving
//! does not even need the copy: [`persist::open_view`] borrows a
//! [`flat::IndexView`] — the query kernel every backend answers through —
//! straight from a validated buffer, and [`mapped::MmapIndex`] serves a file
//! through that view from the OS page cache. The lifecycle is
//!
//! ```text
//! ChlBuilder::build -> FlatIndex -> save(path)
//!                                 ...any process, any time later...
//! FlatIndex::load(path)  -> &dyn DistanceOracle   (owned, copying)
//! MmapIndex::open(path)  -> &dyn DistanceOracle   (borrowed, zero-copy)
//! ```
//!
//! The entries section of a file additionally supports a delta+varint
//! **compressed encoding** (`chl build --compress` /
//! [`persist::SaveOptions`]): labels are hub-sorted so hub gaps are small,
//! and one label typically costs 2–4 bytes on disk instead of 16.
//! Compressed files serve through the same [`flat::IndexView`] kernel —
//! decoded into a [`flat::FlatIndex`] on load, or streamed straight out of
//! the mapped bytes under `--mmap`.
//!
//! Conversion between the layouts is lossless, every corruption mode
//! (truncation, bit flips, wrong magic/version) loads as a typed
//! [`PersistError`], and the `chl` CLI (`crates/cli`) drives the same
//! lifecycle from the shell (`chl query --mmap` for the zero-copy path).

// The unsafe surface of this crate lives in persist.rs/mapped.rs (byte
// reinterpretation and mmap) and kernel.rs (two bounds-elided loads in the
// branchless join), and every unsafe operation must sit in an explicit
// `unsafe {}` block with its own `// SAFETY:` argument — even inside
// `unsafe fn`s — and every `unsafe fn` documents its `# Safety` contract
// (clippy, with `check-private-items` in clippy.toml). The panic-surface
// lints are denied at the top of each hot-path module.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod api;
pub mod canonical;
pub mod cleaning;
pub mod config;
pub mod error;
pub mod flat;
pub mod gll;
pub mod hybrid;
pub mod index;
pub mod kernel;
pub mod labels;
pub mod lcc;
pub mod mapped;
pub mod oracle;
pub mod para_pll;
pub mod paths;
pub mod persist;
pub mod plant;
pub mod pll;
pub mod pruned_dijkstra;
mod schedule;
pub mod stats;
pub mod table;

pub use api::{Algorithm, ChlBuilder, Labeler, LabelingResult, RankingStrategy};
pub use config::LabelingConfig;
pub use error::LabelingError;
pub use flat::{FlatIndex, IndexView};
pub use index::HubLabelIndex;
pub use labels::{LabelEntry, LabelSet};
pub use mapped::MmapIndex;
pub use oracle::DistanceOracle;
pub use paths::{compute_parents, PathError, PathOracle};
pub use persist::{PersistError, SaveOptions};
pub use stats::ConstructionStats;
