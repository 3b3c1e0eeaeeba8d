//! The unified construction API: one algorithm-agnostic entry point over all
//! six CHL constructors.
//!
//! The paper's central observation is that PLL, LCC, GLL, PLaNT and the
//! Hybrid all produce the *same* canonical hub labeling (and SparaPLL a
//! query-equivalent, non-canonical one), so callers should never be coupled to a
//! specific constructor. This module provides that seam:
//!
//! * [`Algorithm`] — a value-level name for each constructor;
//! * [`Labeler`] — the object-safe construction trait, one implementation
//!   per constructor, with input validation routed through
//!   [`LabelingError`] instead of panics;
//! * [`RankingStrategy`] — how the builder obtains the network hierarchy;
//! * [`ChlBuilder`] — the fluent front door:
//!
//! ```
//! use chl_graph::generators::{grid_network, GridOptions};
//! use chl_core::api::{Algorithm, ChlBuilder, RankingStrategy};
//!
//! let g = grid_network(&GridOptions { rows: 6, cols: 6, ..GridOptions::default() }, 7);
//! let result = ChlBuilder::new(&g)
//!     .ranking(RankingStrategy::Degree)
//!     .algorithm(Algorithm::Hybrid)
//!     .threads(2)
//!     .validate()
//!     .expect("valid configuration")
//!     .build()
//!     .expect("construction succeeds");
//! assert!(result.index.total_labels() > 0);
//! ```

use std::fmt;
use std::str::FromStr;

use chl_graph::CsrGraph;
use chl_ranking::{
    betweenness_ranking, default_ranking, degree_ranking, BetweennessOptions, Ranking,
};

use crate::config::LabelingConfig;
use crate::error::LabelingError;
use crate::index::LabelingResult;

/// The six labeling constructors of the paper, as values.
///
/// | Variant | Constructor | Paper section | Canonical output? |
/// |---|---|---|---|
/// | `Pll` | sequential PLL (Akiba et al.) | §1 baseline | yes |
/// | `SParaPll` | shared-memory paraPLL (Qiu et al.) | §3 baseline | no (query-equivalent) |
/// | `Lcc` | Label Construction and Cleaning | §4.1, Alg. 2 | yes |
/// | `Gll` | Global-Local Labeling | §4.2 | yes |
/// | `Plant` | PLaNT (prune labels, not trees) | §5.2, Alg. 3 | yes |
/// | `Hybrid` | PLaNT prefix + pruned tail | §5.2.1 | yes |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sequential Pruned Landmark Labeling, the reference constructor.
    Pll,
    /// Shared-memory paraPLL: parallel, no rank queries, non-canonical.
    SParaPll,
    /// Optimistic parallel construction plus a full cleaning pass.
    Lcc,
    /// Superstep-synchronized global/local tables, cheaper cleaning.
    Gll,
    /// Prune-free tree growth with local label emission decisions.
    Plant,
    /// PLaNT for the label-heavy prefix, GLL for the tail.
    Hybrid,
}

impl Algorithm {
    /// Every algorithm, in the paper's presentation order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Pll,
        Algorithm::SParaPll,
        Algorithm::Lcc,
        Algorithm::Gll,
        Algorithm::Plant,
        Algorithm::Hybrid,
    ];

    /// The algorithms guaranteed to produce the canonical labeling.
    pub const CANONICAL: [Algorithm; 5] = [
        Algorithm::Pll,
        Algorithm::Lcc,
        Algorithm::Gll,
        Algorithm::Plant,
        Algorithm::Hybrid,
    ];

    /// Short display name, matching the paper's typography.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Pll => "seqPLL",
            Algorithm::SParaPll => "SparaPLL",
            Algorithm::Lcc => "LCC",
            Algorithm::Gll => "GLL",
            Algorithm::Plant => "PLaNT",
            Algorithm::Hybrid => "Hybrid",
        }
    }

    /// The paper section introducing the algorithm.
    ///
    /// ```
    /// use chl_core::api::Algorithm;
    ///
    /// assert_eq!(Algorithm::Plant.paper_section(), "§5.2, Algorithm 3");
    /// // Names parse back case-insensitively, so CLI flags and config files
    /// // can round-trip through `to_string`.
    /// assert_eq!("plant".parse::<Algorithm>().unwrap(), Algorithm::Plant);
    /// assert_eq!(Algorithm::Plant.to_string(), "PLaNT");
    /// ```
    pub fn paper_section(self) -> &'static str {
        match self {
            Algorithm::Pll => "§1 (baseline, Akiba et al. 2013)",
            Algorithm::SParaPll => "§3 (baseline, Qiu et al. 2018)",
            Algorithm::Lcc => "§4.1, Algorithm 2",
            Algorithm::Gll => "§4.2",
            Algorithm::Plant => "§5.2, Algorithm 3",
            Algorithm::Hybrid => "§5.2.1",
        }
    }

    /// `true` when the constructor outputs the canonical hub labeling;
    /// `SParaPll` instead outputs a query-equivalent labeling.
    pub fn is_canonical(self) -> bool {
        !matches!(self, Algorithm::SParaPll)
    }

    /// `true` for multi-threaded constructors.
    pub fn is_parallel(self) -> bool {
        !matches!(self, Algorithm::Pll)
    }

    /// The [`Labeler`] implementing this algorithm.
    pub fn labeler(self) -> &'static dyn Labeler {
        match self {
            Algorithm::Pll => &PllLabeler,
            Algorithm::SParaPll => &SParaPllLabeler,
            Algorithm::Lcc => &LccLabeler,
            Algorithm::Gll => &GllLabeler,
            Algorithm::Plant => &PlantLabeler,
            Algorithm::Hybrid => &HybridLabeler,
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = LabelingError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pll" | "seqpll" => Ok(Algorithm::Pll),
            "sparapll" | "parapll" | "para-pll" => Ok(Algorithm::SParaPll),
            "lcc" => Ok(Algorithm::Lcc),
            "gll" => Ok(Algorithm::Gll),
            "plant" => Ok(Algorithm::Plant),
            "hybrid" => Ok(Algorithm::Hybrid),
            other => Err(LabelingError::InvalidConfig(format!(
                "unknown algorithm '{other}' (expected one of pll, sparapll, lcc, gll, plant, hybrid)"
            ))),
        }
    }
}

/// How [`ChlBuilder`] obtains the network hierarchy.
///
/// This is the *value-level* companion of the `chl_ranking::RankingStrategy`
/// trait: an enum so it can be stored, compared and parsed, covering the
/// hierarchies the paper evaluates plus explicit user-supplied orders.
#[derive(Debug, Clone)]
pub enum RankingStrategy {
    /// Degree ordering — the paper's choice for scale-free networks (§7.1.1).
    Degree,
    /// Approximate betweenness — the paper's choice for road networks.
    Betweenness {
        /// Seed for the sampled shortest-path trees.
        seed: u64,
    },
    /// Pick degree or betweenness from the graph's topology, like
    /// `chl_ranking::default_ranking`.
    Auto {
        /// Seed forwarded to the betweenness sampler when it is chosen.
        seed: u64,
    },
    /// A caller-supplied hierarchy (e.g. imported highway hierarchies).
    Explicit(Ranking),
}

impl RankingStrategy {
    /// Resolves the strategy into a concrete [`Ranking`] for `g`.
    pub fn resolve(&self, g: &CsrGraph) -> Ranking {
        match self {
            RankingStrategy::Degree => degree_ranking(g),
            RankingStrategy::Betweenness { seed } => {
                betweenness_ranking(g, &BetweennessOptions::default(), *seed)
            }
            RankingStrategy::Auto { seed } => default_ranking(g, *seed),
            RankingStrategy::Explicit(r) => r.clone(),
        }
    }
}

impl Default for RankingStrategy {
    fn default() -> Self {
        RankingStrategy::Auto { seed: 42 }
    }
}

/// Checks the (graph, ranking, config) triple every constructor requires.
fn validate_inputs(
    g: &CsrGraph,
    ranking: &Ranking,
    config: &LabelingConfig,
) -> Result<(), LabelingError> {
    config.validate()?;
    if !ranking.matches_graph(g) {
        return Err(LabelingError::RankingMismatch {
            graph_vertices: g.num_vertices(),
            ranking_vertices: ranking.len(),
        });
    }
    Ok(())
}

/// An object-safe CHL constructor.
///
/// One implementation exists per [`Algorithm`]; all of them validate their
/// inputs (returning [`LabelingError`] instead of panicking or silently
/// corrupting state) and produce a [`LabelingResult`] whose index answers
/// exact PPSD queries through
/// [`DistanceOracle`](crate::oracle::DistanceOracle).
pub trait Labeler: Sync {
    /// Which algorithm this labeler runs.
    fn algorithm(&self) -> Algorithm;

    /// Short display name.
    fn name(&self) -> &'static str {
        self.algorithm().name()
    }

    /// Builds the hub labeling of `g` under `ranking`.
    fn build(
        &self,
        g: &CsrGraph,
        ranking: &Ranking,
        config: &LabelingConfig,
    ) -> Result<LabelingResult, LabelingError>;
}

macro_rules! declare_labeler {
    ($(#[$doc:meta])* $struct_name:ident, $variant:ident, |$g:ident, $r:ident, $c:ident| $call:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $struct_name;

        impl Labeler for $struct_name {
            fn algorithm(&self) -> Algorithm {
                Algorithm::$variant
            }

            fn build(
                &self,
                $g: &CsrGraph,
                $r: &Ranking,
                $c: &LabelingConfig,
            ) -> Result<LabelingResult, LabelingError> {
                validate_inputs($g, $r, $c)?;
                Ok($call)
            }
        }
    };
}

declare_labeler!(
    /// [`Labeler`] running sequential PLL (ignores the thread count).
    PllLabeler,
    Pll,
    |g, r, _c| crate::pll::sequential_pll_impl(g, r)
);

declare_labeler!(
    /// [`Labeler`] running shared-memory paraPLL (non-canonical output).
    SParaPllLabeler,
    SParaPll,
    |g, r, c| crate::para_pll::spara_pll_impl(g, r, c)
);

declare_labeler!(
    /// [`Labeler`] running LCC (construction + full cleaning).
    LccLabeler,
    Lcc,
    |g, r, c| crate::lcc::lcc_impl(g, r, c)
);

declare_labeler!(
    /// [`Labeler`] running GLL (superstep global/local tables).
    GllLabeler,
    Gll,
    |g, r, c| crate::gll::gll_impl(g, r, c)
);

declare_labeler!(
    /// [`Labeler`] running PLaNT (no pruning queries, local emission).
    PlantLabeler,
    Plant,
    |g, r, c| crate::plant::plant_labeling_impl(g, r, c)
);

declare_labeler!(
    /// [`Labeler`] running the shared-memory Hybrid (PLaNT prefix + pruned tail).
    HybridLabeler,
    Hybrid,
    |g, r, c| crate::hybrid::shared_hybrid_impl(g, r, c)
);

/// Fluent, validating front door to every constructor.
///
/// Holds a borrowed graph plus the choices that define a construction run:
/// the hierarchy ([`RankingStrategy`]), the [`Algorithm`] and the tuning
/// knobs of [`LabelingConfig`]. `build` resolves the ranking, validates
/// everything and dispatches through [`Labeler`].
#[derive(Debug, Clone)]
pub struct ChlBuilder<'g> {
    graph: &'g CsrGraph,
    ranking: RankingStrategy,
    algorithm: Algorithm,
    config: LabelingConfig,
}

impl<'g> ChlBuilder<'g> {
    /// Starts a builder for `graph` with the paper's defaults: automatic
    /// hierarchy selection and the Hybrid constructor.
    pub fn new(graph: &'g CsrGraph) -> Self {
        ChlBuilder {
            graph,
            ranking: RankingStrategy::default(),
            algorithm: Algorithm::Hybrid,
            config: LabelingConfig::default(),
        }
    }

    /// Selects the hierarchy strategy.
    pub fn ranking(mut self, strategy: RankingStrategy) -> Self {
        self.ranking = strategy;
        self
    }

    /// Selects the constructor.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Replaces the whole tuning configuration.
    pub fn config(mut self, config: LabelingConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker thread count (`0` = all available parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.num_threads = threads;
        self
    }

    /// Sets GLL's synchronization threshold `α`.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.config.alpha = alpha;
        self
    }

    /// Sets the Hybrid switching factor: Hybrid stops PLaNTing once Ψ
    /// exceeds this factor times the average label size built so far
    /// (default 0.03; see [`LabelingConfig::psi_threshold`]).
    pub fn psi_threshold(mut self, psi: f64) -> Self {
        self.config.psi_threshold = psi;
        self
    }

    /// The algorithm currently selected.
    pub fn selected_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The tuning configuration currently assembled.
    pub fn current_config(&self) -> &LabelingConfig {
        &self.config
    }

    /// Checks the assembled configuration without running construction,
    /// passing the builder through on success so it chains into
    /// [`Self::build`].
    pub fn validate(self) -> Result<Self, LabelingError> {
        self.config.validate()?;
        if let RankingStrategy::Explicit(r) = &self.ranking {
            if !r.matches_graph(self.graph) {
                return Err(LabelingError::RankingMismatch {
                    graph_vertices: self.graph.num_vertices(),
                    ranking_vertices: r.len(),
                });
            }
        }
        Ok(self)
    }

    /// Resolves the ranking and runs the selected constructor.
    pub fn build(&self) -> Result<LabelingResult, LabelingError> {
        // Reject bad configurations before resolving the ranking: computing
        // an approximate-betweenness hierarchy can cost minutes on large
        // graphs, and an invalid config should fail for free.
        self.config.validate()?;
        let ranking = self.ranking.resolve(self.graph);
        self.algorithm
            .labeler()
            .build(self.graph, &ranking, &self.config)
    }

    /// Like [`Self::build`], but flattens the result into the contiguous
    /// serving layout — the build → persist pipeline of `chl build` as one
    /// call: follow with [`FlatIndex::save`](crate::flat::FlatIndex::save)
    /// or [`save_with`](crate::flat::FlatIndex::save_with) (e.g.
    /// `SaveOptions::compressed()` for the delta+varint entries section).
    pub fn build_flat(&self) -> Result<crate::flat::FlatIndex, LabelingError> {
        Ok(crate::flat::FlatIndex::from_index(&self.build()?.index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chl_graph::generators::{grid_network, GridOptions};

    fn small_grid() -> CsrGraph {
        grid_network(
            &GridOptions {
                rows: 5,
                cols: 5,
                ..GridOptions::default()
            },
            3,
        )
    }

    #[test]
    fn every_algorithm_builds_through_the_trait() {
        let g = small_grid();
        let ranking = degree_ranking(&g);
        let config = LabelingConfig::default().with_threads(2);
        let reference = Algorithm::Pll
            .labeler()
            .build(&g, &ranking, &config)
            .unwrap();
        for algo in Algorithm::ALL {
            let result = algo.labeler().build(&g, &ranking, &config).unwrap();
            assert_eq!(result.index.num_vertices(), g.num_vertices());
            if algo.is_canonical() {
                assert_eq!(result.index, reference.index, "{algo} must equal seqPLL");
            }
        }
    }

    #[test]
    fn builder_chains_and_validates() {
        let g = small_grid();
        let result = ChlBuilder::new(&g)
            .ranking(RankingStrategy::Degree)
            .algorithm(Algorithm::Gll)
            .threads(2)
            .alpha(2.0)
            .validate()
            .expect("config is valid")
            .build()
            .expect("construction succeeds");
        assert!(result.index.total_labels() > 0);
    }

    #[test]
    fn builder_rejects_bad_config() {
        let g = small_grid();
        let err = ChlBuilder::new(&g).alpha(0.2).validate().unwrap_err();
        assert!(matches!(err, LabelingError::InvalidConfig(_)));
        // build() re-validates even when validate() was skipped.
        let err = ChlBuilder::new(&g).psi_threshold(-1.0).build().unwrap_err();
        assert!(matches!(err, LabelingError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_mismatched_explicit_ranking() {
        let g = small_grid();
        let wrong = Ranking::identity(3);
        let err = ChlBuilder::new(&g)
            .ranking(RankingStrategy::Explicit(wrong))
            .validate()
            .unwrap_err();
        assert!(matches!(err, LabelingError::RankingMismatch { .. }));
    }

    #[test]
    fn labeler_rejects_mismatched_ranking() {
        let g = small_grid();
        let wrong = Ranking::identity(2);
        for algo in Algorithm::ALL {
            let err = algo
                .labeler()
                .build(&g, &wrong, &LabelingConfig::default())
                .unwrap_err();
            assert!(
                matches!(err, LabelingError::RankingMismatch { .. }),
                "{algo}"
            );
        }
    }

    #[test]
    fn algorithm_metadata_is_consistent() {
        assert_eq!(Algorithm::ALL.len(), 6);
        assert_eq!(Algorithm::CANONICAL.len(), 5);
        for algo in Algorithm::ALL {
            assert_eq!(algo.labeler().algorithm(), algo);
            assert_eq!(algo.labeler().name(), algo.name());
            assert!(!algo.paper_section().is_empty());
            assert_eq!(algo.is_canonical(), Algorithm::CANONICAL.contains(&algo));
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        assert!("nonsense".parse::<Algorithm>().is_err());
    }

    #[test]
    fn ranking_strategies_resolve() {
        let g = small_grid();
        let n = g.num_vertices();
        assert_eq!(RankingStrategy::Degree.resolve(&g).len(), n);
        assert_eq!(
            RankingStrategy::Betweenness { seed: 1 }.resolve(&g).len(),
            n
        );
        assert_eq!(RankingStrategy::Auto { seed: 1 }.resolve(&g).len(), n);
        let explicit = Ranking::identity(n);
        assert_eq!(
            RankingStrategy::Explicit(explicit.clone()).resolve(&g),
            explicit
        );
    }
}
