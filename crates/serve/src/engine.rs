//! The query engine: a loaded graph plus precomputed cache-friendly
//! artifacts, answering point-to-point queries with deadline
//! propagation.
//!
//! At startup the engine builds (paper §2–§3 machinery end-to-end):
//!
//! * the graph as a CSR adjacency array (the cache-friendly
//!   representation of §3.2);
//! * for small instances (`n ≤ apsp_threshold`) an exact APSP table via
//!   the BDL-tiled Floyd-Warshall of §3.1 — point-to-point distance
//!   becomes one array read;
//! * otherwise the reverse (transposed) CSR graph, kept for the life of
//!   the engine: `path` and `reach` are answered exactly by a
//!   cancellable bidirectional Dijkstra ([`distance_to`]) that searches
//!   forward from the source over the graph and backward from the
//!   target over the reverse graph, and stops where the two meet, so a
//!   point query touches a small ball around each endpoint instead of
//!   about half the graph;
//! * for small instances, an exact reachability matrix via the
//!   *parallel* tiled boolean closure — `reach` becomes one bit read;
//! * a companion bipartite graph for the `match` op, streamed from the
//!   generator's sampler straight into a left-only CSR
//!   ([`generators::random_bipartite_left`]): the Fig. 8 augmenting
//!   search only ever follows left → right arcs, so no edge list and no
//!   right → left half is kept. The parallel partitioned Fig. 9 matcher
//!   carves its cache-sized parts from that CSR's left arcs, solves
//!   once under the first `match` request's deadline, and the size is
//!   memoised.
//!
//! The `sssp` op runs the parallel delta-stepping driver at query time:
//! a full single-source tree is exactly the shape where the TaskGraph
//! parallelism pays, unlike point queries, which the serial
//! bidirectional search answers with less work.
//!
//! Every potentially long computation takes the caller's cancellation
//! closure; the engine itself never looks at clocks or the
//! observability layer — deadlines are the server's business,
//! propagated down as a `Fn() -> bool + Sync` hook that parallel
//! drivers poll from every worker.

use cachegraph_fw::{
    fw_tiled_cancellable, transitive_closure_tiled_parallel, BitMatrix, FwMatrix,
};
use cachegraph_graph::{generators, AdjacencyArray, EdgeListBuilder, VertexId, Weight, INF};
use cachegraph_layout::BlockLayout;
use cachegraph_matching::{
    find_matching_partitioned_parallel_cancellable, Matching, PartitionScheme,
};
use cachegraph_obs::Json;
use cachegraph_sssp::{delta_stepping_parallel_cancellable, distance_to};
use std::io;
use std::sync::Mutex;
use std::sync::{MutexGuard, PoisonError};

/// Survive a poisoned matching cache (a panicked worker must not take
/// the engine down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How the engine's graph and artifacts are built.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of vertices in the generated graph: positive and even
    /// (the bipartite companion splits it in half).
    pub n: usize,
    /// Edge density of the generated graph, in `[0, 1]`.
    pub density: f64,
    /// Maximum edge weight.
    pub max_weight: Weight,
    /// Generator seed (the bipartite companion uses `seed + 1`).
    pub seed: u64,
    /// At or below this size, precompute the full APSP table with the
    /// tiled Floyd-Warshall; above it, keep the reverse graph for the
    /// bidirectional search instead.
    pub apsp_threshold: usize,
    /// Tile size for the APSP precompute.
    pub tile: usize,
    /// Not read: the engine builds no landmark sketches. The field
    /// exists only so the benchmark package (`perfbench/`), which still
    /// reads it, keeps compiling unchanged.
    pub landmarks: usize,
    /// Worker threads for the parallel TaskGraph drivers (delta-stepping
    /// `sssp`, partitioned `match`, closure precompute).
    pub threads: usize,
    /// Bucket width for the delta-stepping `sssp` op.
    pub delta: Weight,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n: 256,
            density: 0.05,
            max_weight: 100,
            seed: 42,
            apsp_threshold: 128,
            tile: 8,
            landmarks: 8,
            threads: 2,
            delta: 16,
        }
    }
}

impl EngineConfig {
    /// Check the fields [`QueryEngine::build`] would otherwise panic on:
    /// `n` must be positive and even, and `density` must lie in
    /// `[0, 1]`. The error is [`io::ErrorKind::InvalidInput`] and names
    /// the field.
    pub(crate) fn validate(&self) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.n == 0 || !self.n.is_multiple_of(2) {
            return invalid(format!(
                "engine config: n = {} must be positive and even (the match companion splits it in half)",
                self.n
            ));
        }
        if !(0.0..=1.0).contains(&self.density) {
            return invalid(format!("engine config: density = {} must be in [0, 1]", self.density));
        }
        Ok(())
    }
}

/// A vertex argument outside `0..n`, or the query's deadline expired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The deadline expired; the partial computation was discarded.
    Cancelled,
    /// A vertex id is out of range.
    BadVertex {
        /// The offending id.
        v: VertexId,
        /// The graph size it must be below.
        n: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Cancelled => write!(f, "query cancelled"),
            Self::BadVertex { v, n } => write!(f, "vertex {v} out of range (n = {n})"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How the engine answers exact point-to-point distances, chosen by
/// instance size.
enum Exact {
    /// Row-major APSP distances (`n ≤ apsp_threshold`).
    Table(Vec<Weight>),
    /// The reverse graph, which [`distance_to`] searches backward from
    /// the target (above the threshold).
    Search(AdjacencyArray),
}

/// The loaded graph and its precomputed artifacts. Shared across the
/// worker pool behind an `Arc`; all query methods take `&self`.
pub struct QueryEngine {
    graph: AdjacencyArray,
    n: usize,
    exact: Exact,
    /// Exact reachability bits (small instances only), built by the
    /// parallel tiled boolean closure.
    closure: Option<BitMatrix>,
    /// The `match` companion's left → right arcs over all `n`
    /// vertices (right vertices have none).
    bipartite: AdjacencyArray,
    n_left: usize,
    /// Memoised maximum-matching size for the companion graph.
    matching_size: Mutex<Option<usize>>,
    threads: usize,
    delta: Weight,
}

impl QueryEngine {
    /// Build the engine: generate the graph, then precompute either the
    /// APSP table (tiled FW, cancellable with a never-firing closure —
    /// startup has no deadline) or the reverse graph, and stream the
    /// `match` companion. Expects a positive, even `n` and a `density`
    /// in `[0, 1]`, and may panic otherwise; [`start`](crate::start)
    /// rejects other configs with a typed error before building.
    pub fn build(cfg: &EngineConfig) -> Self {
        let threads = cfg.threads.max(1);
        let builder = generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed);
        let graph = builder.build_array();
        let (exact, closure) = if cfg.n <= cfg.apsp_threshold {
            let reach = transitive_closure_tiled_parallel(
                BitMatrix::from_graph(&graph),
                cfg.tile.max(1),
                threads,
            );
            (Exact::Table(Self::apsp_table(&builder, cfg)), Some(reach))
        } else {
            (Exact::Search(builder.reversed().build_array()), None)
        };
        drop(builder); // free the edge list before the companion streams in
        let bipartite =
            generators::random_bipartite_left(cfg.n, cfg.density.max(0.02), cfg.seed + 1);
        Self {
            graph,
            n: cfg.n,
            exact,
            closure,
            bipartite,
            n_left: cfg.n / 2,
            matching_size: Mutex::new(None),
            threads,
            delta: cfg.delta.max(1),
        }
    }

    /// Exact APSP via the tiled Floyd-Warshall on a block layout.
    fn apsp_table(builder: &EdgeListBuilder, cfg: &EngineConfig) -> Vec<Weight> {
        let n = cfg.n;
        let mut costs = vec![INF; n * n];
        for i in 0..n {
            costs[i * n + i] = 0;
        }
        for e in builder.edges() {
            let cell = &mut costs[e.from as usize * n + e.to as usize];
            *cell = (*cell).min(e.weight);
        }
        let mut m = FwMatrix::from_costs(BlockLayout::new(n, cfg.tile), &costs);
        fw_tiled_cancellable(&mut m, cfg.tile, &mut || false)
            // tidy: allow(panic-policy) -- a never-firing closure cannot cancel
            .expect("uncancellable precompute cannot be cancelled");
        m.to_row_major()
    }

    /// Number of vertices served.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// True when the exact APSP table was precomputed.
    pub fn has_apsp(&self) -> bool {
        matches!(self.exact, Exact::Table(_))
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), QueryError> {
        if (v as usize) < self.n {
            Ok(())
        } else {
            Err(QueryError::BadVertex { v, n: self.n })
        }
    }

    /// Exact `src -> dst` distance: one table read when the APSP table
    /// exists, otherwise the cancellable bidirectional Dijkstra over the
    /// graph and the reverse graph, which polls `cancel` before its
    /// first settle and then every
    /// [`CANCEL_CHECK_INTERVAL`](cachegraph_sssp::CANCEL_CHECK_INTERVAL)
    /// settles over both sides.
    pub fn distance(
        &self,
        src: VertexId,
        dst: VertexId,
        cancel: &(impl Fn() -> bool + Sync),
    ) -> Result<Weight, QueryError> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        match &self.exact {
            Exact::Table(apsp) => Ok(apsp[src as usize * self.n + dst as usize]),
            Exact::Search(reverse) => {
                let mut poll = || cancel();
                distance_to(&self.graph, reverse, src, dst, &mut poll)
                    .map_err(|_| QueryError::Cancelled)
            }
        }
    }

    /// The `path` answer payload: exact distance and reachability.
    pub fn path(
        &self,
        src: VertexId,
        dst: VertexId,
        cancel: &(impl Fn() -> bool + Sync),
    ) -> Result<Json, QueryError> {
        let d = self.distance(src, dst, cancel)?;
        let json = Json::obj().field("reachable", d != INF);
        Ok(if d == INF { json.field("dist", Json::Null) } else { json.field("dist", u64::from(d)) })
    }

    /// The `reach` answer payload: one bit read when the closure matrix
    /// was precomputed, otherwise derived from the exact distance.
    pub fn reach(
        &self,
        src: VertexId,
        dst: VertexId,
        cancel: &(impl Fn() -> bool + Sync),
    ) -> Result<Json, QueryError> {
        if let Some(closure) = &self.closure {
            self.check_vertex(src)?;
            self.check_vertex(dst)?;
            return Ok(Json::obj().field("reachable", closure.get(src as usize, dst as usize)));
        }
        let d = self.distance(src, dst, cancel)?;
        Ok(Json::obj().field("reachable", d != INF))
    }

    /// The `sssp` answer payload: a full single-source shortest-path
    /// tree from `src`, computed by the parallel delta-stepping driver
    /// under the caller's cancellation, summarised as the number of
    /// reached vertices and the tree's eccentricity.
    pub fn sssp(
        &self,
        src: VertexId,
        cancel: &(impl Fn() -> bool + Sync),
    ) -> Result<Json, QueryError> {
        self.check_vertex(src)?;
        let r = delta_stepping_parallel_cancellable(&self.graph, src, self.delta, self.threads, cancel)
            .map_err(|_| QueryError::Cancelled)?;
        let reached = r.dist.iter().filter(|&&d| d != INF).count();
        let eccentricity = r.dist.iter().filter(|&&d| d != INF).max().copied().unwrap_or(0);
        Ok(Json::obj()
            .field("src", u64::from(src))
            .field("reached", reached as u64)
            .field("eccentricity", u64::from(eccentricity))
            .field("threads", self.threads as u64))
    }

    /// The `match` answer payload: maximum-matching size on the
    /// companion bipartite graph, computed once by the parallel
    /// partitioned matcher under the caller's cancellation, then
    /// memoised. Partitioning can only shrink the augmenting work, not
    /// the answer: the size of a maximum matching is unique.
    pub fn matching(&self, cancel: &(impl Fn() -> bool + Sync)) -> Result<Json, QueryError> {
        if let Some(size) = *lock(&self.matching_size) {
            return Ok(Self::match_json(size, self.n_left));
        }
        let m = self.solve_matching(cancel)?;
        *lock(&self.matching_size) = Some(m.size);
        Ok(Self::match_json(m.size, self.n_left))
    }

    /// The companion's maximum matching, by the parallel partitioned
    /// Fig. 9 matcher over the left-only CSR.
    fn solve_matching(&self, cancel: &(impl Fn() -> bool + Sync)) -> Result<Matching, QueryError> {
        let scheme = PartitionScheme::Contiguous(self.threads.max(2));
        find_matching_partitioned_parallel_cancellable(
            &self.bipartite,
            self.n_left,
            scheme,
            self.threads,
            cancel,
        )
        .map(|(m, _)| m)
        .map_err(|_| QueryError::Cancelled)
    }

    fn match_json(size: usize, n_left: usize) -> Json {
        Json::obj().field("matching_size", size as u64).field("n_left", n_left as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachegraph_matching::{find_matching, verify};
    use cachegraph_sssp::dijkstra_binary_heap;

    fn small_cfg() -> EngineConfig {
        EngineConfig { n: 48, density: 0.08, seed: 7, ..EngineConfig::default() }
    }

    fn large_cfg() -> EngineConfig {
        EngineConfig { n: 200, density: 0.04, seed: 7, apsp_threshold: 128, ..EngineConfig::default() }
    }

    #[test]
    fn small_engine_uses_apsp_and_matches_dijkstra() {
        let cfg = small_cfg();
        let e = QueryEngine::build(&cfg);
        assert!(e.has_apsp());
        let g = generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed)
            .build_array();
        for src in [0u32, 5, 17] {
            let plain = dijkstra_binary_heap(&g, src);
            for dst in 0..cfg.n as u32 {
                let d = e.distance(src, dst, &|| false).expect("not cancelled");
                assert_eq!(d, plain.dist[dst as usize], "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn large_engine_answers_exactly_by_search() {
        let cfg = large_cfg();
        let e = QueryEngine::build(&cfg);
        assert!(!e.has_apsp());
        let g = generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed)
            .build_array();
        for src in [3u32, 0, 64, 131, 199] {
            let plain = dijkstra_binary_heap(&g, src);
            for dst in 0..cfg.n as u32 {
                let d = e.distance(src, dst, &|| false).expect("not cancelled");
                assert_eq!(d, plain.dist[dst as usize], "{src} -> {dst}");
                let bit = e.reach(src, dst, &|| false).expect("not cancelled");
                assert_eq!(
                    bit.get("reachable"),
                    Some(&Json::Bool(plain.dist[dst as usize] != INF)),
                    "{src} -> {dst}: reach bit disagrees with the oracle"
                );
            }
        }
    }

    #[test]
    fn cancellation_propagates_from_distance_queries() {
        let cfg = large_cfg();
        let e = QueryEngine::build(&cfg);
        let r = e.distance(0, 199, &|| true);
        assert_eq!(r, Err(QueryError::Cancelled));
    }

    #[test]
    fn bad_vertices_are_rejected_not_panicked() {
        let e = QueryEngine::build(&small_cfg());
        let r = e.distance(0, 9999, &|| false);
        assert_eq!(r, Err(QueryError::BadVertex { v: 9999, n: 48 }));
        assert!(r.unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn matching_is_memoised_and_agrees_with_direct_solver() {
        for cfg in [small_cfg(), large_cfg()] {
            let e = QueryEngine::build(&cfg);
            let b = generators::random_bipartite(cfg.n, cfg.density.max(0.02), cfg.seed + 1);
            let g = b.build_array();
            let direct = find_matching(&g, cfg.n / 2, Matching::empty(cfg.n));
            let first = e.matching(&|| false).expect("not cancelled");
            assert_eq!(first.get("matching_size").and_then(Json::as_u64), Some(direct.size as u64));
            // The served matching is maximum on the engine's own
            // left-only companion (a König certificate).
            let served = e.solve_matching(&|| false).expect("not cancelled");
            assert_eq!(served.size, direct.size, "n = {}", cfg.n);
            verify::assert_maximum(&e.bipartite, cfg.n / 2, &served);
            // Second call hits the memo: a cancel-everything closure cannot
            // touch it any more.
            let second = e.matching(&|| true).expect("memoised");
            assert_eq!(second.get("matching_size"), first.get("matching_size"));
        }
    }

    #[test]
    fn path_payload_shape() {
        for cfg in [small_cfg(), large_cfg()] {
            let e = QueryEngine::build(&cfg);
            let p = e.path(0, 1, &|| false).expect("ok");
            assert!(p.get("reachable").is_some());
            assert!(p.get("dist").is_some());
            assert!(p.get("estimate").is_none(), "{}", p.render());
        }
    }

    #[test]
    fn sssp_payload_matches_serial_delta_stepping() {
        let cfg = EngineConfig { threads: 4, ..small_cfg() };
        let e = QueryEngine::build(&cfg);
        let g = generators::random_directed(cfg.n, cfg.density, cfg.max_weight, cfg.seed)
            .build_array();
        let serial = cachegraph_sssp::delta_stepping(&g, 5, cfg.delta);
        let reached = serial.dist.iter().filter(|&&d| d != INF).count() as u64;
        let ecc = u64::from(serial.dist.iter().filter(|&&d| d != INF).max().copied().unwrap_or(0));
        let json = e.sssp(5, &|| false).expect("not cancelled");
        assert_eq!(json.get("reached").and_then(Json::as_u64), Some(reached));
        assert_eq!(json.get("eccentricity").and_then(Json::as_u64), Some(ecc));
        assert_eq!(e.sssp(9999, &|| false), Err(QueryError::BadVertex { v: 9999, n: cfg.n }));
    }

    #[test]
    fn reach_reads_closure_bits_and_agrees_with_distance() {
        let e = QueryEngine::build(&small_cfg());
        assert!(e.closure.is_some(), "small instance should precompute the closure");
        for (s, d) in [(0u32, 1u32), (3, 40), (7, 7), (19, 2)] {
            let bit = e.reach(s, d, &|| false).expect("ok");
            let dist = e.distance(s, d, &|| false).expect("ok");
            assert_eq!(
                bit.get("reachable"),
                Some(&Json::Bool(dist != INF)),
                "{s} -> {d}: closure bit disagrees with distance"
            );
        }
    }
}
