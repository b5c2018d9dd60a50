//! The subcommand implementations. Each takes parsed [`Args`] and writes
//! its report to the given writer, so tests can drive them directly.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cachegraph_bench::loadgen::{run_loadgen, LoadgenConfig};
use cachegraph_bench::supervisor::{
    run_supervised, ExperimentOutcome, FaultPlan, SupervisorConfig, Unit, UnitOutput,
};
use cachegraph_serve::{
    request_once, start_on as serve_start_on, EngineConfig as ServeEngineConfig,
    Op as ServeOp, Request as ServeRequest,
    Response as ServeResponse, ServerConfig,
};
use cachegraph_fw::instrumented::{
    sim_iterative_profiled, sim_recursive_morton_profiled, sim_tiled_bdl_profiled,
    sim_tiled_parallel_profiled,
};
use cachegraph_fw::{
    fw_iterative_observed, fw_recursive_observed, fw_tiled_observed, fwi_instance,
    transitive_closure_of, FwMatrix, INF,
};
use cachegraph_graph::io::{read_dimacs, write_dimacs, DimacsError};
use cachegraph_graph::{generators, EdgeListBuilder, Graph};
use cachegraph_layout::{select_block_size, BlockLayout, RowMajor, ZMorton};
use cachegraph_matching::instrumented::{
    sim_find_matching_partitioned_profiled, sim_find_matching_profiled,
};
use cachegraph_matching::{
    find_matching, find_matching_partitioned, find_matching_partitioned_parallel, Matching,
    PartitionScheme,
};
use cachegraph_obs::{
    compare_reports, Json, Registry, Report, TraceConfig, TraceRecord, DEFAULT_THRESHOLD,
};
use cachegraph_pq::DAryHeap;
use cachegraph_sim::report::{profile_from_json, profile_to_json, stats_to_json};
use cachegraph_sim::{profiles, CacheProfile, ProfilerOptions, SpanCacheStats, TimelineSample};
use cachegraph_sssp::instrumented::{
    sim_dijkstra_adj_array_observed, sim_dijkstra_adj_array_profiled,
    sim_dijkstra_adj_list_observed, sim_dijkstra_adj_list_profiled,
};
use cachegraph_sssp::{
    delta_stepping, delta_stepping_parallel, dijkstra, dijkstra_binary_heap, dijkstra_dense,
    dijkstra_lazy, dijkstra_lazy_sequence, kruskal, prim_binary_heap,
};

use crate::args::{Args, ArgsError};

/// Errors surfaced to the binary's exit path.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ArgsError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Bad flag value for which parsing succeeded but the domain is wrong.
    Invalid(String),
    /// A flag value a command rejects before it starts any work: a
    /// usage error, like [`CliError::Args`].
    Usage(String),
    /// File / format problems.
    Dimacs(DimacsError),
    /// I/O problems.
    Io(std::io::Error),
    /// A supervised run ended without enough completed experiments.
    RunFailed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            CliError::Invalid(m) | CliError::Usage(m) => write!(f, "{m}"),
            CliError::Dimacs(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::RunFailed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<DimacsError> for CliError {
    fn from(e: DimacsError) -> Self {
        CliError::Dimacs(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Dispatch a subcommand; the report goes to `out`. Only `compare`,
/// `profile`, and `trace` take positional arguments.
pub fn run(command: &str, args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    if !matches!(command, "compare" | "profile" | "trace") {
        if let Some(p) = args.positionals().first() {
            return Err(CliError::Args(ArgsError::UnexpectedPositional(p.clone())));
        }
    }
    match command {
        "gen" => cmd_gen(args, out),
        "sssp" => cmd_sssp(args, out),
        "apsp" => cmd_apsp(args, out),
        "mst" => cmd_mst(args, out),
        "match" => cmd_match(args, out),
        "closure" => cmd_closure(args, out),
        "simulate" => cmd_simulate(args, out),
        "repro" => cmd_repro(args, out),
        "compare" => cmd_compare(args, out),
        "profile" => cmd_profile(args, out),
        "trace" => cmd_trace(args, out),
        "serve" => cmd_serve(args, out),
        "query" => cmd_query(args, out),
        "loadgen" => cmd_loadgen(args, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn load(args: &Args) -> Result<EdgeListBuilder, CliError> {
    let path = args.require("input")?;
    let file = File::open(path)?;
    Ok(read_dimacs(BufReader::new(file))?)
}

/// An enabled registry when `--metrics FILE` was given, else the inert
/// disabled registry (spans and counters become no-ops).
fn metrics_registry(args: &Args) -> Registry {
    if args.get("metrics").is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    }
}

/// Write the end-of-run report to the `--metrics` path, if one was given.
fn save_metrics(
    args: &Args,
    name: &str,
    registry: &Registry,
    cache_sims: Vec<Json>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let Some(path) = args.get("metrics") else {
        return Ok(());
    };
    let mut report = Report::new(name);
    report.set_metrics(&registry.snapshot());
    for sim in cache_sims {
        report.push_cache_sim(sim);
    }
    report.save(Path::new(path))?;
    writeln!(out, "metrics report written to {path}")?;
    Ok(())
}

fn cmd_gen(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let kind = args.get_or("kind", "random");
    let seed: u64 = args.parse_or("seed", 42, "integer")?;
    let density: f64 = args.parse_or("density", 0.1, "number")?;
    if !(0.0..=1.0).contains(&density) {
        return Err(CliError::Usage(format!("--density must be in [0, 1], got {density}")));
    }
    let max_w: u32 = args.parse_or("max-weight", 100, "integer")?;
    let b = match kind {
        "random" => {
            let n: usize = args.parse_required("n", "integer")?;
            generators::random_directed(n, density, max_w, seed)
        }
        "undirected" => {
            let n: usize = args.parse_required("n", "integer")?;
            let mut b = generators::random_undirected(n, density, max_w, seed);
            generators::connect(&mut b, max_w, seed);
            b
        }
        "bipartite" => {
            let n: usize = args.parse_required("n", "integer")?;
            if !n.is_multiple_of(2) {
                return Err(CliError::Usage(format!("--n must be even for --kind bipartite, got {n}")));
            }
            generators::random_bipartite(n, density, seed)
        }
        "grid" => {
            let rows: usize = args.parse_required("rows", "integer")?;
            let cols: usize = args.parse_required("cols", "integer")?;
            generators::grid_graph(rows, cols)
        }
        other => return Err(CliError::Invalid(format!("unknown graph kind '{other}'"))),
    };
    let path = args.require("output")?;
    let file = File::create(path)?;
    write_dimacs(BufWriter::new(file), &b)?;
    writeln!(out, "wrote {} vertices, {} arcs to {path}", b.num_vertices(), b.edges().len())?;
    Ok(())
}

fn cmd_sssp(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let source: u32 = args.parse_or("source", 0, "vertex id")?;
    if source as usize >= b.num_vertices() {
        return Err(CliError::Invalid(format!("source {source} out of range")));
    }
    let rep = args.get_or("rep", "array");
    let algo = args.get_or("algo", "binary");
    let registry = metrics_registry(&args);
    let root = registry.span(&format!("cli.sssp/{rep}.{algo}"));
    let t0 = Instant::now();
    let result = match rep {
        "array" => {
            let g = b.build_array();
            match algo {
                "binary" => dijkstra_binary_heap(&g, source),
                "dary" => dijkstra::<_, DAryHeap<4>>(&g, source),
                "lazy" => dijkstra_lazy(&g, source),
                "sequence" => dijkstra_lazy_sequence(&g, source),
                "dense" => dijkstra_dense(&g, source),
                other => return Err(CliError::Invalid(format!("unknown algo '{other}'"))),
            }
        }
        "list" => dijkstra_binary_heap(&b.build_list(), source),
        "matrix" => dijkstra_binary_heap(&b.build_matrix(), source),
        other => return Err(CliError::Invalid(format!("unknown representation '{other}'"))),
    };
    let elapsed = t0.elapsed();
    drop(root);
    let reachable = result.dist.iter().filter(|&&d| d != INF).count();
    registry.gauge("sssp.reachable").set(i64::try_from(reachable).unwrap_or(i64::MAX));
    let far = result
        .dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != INF)
        .max_by_key(|&(_, &d)| d);
    writeln!(out, "source {source} ({rep}, {algo}): {reachable}/{} reachable", result.dist.len())?;
    if let Some((v, d)) = far {
        writeln!(out, "farthest reachable vertex: {v} at distance {d}")?;
    }
    writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3)?;
    save_metrics(&args, "cli-sssp", &registry, Vec::new(), out)?;
    Ok(())
}

fn cmd_apsp(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let n = b.num_vertices();
    let costs = b.build_matrix().costs().to_vec();
    let algo = args.get_or("algo", "recursive");
    let block: usize =
        args.parse_or("block", select_block_size(32 * 1024, 8, 4).estimate.min(n), "integer")?;
    let registry = metrics_registry(&args);
    let t0 = Instant::now();
    let dist = match algo {
        "iterative" => {
            let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
            fw_iterative_observed(&mut m, &registry);
            m.to_row_major()
        }
        "recursive" => {
            let mut m = FwMatrix::from_costs(ZMorton::new(n, block), &costs);
            fw_recursive_observed(&mut m, block, &registry);
            m.to_row_major()
        }
        "tiled" => {
            let mut m = FwMatrix::from_costs(BlockLayout::new(n, block), &costs);
            fw_tiled_observed(&mut m, block, &registry);
            m.to_row_major()
        }
        other => return Err(CliError::Invalid(format!("unknown algo '{other}'"))),
    };
    let elapsed = t0.elapsed();
    let finite: Vec<u32> = dist.iter().copied().filter(|&d| d != INF && d > 0).collect();
    let connected_pairs = finite.len();
    let diameter = finite.iter().max().copied().unwrap_or(0);
    let avg = if finite.is_empty() {
        0.0
    } else {
        finite.iter().map(|&d| d as f64).sum::<f64>() / finite.len() as f64
    };
    writeln!(out, "APSP ({algo}, block {block}) over {n} vertices")?;
    writeln!(out, "connected ordered pairs: {connected_pairs}")?;
    writeln!(out, "diameter: {diameter}, mean finite distance: {avg:.2}")?;
    writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3)?;
    save_metrics(&args, "cli-apsp", &registry, Vec::new(), out)?;
    Ok(())
}

fn cmd_mst(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let root: u32 = args.parse_or("root", 0, "vertex id")?;
    if root as usize >= b.num_vertices() {
        return Err(CliError::Invalid(format!("root {root} out of range")));
    }
    let t0 = Instant::now();
    let mst = prim_binary_heap(&b.build_array(), root);
    let elapsed = t0.elapsed();
    let (kw, _) = kruskal(b.num_vertices(), b.edges());
    writeln!(out, "Prim MST from {root}: weight {}, {} vertices in tree", mst.total_weight, mst.tree_size)?;
    if mst.tree_size == b.num_vertices() {
        writeln!(out, "Kruskal cross-check: {kw} ({})", if kw == mst.total_weight { "agrees" } else { "MISMATCH" })?;
    } else {
        writeln!(out, "graph is disconnected; Kruskal forest weight: {kw}")?;
    }
    writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3)?;
    Ok(())
}

fn cmd_match(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let n = b.num_vertices();
    if n % 2 != 0 {
        return Err(CliError::Invalid("matching expects an even vertex count (left = first half)".into()));
    }
    let parts: usize = args.parse_or("parts", 8, "integer")?;
    let g = b.build_array();
    let registry = metrics_registry(&args);
    let root = registry.span("cli.match");
    let span = root.child("baseline");
    let t0 = Instant::now();
    let base = find_matching(&g, n / 2, Matching::empty(n));
    let t_base = t0.elapsed();
    drop(span);
    let span = root.child("partitioned");
    let t0 = Instant::now();
    let (opt, stats) = find_matching_partitioned(&g, n / 2, PartitionScheme::Contiguous(parts));
    let t_opt = t0.elapsed();
    drop(span);
    drop(root);
    registry.gauge("matching.size").set(i64::try_from(opt.size).unwrap_or(i64::MAX));
    if base.size != opt.size {
        return Err(CliError::Invalid("internal error: implementations disagree".into()));
    }
    writeln!(out, "maximum matching: {} of {} possible pairs", opt.size, n / 2)?;
    writeln!(
        out,
        "baseline: {:.3} ms; partitioned ({} parts, {} matched locally): {:.3} ms",
        t_base.as_secs_f64() * 1e3,
        stats.parts,
        stats.local_matched,
        t_opt.as_secs_f64() * 1e3,
    )?;
    save_metrics(&args, "cli-match", &registry, Vec::new(), out)?;
    Ok(())
}

fn cmd_closure(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let g = b.build_array();
    let t0 = Instant::now();
    let c = transitive_closure_of(&g);
    let elapsed = t0.elapsed();
    let n = g.num_vertices();
    let mut reachable_pairs = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i != j && c.get(i, j) {
                reachable_pairs += 1;
            }
        }
    }
    writeln!(out, "transitive closure over {n} vertices: {reachable_pairs} reachable ordered pairs")?;
    writeln!(out, "time: {:.3} ms", elapsed.as_secs_f64() * 1e3)?;
    Ok(())
}

fn cmd_simulate(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let b = load(&args)?;
    let source: u32 = args.parse_or("source", 0, "vertex id")?;
    let machine = args.get_or("machine", "simplescalar");
    let cfg = match machine {
        "simplescalar" => profiles::simplescalar(),
        "p3" => profiles::pentium_iii(),
        "sparc" => profiles::ultrasparc_iii(),
        "alpha" => profiles::alpha_21264(),
        "mips" => profiles::mips_r12000(),
        other => return Err(CliError::Invalid(format!("unknown machine '{other}'"))),
    };
    let rep = args.get_or("rep", "array");
    let registry = metrics_registry(&args);
    let r = match rep {
        "array" => sim_dijkstra_adj_array_observed(&b.build_array(), source, cfg, &registry),
        "list" => sim_dijkstra_adj_list_observed(&b.build_list(), source, cfg, &registry),
        other => return Err(CliError::Invalid(format!("unknown representation '{other}'"))),
    };
    writeln!(out, "simulated Dijkstra ({rep}) on {machine}:")?;
    for l in &r.stats.levels {
        writeln!(
            out,
            "  L{}: {} accesses, {} misses ({:.2}%)",
            l.level + 1,
            l.accesses,
            l.misses,
            l.miss_rate * 100.0
        )?;
    }
    if let Some(tlb) = &r.stats.tlb {
        writeln!(out, "  TLB: {} misses / {} translations", tlb.misses, tlb.accesses)?;
    }
    writeln!(out, "  memory lines fetched: {}", r.stats.memory_lines_fetched)?;
    let sims = vec![stats_to_json(&format!("dijkstra.{rep}"), machine, &r.stats)];
    save_metrics(&args, "cli-simulate", &registry, sims, out)?;
    Ok(())
}

/// Accumulates one supervised repro unit's human-readable lines and
/// cache-simulation sections, then freezes them (with the unit's own
/// registry snapshot) into the checkpoint fragment the supervisor
/// journals and the final report merges.
struct UnitReport {
    text: String,
    cache_sims: Vec<Json>,
    profiles: Vec<Json>,
}

impl UnitReport {
    fn new() -> Self {
        Self { text: String::new(), cache_sims: Vec::new(), profiles: Vec::new() }
    }

    fn line(&mut self, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
    }

    fn describe(&mut self, label: &str, machine: &str, stats: &cachegraph_sim::HierarchyStats) {
        let l1 = &stats.levels[0];
        let mut line = format!("  {label} ({machine}): L1 {}/{} misses", l1.misses, l1.accesses);
        if let Some(tlb) = &stats.tlb {
            line.push_str(&format!(", TLB {}/{}", tlb.misses, tlb.accesses));
        }
        if let Some(c) = &stats.l1_classes {
            line.push_str(&format!(", three-Cs {}/{}/{}", c.compulsory, c.capacity, c.conflict));
        }
        self.line(&line);
        self.cache_sims.push(stats_to_json(label, machine, stats));
    }

    /// [`describe`](Self::describe) plus the run's span-scoped cache
    /// attribution, which lands in the report's `profiles` section.
    fn describe_profiled(
        &mut self,
        label: &str,
        machine: &str,
        stats: &cachegraph_sim::HierarchyStats,
        profile: &CacheProfile,
    ) {
        self.describe(label, machine, stats);
        self.profiles.push(profile_to_json(profile));
    }

    fn finish(mut self, registry: &Registry) -> UnitOutput {
        let snapshot = registry.snapshot();
        if !snapshot.counters.is_empty() {
            self.line("counters:");
            for (name, value) in &snapshot.counters {
                self.line(&format!("  {name}: {value}"));
            }
        }
        UnitOutput {
            data: Json::obj()
                .field("cache_sims", Json::Arr(self.cache_sims))
                .field("profiles", Json::Arr(self.profiles))
                .field("metrics", snapshot.to_json()),
            text: self.text,
        }
    }
}

/// Profiler configuration for the repro simulations. Quick runs record
/// exactly (small problems; the report asserts self-sums match the
/// aggregates). Full runs sample one access in 64 — the counters become
/// scaled estimates, flagged `exact: false` in the report — because at
/// full problem sizes exact per-access attribution is pure overhead.
/// The timeline interval is coarse enough that a full FW run keeps its
/// timeline in the hundreds of samples, fine enough that a quick run
/// still shows phases.
fn repro_options(full: bool) -> ProfilerOptions {
    if full {
        ProfilerOptions { sample_period_log2: 6, timeline_interval: 65_536 }
    } else {
        ProfilerOptions { sample_period_log2: 0, timeline_interval: 4_096 }
    }
}

/// Floyd-Warshall unit: simulated hierarchies give the miss counts (with
/// three-Cs classification on the tiled/BDL variant); observed real runs
/// of the same variants give span durations and kernel counters. The
/// section's `data.fw_kernel` names the slice-kernel instance the real
/// runs used (`"avx2"` or `"baseline"`), which sets their speed.
fn repro_unit_fw(full: bool) -> Result<UnitOutput, String> {
    let scale = if full { "full" } else { "quick" };
    let registry = Registry::new();
    let mut rep = UnitReport::new();
    let (n, bsz) = if full { (256, 32) } else { (64, 16) };
    let opts = repro_options(full);
    let costs = generators::random_directed(n, 0.3, 100, 7).build_matrix().costs().to_vec();
    rep.line(&format!("repro ({scale}): Floyd-Warshall n={n}, b={bsz}"));
    rep.line(&format!("  fw kernel instance: {}", fwi_instance()));
    let sim = sim_iterative_profiled(&costs, n, profiles::simplescalar(), opts, &registry);
    rep.describe_profiled("fw.iterative", "simplescalar", &sim.stats, &sim.profile);
    let sim = sim_tiled_bdl_profiled(&costs, n, bsz, profiles::simplescalar(), opts, &registry);
    rep.describe_profiled("fw.tiled.bdl", "simplescalar", &sim.stats, &sim.profile);
    let sim =
        sim_recursive_morton_profiled(&costs, n, bsz, profiles::simplescalar(), opts, &registry);
    rep.describe_profiled("fw.recursive.morton", "simplescalar", &sim.stats, &sim.profile);
    // Parallel FW: per-worker private hierarchies merged at join, so the
    // merged profile's self-sums still match its (merged) aggregate.
    let sim =
        sim_tiled_parallel_profiled(&costs, n, bsz, 2, profiles::simplescalar(), opts, &registry);
    rep.describe_profiled("fw.tiled.parallel", "simplescalar", &sim.stats, &sim.profile);

    let mut m = FwMatrix::from_costs(RowMajor::new(n), &costs);
    fw_iterative_observed(&mut m, &registry);
    let expect = m.to_row_major();
    let mut m = FwMatrix::from_costs(BlockLayout::new(n, bsz), &costs);
    fw_tiled_observed(&mut m, bsz, &registry);
    let tiled_ok = m.to_row_major() == expect;
    let mut m = FwMatrix::from_costs(ZMorton::new(n, bsz), &costs);
    fw_recursive_observed(&mut m, bsz, &registry);
    if !tiled_ok || m.to_row_major() != expect {
        return Err("internal error: FW variants disagree".into());
    }
    let mut out = rep.finish(&registry);
    out.data = out.data.field("fw_kernel", fwi_instance());
    Ok(out)
}

/// The slice-kernel instance a repro report's `fw` section recorded.
fn fw_kernel_of(report: &Report) -> Option<&str> {
    report
        .experiments
        .iter()
        .find(|e| e.get("id").and_then(Json::as_str) == Some("fw"))
        .and_then(|e| e.get("data"))
        .and_then(|d| d.get("fw_kernel"))
        .and_then(Json::as_str)
}

/// Dijkstra unit: both graph representations on a TLB-modelled machine.
fn repro_unit_dijkstra(full: bool) -> Result<UnitOutput, String> {
    let scale = if full { "full" } else { "quick" };
    let registry = Registry::new();
    let mut rep = UnitReport::new();
    let dn = if full { 4096 } else { 512 };
    let opts = repro_options(full);
    let g = generators::random_directed(dn, 0.02, 100, 11);
    rep.line(&format!("repro ({scale}): Dijkstra n={dn}"));
    let sim = sim_dijkstra_adj_array_profiled(
        &g.build_array(),
        0,
        profiles::pentium_iii(),
        opts,
        &registry,
    );
    if let Some(p) = &sim.profile {
        rep.describe_profiled("dijkstra.array", "p3", &sim.stats, p);
    }
    let sim =
        sim_dijkstra_adj_list_profiled(&g.build_list(), 0, profiles::pentium_iii(), opts, &registry);
    if let Some(p) = &sim.profile {
        rep.describe_profiled("dijkstra.list", "p3", &sim.stats, p);
    }
    Ok(rep.finish(&registry))
}

/// Matching unit: baseline versus the partitioned variant.
fn repro_unit_matching(full: bool) -> Result<UnitOutput, String> {
    let scale = if full { "full" } else { "quick" };
    let registry = Registry::new();
    let mut rep = UnitReport::new();
    let mn = if full { 1024 } else { 256 };
    let opts = repro_options(full);
    let g = generators::random_bipartite(mn, 0.1, 5);
    rep.line(&format!("repro ({scale}): matching n={mn}"));
    let base =
        sim_find_matching_profiled(mn, mn / 2, g.edges(), profiles::simplescalar(), opts, &registry);
    if let Some(p) = &base.profile {
        rep.describe_profiled("matching.baseline", "simplescalar", &base.stats, p);
    }
    let part = sim_find_matching_partitioned_profiled(
        mn,
        mn / 2,
        g.edges(),
        PartitionScheme::Contiguous(8),
        profiles::simplescalar(),
        opts,
        &registry,
    );
    if let Some(p) = &part.profile {
        rep.describe_profiled("matching.partitioned", "simplescalar", &part.stats, p);
    }
    if base.size != part.size {
        return Err("internal error: matching variants disagree".into());
    }
    Ok(rep.finish(&registry))
}

/// Parallel Dijkstra unit: the delta-stepping TaskGraph driver across a
/// thread sweep, every run checked bit-identical (dist AND pred) to the
/// serial bucket loop, which itself is checked against Dijkstra. Wall
/// times land in the metrics as per-thread gauges.
fn repro_unit_parallel_dijkstra(full: bool) -> Result<UnitOutput, String> {
    let scale = if full { "full" } else { "quick" };
    let registry = Registry::new();
    let mut rep = UnitReport::new();
    let dn = if full { 4096 } else { 512 };
    let delta = 16;
    let g = generators::random_directed(dn, 0.02, 100, 11).build_array();
    rep.line(&format!("repro ({scale}): parallel Dijkstra (delta-stepping) n={dn} delta={delta}"));
    let reference = dijkstra_binary_heap(&g, 0);
    let serial = delta_stepping(&g, 0, delta);
    if serial.dist != reference.dist {
        return Err("internal error: serial delta-stepping disagrees with Dijkstra".into());
    }
    for threads in [1usize, 2, 4] {
        let t = Instant::now();
        let par = delta_stepping_parallel(&g, 0, delta, threads);
        let wall = t.elapsed();
        if par.dist != serial.dist || par.pred != serial.pred {
            return Err(format!(
                "internal error: parallel delta-stepping diverged at threads={threads}"
            ));
        }
        registry
            .gauge(&format!("sssp.parallel.threads{threads}_us"))
            .set(i64::try_from(wall.as_micros()).unwrap_or(i64::MAX));
        rep.line(&format!(
            "  delta.parallel threads={threads}: {wall:?}, dist+pred identical to serial"
        ));
    }
    Ok(rep.finish(&registry))
}

/// Parallel matching unit: the partitioned TaskGraph driver across a
/// thread sweep, every run checked bit-identical (mate array AND
/// partition statistics) to the serial partitioned driver.
fn repro_unit_parallel_matching(full: bool) -> Result<UnitOutput, String> {
    let scale = if full { "full" } else { "quick" };
    let registry = Registry::new();
    let mut rep = UnitReport::new();
    let mn = if full { 1024 } else { 256 };
    let scheme = PartitionScheme::Contiguous(8);
    let g = generators::random_bipartite(mn, 0.1, 5);
    let arr = g.build_array();
    rep.line(&format!("repro ({scale}): parallel matching n={mn} parts=8"));
    let (serial, sstats) = find_matching_partitioned(&arr, mn / 2, scheme);
    for threads in [1usize, 2, 4] {
        let t = Instant::now();
        let (par, pstats) =
            find_matching_partitioned_parallel(&arr, mn / 2, g.edges(), scheme, threads);
        let wall = t.elapsed();
        if par.mate != serial.mate || pstats != sstats {
            return Err(format!(
                "internal error: parallel matching diverged at threads={threads}"
            ));
        }
        registry
            .gauge(&format!("matching.parallel.threads{threads}_us"))
            .set(i64::try_from(wall.as_micros()).unwrap_or(i64::MAX));
        rep.line(&format!(
            "  matching.parallel threads={threads}: {wall:?}, size {} identical to serial",
            par.size
        ));
    }
    registry.gauge("matching.parallel.size").set(i64::try_from(serial.size).unwrap_or(i64::MAX));
    Ok(rep.finish(&registry))
}

/// Merge the `metrics` fragments of completed units into one report
/// `metrics` section (counters/gauges/histograms union, spans
/// concatenated). Unit metric names are prefixed per subsystem, so the
/// union is collision-free.
fn merge_unit_metrics(fragments: &[&Json]) -> Json {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    let mut spans = Vec::new();
    for m in fragments {
        for (section, into) in [
            ("counters", &mut counters),
            ("gauges", &mut gauges),
            ("histograms", &mut histograms),
        ] {
            if let Some(fields) = m.get(section).and_then(Json::as_obj) {
                into.extend(fields.iter().cloned());
            }
        }
        if let Some(s) = m.get("spans").and_then(Json::as_arr) {
            spans.extend(s.iter().cloned());
        }
    }
    Json::obj()
        .field("counters", Json::Obj(counters))
        .field("gauges", Json::Obj(gauges))
        .field("histograms", Json::Obj(histograms))
        .field("spans", Json::Arr(spans))
}

/// `repro`: an instrumented pass over the paper's core algorithms at a
/// quick (default, also `--quick`) or `--full` scale, run under the
/// supervisor ([`cachegraph_bench::supervisor`]): each of the five
/// experiments (`fw`, `dijkstra`, `matching`, `parallel-dijkstra`,
/// `parallel-matching`) executes isolated, a panic
/// or `--timeout-secs` overrun degrades to a structured outcome in the
/// report, `--journal FILE` streams one checkpoint record per
/// experiment, and `--resume FILE` skips experiments already completed
/// there. With `--metrics FILE` the run writes a schema-versioned report
/// holding the simulated L1/L2/TLB statistics and three-Cs miss counts
/// per workload next to the span durations and algorithm counters from
/// observed real runs, plus one `experiments` entry per outcome. The
/// command fails (exit 1) only when *no* experiment completes, or under
/// `--strict` when any does not.
fn cmd_repro(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let full = args.switch("full");
    let name = if full { "repro-full" } else { "repro-quick" };
    let mut config = SupervisorConfig { context: name.to_string(), ..Default::default() };
    config.strict = args.switch("strict");
    config.journal = args.get("journal").map(PathBuf::from);
    config.resume = args.get("resume").map(PathBuf::from);
    if let Some(s) = args.get("timeout-secs") {
        match s.parse::<u64>() {
            Ok(secs) if secs > 0 => config.timeout = Some(Duration::from_secs(secs)),
            _ => {
                return Err(CliError::Invalid(format!(
                    "--timeout-secs: '{s}' is not a positive integer"
                )))
            }
        }
    }
    if let Some(spec) = args.get("fault-plan") {
        config.fault_plan = FaultPlan::parse(spec).map_err(CliError::Invalid)?;
    }

    let units = vec![
        Unit::new("fw", move || repro_unit_fw(full)),
        Unit::new("dijkstra", move || repro_unit_dijkstra(full)),
        Unit::new("matching", move || repro_unit_matching(full)),
        Unit::new("parallel-dijkstra", move || repro_unit_parallel_dijkstra(full)),
        Unit::new("parallel-matching", move || repro_unit_parallel_matching(full)),
    ];
    let summary = run_supervised(units, &config, out)?;

    let mut report = Report::new(name);
    let mut metric_fragments = Vec::new();
    for (id, outcome) in &summary.outcomes {
        if let ExperimentOutcome::Completed { data, .. } = outcome {
            if let Some(sims) = data.get("cache_sims").and_then(Json::as_arr) {
                for sim in sims {
                    report.push_cache_sim(sim.clone());
                }
            }
            if let Some(profiles) = data.get("profiles").and_then(Json::as_arr) {
                for profile in profiles {
                    report.push_profile(profile.clone());
                }
            }
            if let Some(metrics) = data.get("metrics") {
                metric_fragments.push(metrics);
            }
        }
        report.push_experiment(outcome.to_section(id));
    }
    report.metrics = Some(merge_unit_metrics(&metric_fragments));
    if let Some(path) = args.get("metrics") {
        report.save(Path::new(path))?;
        writeln!(out, "metrics report written to {path}")?;
    }

    writeln!(out, "\n{}", summary.render_table())?;
    if !summary.succeeded(config.strict) {
        return Err(CliError::RunFailed(format!(
            "repro run did not succeed: {}/{} experiments completed{}",
            summary.completed(),
            summary.outcomes.len(),
            if config.strict { " (strict mode)" } else { "" }
        )));
    }
    Ok(())
}

/// `compare`: diff two metrics reports, flagging every metric whose
/// relative change exceeds the threshold (default 10%).
fn cmd_compare(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [a_path, b_path] = args.positionals() else {
        return Err(CliError::Invalid("compare needs exactly two report paths".into()));
    };
    let threshold: f64 = args.parse_or("threshold", DEFAULT_THRESHOLD, "number")?;
    let load = |path: &str| {
        Report::load(Path::new(path)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let deltas = compare_reports(&a, &b, threshold);
    writeln!(out, "comparing '{}' -> '{}' (threshold {:.1}%)", a.name, b.name, threshold * 100.0)?;
    let (kernel_a, kernel_b) = (fw_kernel_of(&a), fw_kernel_of(&b));
    if kernel_a != kernel_b {
        writeln!(
            out,
            "note: FW kernel instance {} -> {}; FW wall times are not comparable",
            kernel_a.unwrap_or("unrecorded"),
            kernel_b.unwrap_or("unrecorded")
        )?;
    }
    for d in &deltas {
        writeln!(out, "{}", d.render_line())?;
    }
    let flagged = deltas.iter().filter(|d| d.flagged).count();
    writeln!(out, "{flagged} of {} compared metrics exceed the threshold", deltas.len())?;
    Ok(())
}

/// `profile`: render the `profiles` sections of a metrics report
/// (schema v3+) as indented span trees — self/total L1 misses, self
/// miss rate, and the dominant three-Cs miss class per scope — plus a
/// terminal sparkline of each run's sampled miss-rate timeline. Sampled
/// (v4, `exact: false`) profiles render through the identical code
/// path, with one header annotation marking the counters as scaled
/// estimates.
/// `--label L` restricts the output to one profile.
fn cmd_profile(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args.positionals() else {
        return Err(CliError::Invalid("profile needs exactly one report path".into()));
    };
    let report =
        Report::load(Path::new(path)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    let want = args.get("label");
    let mut shown = 0usize;
    for section in &report.profiles {
        let Some(profile) = profile_from_json(section) else {
            return Err(CliError::Invalid(format!("{path}: malformed profile section")));
        };
        if want.is_some_and(|w| w != profile.label) {
            continue;
        }
        if shown > 0 {
            writeln!(out)?;
        }
        render_profile(&profile, out)?;
        shown += 1;
    }
    if shown == 0 {
        if let Some(w) = want {
            return Err(CliError::Invalid(format!("no profile labelled '{w}' in '{path}'")));
        }
        writeln!(out, "report '{}' contains no cache profiles", report.name)?;
    }
    Ok(())
}

fn render_profile(p: &CacheProfile, out: &mut dyn Write) -> Result<(), CliError> {
    if p.exact {
        writeln!(out, "profile {} (machine {})", p.label, p.machine)?;
    } else {
        writeln!(
            out,
            "profile {} (machine {}, sampled 1/{} — counters are scaled estimates)",
            p.label, p.machine, p.sample_period
        )?;
    }
    writeln!(
        out,
        "  {:<34} {:>12} {:>12} {:>7}  dominant",
        "span", "self-miss", "total-miss", "miss%"
    )?;
    for span in &p.spans {
        writeln!(out, "{}", render_span_line(span))?;
    }
    if p.interval > 0 && !p.timeline.is_empty() {
        writeln!(
            out,
            "  timeline ({} samples of {} L1 accesses): {}",
            p.timeline.len(),
            p.interval,
            sparkline(&p.timeline)
        )?;
    }
    Ok(())
}

/// One row of the span tree: indentation mirrors the `/`-separated scope
/// path, so the flat pre-ordered span list reads as a flamegraph.
fn render_span_line(span: &SpanCacheStats) -> String {
    let depth = span.path.matches('/').count();
    let name = if depth == 0 {
        span.path.as_str()
    } else {
        span.path.rsplit('/').next().unwrap_or(&span.path)
    };
    let indent = "  ".repeat(depth);
    let self_l1 = span.self_stats.levels.first();
    let self_miss = self_l1.map_or(0, |l| l.misses);
    let total_miss = span.total_stats.levels.first().map_or(0, |l| l.misses);
    let rate = self_l1.map_or(0.0, |l| l.miss_rate * 100.0);
    let dominant = span
        .self_stats
        .l1_classes
        .and_then(|c| c.dominant())
        .map_or("-", |class| class.label());
    let width = 34usize.saturating_sub(indent.len());
    format!(
        "  {indent}{name:<width$} {self_miss:>12} {total_miss:>12} {rate:>6.2}%  {dominant}"
    )
}

/// Render the delta-encoded timeline as one line of block characters,
/// each cell's height proportional to that interval's miss rate (scaled
/// to the run's peak). Long timelines are re-bucketed to at most 64
/// cells.
fn sparkline(timeline: &[TimelineSample]) -> String {
    const BLOCKS: [char; 8] = ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}'];
    let chunk = timeline.len().div_ceil(64).max(1);
    let rates: Vec<f64> = timeline
        .chunks(chunk)
        .map(|c| {
            let acc: u64 = c.iter().map(|s| s.accesses).sum();
            let miss: u64 = c.iter().map(|s| s.l1_misses).sum();
            if acc == 0 {
                0.0
            } else {
                miss as f64 / acc as f64
            }
        })
        .collect();
    let peak = rates.iter().fold(0.0f64, |a, &b| a.max(b));
    rates
        .iter()
        .map(|&r| {
            if peak == 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((r / peak) * 7.0).round() as usize;
                BLOCKS[idx.min(7)]
            }
        })
        .collect()
}

/// `trace`: render the `traces` section of a metrics report (schema
/// v5+, written by `serve --metrics` or drained over the wire) as one
/// waterfall line per request — the bar is the request's wall time,
/// split left-to-right in segment order, each segment drawn with its
/// own block height — followed by an exact-rank p50/p90/p99 table per
/// segment. `--op OP` restricts to one operation; `--limit N` caps the
/// waterfall rows (the percentile table always covers every selected
/// trace).
fn cmd_trace(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let [path] = args.positionals() else {
        return Err(CliError::Invalid("trace needs exactly one report path".into()));
    };
    let report =
        Report::load(Path::new(path)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    let want_op = args.get("op");
    let limit: usize = args.parse_or("limit", 32, "integer")?;
    let mut traces = Vec::new();
    for section in &report.traces {
        let t = TraceRecord::from_json(section)
            .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
        if want_op.is_some_and(|w| w != t.op) {
            continue;
        }
        traces.push(t);
    }
    if traces.is_empty() {
        if let Some(w) = want_op {
            return Err(CliError::Invalid(format!("no traces for op '{w}' in '{path}'")));
        }
        writeln!(out, "report '{}' contains no traces", report.name)?;
        return Ok(());
    }
    traces.sort_by_key(|t| t.seq);

    writeln!(out, "traces from '{}' ({} records)", report.name, traces.len())?;
    let legend: Vec<String> = cachegraph_obs::SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, name)| format!("{name} {}", segment_block(i)))
        .collect();
    writeln!(out, "  segments: {}", legend.join("  "))?;
    writeln!(out, "  {:<16} {:<6} {:<18} {:>10}  waterfall", "trace", "op", "outcome", "wall")?;
    for t in traces.iter().take(limit) {
        writeln!(
            out,
            "  {:<16} {:<6} {:<18} {:>10}  {}",
            t.id_hex(),
            t.op,
            t.outcome,
            fmt_us(t.wall_ns),
            trace_waterfall(t, 40),
        )?;
    }
    if traces.len() > limit {
        writeln!(out, "  ... {} more (raise --limit)", traces.len() - limit)?;
    }

    writeln!(out, "\nsegment percentiles over {} traces (exact rank):", traces.len())?;
    writeln!(out, "  {:<10} {:>10} {:>10} {:>10}", "segment", "p50", "p90", "p99")?;
    for name in cachegraph_obs::SEGMENTS {
        let mut durations: Vec<u64> = traces.iter().map(|t| t.segment_ns(name)).collect();
        durations.sort_unstable();
        writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>10}",
            name,
            fmt_us(exact_rank(&durations, 50)),
            fmt_us(exact_rank(&durations, 90)),
            fmt_us(exact_rank(&durations, 99)),
        )?;
    }
    let mut walls: Vec<u64> = traces.iter().map(|t| t.wall_ns).collect();
    walls.sort_unstable();
    writeln!(
        out,
        "  {:<10} {:>10} {:>10} {:>10}",
        "wall",
        fmt_us(exact_rank(&walls, 50)),
        fmt_us(exact_rank(&walls, 90)),
        fmt_us(exact_rank(&walls, 99)),
    )?;
    Ok(())
}

/// The block character drawn for the i-th canonical segment: heights
/// ascend in pipeline order, so a waterfall reads left-to-right as a
/// rising staircase wherever time is actually spent.
fn segment_block(index: usize) -> char {
    const BLOCKS: [char; 6] =
        ['\u{2581}', '\u{2582}', '\u{2583}', '\u{2585}', '\u{2586}', '\u{2588}'];
    BLOCKS[index.min(BLOCKS.len() - 1)]
}

/// One trace as a `width`-cell bar: segments in first-mark order, each
/// spanning cells proportional to its share of the wall time (cumulative
/// rounding, so the cells always partition the bar exactly like the
/// segments partition the wall).
fn trace_waterfall(t: &TraceRecord, width: usize) -> String {
    if t.wall_ns == 0 {
        return String::new();
    }
    let mut bar = String::with_capacity(width * 3);
    let mut cum = 0u64;
    let mut filled = 0usize;
    for (name, dur) in &t.segments {
        cum += dur;
        let end = ((cum as f64 / t.wall_ns as f64) * width as f64).round() as usize;
        let block = cachegraph_obs::SEGMENTS
            .iter()
            .position(|s| s == name)
            .map_or('\u{2581}', segment_block);
        for _ in filled..end.min(width) {
            bar.push(block);
        }
        filled = filled.max(end.min(width));
    }
    bar
}

/// Nearest-rank percentile over an already-sorted slice.
fn exact_rank(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Nanoseconds as a human `us` figure (the request path is socket-bound;
/// microseconds is the natural unit).
fn fmt_us(ns: u64) -> String {
    format!("{:.1} us", ns as f64 / 1e3)
}

/// Resolve `--port` directly or via `--port-file` (written by `serve`).
fn resolve_port(args: &Args) -> Result<u16, CliError> {
    if let Some(p) = args.get("port") {
        return p
            .parse::<u16>()
            .map_err(|_| CliError::Invalid(format!("--port: '{p}' is not a port number")));
    }
    if let Some(path) = args.get("port-file") {
        let text = std::fs::read_to_string(path)?;
        return text
            .trim()
            .parse::<u16>()
            .map_err(|_| CliError::Invalid(format!("{path}: not a port number")));
    }
    Err(CliError::Invalid("--port or --port-file is required".into()))
}

/// `serve`: run the crash-only query daemon until a `shutdown` request
/// drains it; optionally publish the bound port and the final report.
fn cmd_serve(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let cfg = ServerConfig {
        engine: ServeEngineConfig {
            n: args.parse_or("gen-n", 256, "integer")?,
            density: args.parse_or("density", 0.05, "number")?,
            max_weight: args.parse_or("max-weight", 100, "integer")?,
            seed: args.parse_or("seed", 42, "integer")?,
            apsp_threshold: args.parse_or("apsp-threshold", 128, "integer")?,
            tile: args.parse_or("tile", 8, "integer")?,
            threads: args.parse_or("threads", 2, "integer")?,
            delta: args.parse_or("delta", 16, "integer")?,
            ..ServeEngineConfig::default()
        },
        workers: args.parse_or("workers", 4, "integer")?,
        queue_high: args.parse_or("queue-high", 64, "integer")?,
        queue_low: args.parse_or("queue-low", 32, "integer")?,
        default_deadline_ms: args.parse_or("deadline-ms", 1_000, "integer")?,
        retry_after_ms: args.parse_or("retry-after-ms", 5, "integer")?,
        read_timeout_ms: args.parse_or("read-timeout-ms", 2_000, "integer")?,
        drain_deadline_ms: args.parse_or("drain-ms", 5_000, "integer")?,
        hang_ms: args.parse_or("hang-ms", 400, "integer")?,
        cache_shards: args.parse_or("cache-shards", 8, "integer")?,
        cache_per_shard: args.parse_or("cache-per-shard", 128, "integer")?,
        trace: {
            let defaults = TraceConfig::default();
            TraceConfig {
                enabled: !args.switch("no-trace"),
                flight_len: args.parse_or("flight-len", defaults.flight_len, "integer")?,
                sample_period_log2: args.parse_or(
                    "trace-sample-log2",
                    defaults.sample_period_log2,
                    "integer",
                )?,
                seed: args.parse_or("trace-seed", defaults.seed, "integer")?,
            }
        },
    };
    let plan = match args.get("fault-plan") {
        Some(spec) => FaultPlan::parse(spec).map_err(CliError::Invalid)?,
        None => FaultPlan::none(),
    };
    let port = args.parse_or("port", 0u16, "port number")?;
    let handle = serve_start_on(cfg, plan, Registry::new(), port).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidInput {
            CliError::Usage(e.to_string())
        } else {
            CliError::Io(e)
        }
    })?;
    if let Some(path) = args.get("trace-log") {
        let sink = BufWriter::new(File::create(path)?);
        handle.attach_trace_sink(Box::new(sink));
        writeln!(out, "sampled trace log streaming to {path}")?;
    }
    writeln!(out, "serving on 127.0.0.1:{} (send op `shutdown` to drain)", handle.port())?;
    out.flush()?;
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, format!("{}\n", handle.port()))?;
    }
    // The final report comes from the server itself (not rebuilt here):
    // metrics plus the serve.state experiment plus the flushed flight
    // recorder, as one schema-current document.
    let (snapshot, report) = handle.join_report();
    if let Some(path) = args.get("metrics") {
        report.save(Path::new(path))?;
        writeln!(out, "final metrics report written to {path} ({} traces)", report.traces.len())?;
    }
    let count = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    writeln!(
        out,
        "drained: ok {} shed {} deadline_exceeded {} panics {} torn_writes {}",
        count("serve.ok"),
        count("serve.shed"),
        count("serve.deadline_exceeded"),
        count("serve.panics"),
        count("serve.torn_writes"),
    )?;
    Ok(())
}

/// `query`: one request against a running daemon; exit 0 only on `OK`.
fn cmd_query(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let port = resolve_port(&args)?;
    let op_name = args.get_or("op", "health");
    let Some(op) = ServeOp::parse(op_name) else {
        return Err(CliError::Invalid(format!(
            "--op: '{op_name}' is not path|reach|match|metrics|health|stats|trace|shutdown"
        )));
    };
    let mut req = ServeRequest::plain(op);
    if matches!(op, ServeOp::Path | ServeOp::Reach) {
        req.src = args.parse_required("src", "vertex id")?;
        req.dst = args.parse_required("dst", "vertex id")?;
    }
    if let Some(ms) = args.get("deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| CliError::Invalid(format!("--deadline-ms: '{ms}' is not an integer")))?;
        req = req.with_deadline_ms(ms);
    }
    let timeout: u64 = args.parse_or("timeout-ms", 5_000, "integer")?;
    let resp = request_once(port, &req, timeout)
        .map_err(|e| CliError::RunFailed(format!("query failed: {e}")))?;
    writeln!(out, "{}", resp.to_json().render())?;
    match resp {
        ServeResponse::Ok(_) => Ok(()),
        other => Err(CliError::RunFailed(format!("server answered {}", other.status()))),
    }
}

/// `loadgen`: drive a running daemon with seeded clients; exit 0 when
/// every request converged (possibly through retries).
fn cmd_loadgen(args: Args, out: &mut dyn Write) -> Result<(), CliError> {
    let port = resolve_port(&args)?;
    let cfg = LoadgenConfig {
        clients: args.parse_or("clients", 4, "integer")?,
        requests_per_client: args.parse_or("requests", 25, "integer")?,
        seed: args.parse_or("seed", 1, "integer")?,
        deadline_ms: args.parse_or("deadline-ms", 1_000, "integer")?,
        max_retries: args.parse_or("max-retries", 8, "integer")?,
        base_backoff_ms: args.parse_or("backoff-ms", 2, "integer")?,
        think_mean_ms: args.parse_or("think-ms", 0, "integer")?,
        timeout_ms: args.parse_or("timeout-ms", 2_000, "integer")?,
    };
    let result = run_loadgen(port, &cfg)
        .map_err(|e| CliError::RunFailed(format!("load generator failed: {e}")))?;
    writeln!(
        out,
        "loadgen: ok {} shed {} retries {} deadline_exceeded {} internal {} torn {} exhausted {}",
        result.ok,
        result.shed,
        result.retries,
        result.deadline_exceeded,
        result.internal,
        result.torn,
        result.exhausted,
    )?;
    writeln!(
        out,
        "latency p50 {} us  p90 {} us  p99 {} us (pow2-bucket upper bounds, <2x quantization)",
        result.p50_ns() / 1_000,
        result.p90_ns() / 1_000,
        result.p99_ns() / 1_000,
    )?;
    if let Some(path) = args.get("metrics") {
        let mut report = Report::new("loadgen");
        report.push_experiment(result.to_experiment_json(&cfg));
        report.save(Path::new(path))?;
        writeln!(out, "loadgen report written to {path}")?;
    }
    let total = (cfg.clients * cfg.requests_per_client) as u64;
    if result.ok < total {
        return Err(CliError::RunFailed(format!(
            "only {}/{} requests resolved ({} exhausted, {} bad, {} during shutdown)",
            result.ok, total, result.exhausted, result.bad_request, result.shutting_down
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).expect("args")
    }

    fn run_str(cmd: &str, a: &[&str]) -> Result<String, CliError> {
        let mut out = Vec::new();
        run(cmd, args(a), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("cachegraph-cli-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_then_run_every_analysis() {
        let path = tmp("pipeline.gr");
        let report = run_str(
            "gen",
            &["--kind", "random", "--n", "64", "--density", "0.15", "--seed", "3", "-o", &path],
        )
        .expect("gen");
        assert!(report.contains("wrote 64 vertices"));

        let sssp = run_str("sssp", &["-i", &path, "--source", "0"]).expect("sssp");
        assert!(sssp.contains("reachable"), "{sssp}");

        let apsp = run_str("apsp", &["-i", &path, "--algo", "tiled", "--block", "16"]).expect("apsp");
        assert!(apsp.contains("diameter"), "{apsp}");

        let closure = run_str("closure", &["-i", &path]).expect("closure");
        assert!(closure.contains("reachable ordered pairs"), "{closure}");

        let sim = run_str("simulate", &["-i", &path, "--machine", "p3"]).expect("simulate");
        assert!(sim.contains("L1:"), "{sim}");
        assert!(sim.contains("TLB:"), "{sim}");
    }

    #[test]
    fn mst_on_connected_graph() {
        let path = tmp("mst.gr");
        run_str("gen", &["--kind", "undirected", "--n", "50", "--density", "0.1", "-o", &path])
            .expect("gen");
        let mst = run_str("mst", &["-i", &path]).expect("mst");
        assert!(mst.contains("agrees"), "Kruskal must confirm Prim: {mst}");
    }

    #[test]
    fn matching_on_bipartite_graph() {
        let path = tmp("match.gr");
        run_str("gen", &["--kind", "bipartite", "--n", "64", "--density", "0.2", "-o", &path])
            .expect("gen");
        let m = run_str("match", &["-i", &path, "--parts", "4"]).expect("match");
        assert!(m.contains("maximum matching"), "{m}");
    }

    #[test]
    fn sssp_algos_agree_via_reports() {
        let path = tmp("algos.gr");
        run_str("gen", &["--kind", "random", "--n", "80", "--density", "0.1", "-o", &path])
            .expect("gen");
        let lines = |s: String| s.lines().take(2).map(String::from).collect::<Vec<_>>();
        let base = lines(run_str("sssp", &["-i", &path, "--algo", "binary"]).expect("binary"));
        for algo in ["dary", "lazy", "sequence", "dense"] {
            let got = lines(run_str("sssp", &["-i", &path, "--algo", algo]).expect(algo));
            // First line differs in the algo label; the farthest-vertex
            // line must be identical.
            assert_eq!(got[1], base[1], "algo {algo}");
        }
    }

    #[test]
    fn grid_generation() {
        let path = tmp("grid.gr");
        let r = run_str("gen", &["--kind", "grid", "--rows", "4", "--cols", "5", "-o", &path])
            .expect("gen");
        assert!(r.contains("wrote 20 vertices"), "{r}");
    }

    #[test]
    fn repro_quick_writes_schema_versioned_report() {
        let path = tmp("repro_metrics.json");
        let report = run_str("repro", &["--quick", "--metrics", &path]).expect("repro");
        assert!(report.contains("Floyd-Warshall"), "{report}");
        assert!(report.contains("fw.kernel_calls:"), "{report}");
        assert!(report.contains("sssp.relaxations:"), "{report}");

        let loaded = Report::load(Path::new(&path)).expect("parse report");
        assert_eq!(loaded.name, "repro-quick");

        // Cache sections: FW iterative/tiled/recursive plus Dijkstra
        // array/list, with TLB stats on the p3 runs and three-Cs counts
        // on the tiled/BDL run.
        let labels: Vec<&str> = loaded
            .cache_sims
            .iter()
            .filter_map(|s| s.get("label").and_then(Json::as_str))
            .collect();
        for want in [
            "fw.iterative",
            "fw.tiled.bdl",
            "fw.recursive.morton",
            "dijkstra.array",
            "dijkstra.list",
        ] {
            assert!(labels.contains(&want), "missing cache sim {want}: {labels:?}");
        }
        for sim in &loaded.cache_sims {
            let label = sim.get("label").and_then(Json::as_str).unwrap_or("");
            let levels = sim.get("levels").and_then(Json::as_arr).expect("levels");
            assert!(levels.len() >= 2, "{label} must report L1 and L2");
            if label.starts_with("dijkstra.") {
                assert!(sim.get("tlb").is_some_and(|t| *t != Json::Null), "{label} TLB");
            }
            if label == "fw.tiled.bdl" {
                let classes = sim.get("l1_classes").expect("classes");
                assert!(classes.get("compulsory").is_some(), "{label} three-Cs");
            }
        }

        // Metrics: span durations and algorithm counters survive the trip.
        let metrics = loaded.metrics.as_ref().expect("metrics");
        let spans = metrics.get("spans").and_then(Json::as_arr).expect("spans");
        let paths: Vec<&str> =
            spans.iter().filter_map(|s| s.get("path").and_then(Json::as_str)).collect();
        for want in ["fw.iterative", "fw.tiled", "fw.recursive", "dijkstra.array", "dijkstra.list"]
        {
            assert!(paths.contains(&want), "missing span {want}: {paths:?}");
        }
        let counters = metrics.get("counters").and_then(Json::as_obj).expect("counters");
        for want in ["fw.kernel_calls", "sssp.relaxations", "matching.augmenting_paths"] {
            assert!(counters.iter().any(|(k, _)| k == want), "missing counter {want}");
        }

        // The FW section names the kernel instance its real runs used.
        assert!(report.contains(&format!("fw kernel instance: {}", fwi_instance())), "{report}");
        assert_eq!(fw_kernel_of(&loaded), Some(fwi_instance()));
    }

    #[test]
    fn compare_notes_a_differing_fw_kernel() {
        let with_kernel = |kernel: &str| {
            let mut r = Report::new("fab");
            r.push_experiment(
                Json::obj()
                    .field("id", "fw")
                    .field("outcome", "completed")
                    .field("data", Json::obj().field("fw_kernel", kernel)),
            );
            r
        };
        let (a_path, b_path) = (tmp("kernel_a.json"), tmp("kernel_b.json"));
        with_kernel("avx2").save(Path::new(&a_path)).expect("save a");
        with_kernel("baseline").save(Path::new(&b_path)).expect("save b");
        let report = run_str("compare", &[&a_path, &b_path]).expect("compare");
        assert!(report.contains("note: FW kernel instance avx2 -> baseline"), "{report}");
        let same = run_str("compare", &[&a_path, &a_path]).expect("compare");
        assert!(!same.contains("note: FW kernel"), "{same}");
    }

    #[test]
    fn profile_renders_span_tree_consistent_with_aggregates() {
        let path = tmp("repro_profile.json");
        run_str("repro", &["--quick", "--metrics", &path]).expect("repro");

        let rendered = run_str("profile", &[&path]).expect("profile");
        assert!(rendered.contains("profile fw.tiled.bdl (machine "), "{rendered}");
        assert!(rendered.contains("tile["), "tile scopes must appear: {rendered}");
        assert!(rendered.contains("init"), "dijkstra init scope must appear: {rendered}");
        assert!(rendered.contains("timeline ("), "sparkline line must appear: {rendered}");
        assert!(rendered.chars().any(|c| ('\u{2581}'..='\u{2588}').contains(&c)), "{rendered}");

        // Acceptance: for every profiled run, the per-span self stats
        // sum to that run's aggregate HierarchyStats exactly.
        let report = Report::load(Path::new(&path)).expect("report");
        assert!(!report.profiles.is_empty(), "repro must emit profiles");
        for section in &report.profiles {
            let profile = profile_from_json(section).expect("profile parses");
            let sim = report
                .cache_sims
                .iter()
                .find(|s| s.get("label").and_then(Json::as_str) == Some(profile.label.as_str()))
                .unwrap_or_else(|| panic!("no cache_sims section for {}", profile.label));
            let (_, _, aggregate) =
                cachegraph_sim::report::stats_from_json(sim).expect("stats parse");
            assert_eq!(
                profile.sum_self(),
                aggregate,
                "{} attribution must sum to the aggregate exactly",
                profile.label
            );
        }

        // --label narrows the output to one profile.
        let only = run_str("profile", &[&path, "--label", "dijkstra.array"]).expect("filtered");
        assert!(only.contains("dijkstra.array"), "{only}");
        assert!(!only.contains("fw.tiled.bdl"), "{only}");
        assert!(matches!(
            run_str("profile", &[&path, "--label", "nope"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn sampled_profile_renders_with_scaling_annotation() {
        // A sampled (v4, exact: false) profile renders through the same
        // span-tree path as an exact one, with one header annotation.
        let registry = Registry::new();
        let costs = generators::random_directed(32, 0.3, 100, 7).build_matrix().costs().to_vec();
        let opts = ProfilerOptions { sample_period_log2: 4, timeline_interval: 1024 };
        let sim = sim_tiled_bdl_profiled(&costs, 32, 8, profiles::simplescalar(), opts, &registry);
        let mut report = Report::new("sampled-test");
        report.push_profile(profile_to_json(&sim.profile));
        let path = tmp("sampled_profile.json");
        report.save(Path::new(&path)).expect("save");

        let rendered = run_str("profile", &[&path]).expect("profile");
        assert!(
            rendered.contains("sampled 1/16 — counters are scaled estimates"),
            "sampling annotation must appear: {rendered}"
        );
        assert!(rendered.contains("tile["), "span tree still renders: {rendered}");
    }

    #[test]
    fn compare_handles_v3_report_against_v4() {
        // A v3 document (no sampling fields in its profile) compares
        // cleanly against a current report; the profile spans pair up.
        let span = Json::obj().field("path", "fw.tiled").field(
            "self",
            Json::obj().field(
                "levels",
                Json::Arr(vec![Json::obj()
                    .field("level", 1u64)
                    .field("accesses", 1_000u64)
                    .field("misses", 100u64)]),
            ),
        );
        let profile = Json::obj()
            .field("label", "fw.tiled")
            .field("machine", "simplescalar")
            .field("interval", 0u64)
            .field("spans", Json::Arr(vec![span]))
            .field("timeline", Json::Arr(Vec::new()));
        let v3_doc = Json::obj()
            .field("schema_version", 3u64)
            .field("tool", "cachegraph")
            .field("report", "old")
            .field("profiles", Json::Arr(vec![profile.clone()]));
        let a_path = tmp("compare_v3.json");
        std::fs::write(&a_path, v3_doc.render()).expect("write v3");

        let mut v4 = Report::new("new");
        v4.push_profile(profile);
        let b_path = tmp("compare_v4.json");
        v4.save(Path::new(&b_path)).expect("save v4");

        let report = run_str("compare", &[&a_path, &b_path]).expect("compare v3 vs v4");
        assert!(
            report.contains("profiles[fw.tiled]/fw.tiled/L1.misses"),
            "v3 profile spans must pair with v4: {report}"
        );
        assert!(report.contains("0 of"), "identical spans flag nothing: {report}");
    }

    #[test]
    fn compare_flags_large_miss_delta() {
        // Two fabricated reports: +30% L1 misses must be flagged, a +2%
        // counter drift must not.
        let fabricate = |misses: u64, relaxations: u64| {
            let mut r = Report::new("fab");
            r.metrics = Some(
                Json::obj()
                    .field("counters", Json::obj().field("sssp.relaxations", relaxations))
                    .field("gauges", Json::obj())
                    .field("histograms", Json::obj())
                    .field("spans", Json::Arr(Vec::new())),
            );
            r.push_cache_sim(
                Json::obj()
                    .field("label", "fw.tiled")
                    .field("machine", "simplescalar")
                    .field(
                        "levels",
                        Json::Arr(vec![Json::obj()
                            .field("level", 1u64)
                            .field("accesses", 10_000u64)
                            .field("hits", 10_000 - misses)
                            .field("misses", misses)
                            .field("writebacks", 0u64)
                            .field("prefetches", 0u64)
                            .field("miss_rate", misses as f64 / 10_000.0)]),
                    )
                    .field("tlb", Json::Null)
                    .field("l1_classes", Json::Null)
                    .field("memory_lines_fetched", misses),
            );
            r
        };
        let a_path = tmp("compare_a.json");
        let b_path = tmp("compare_b.json");
        fabricate(1000, 5000).save(Path::new(&a_path)).expect("save a");
        fabricate(1300, 5100).save(Path::new(&b_path)).expect("save b");

        let report = run_str("compare", &[&a_path, &b_path]).expect("compare");
        assert!(
            report.contains("FLAG cache_sims[fw.tiled]/L1.misses"),
            "miss delta must be flagged: {report}"
        );
        assert!(
            !report.contains("FLAG counters/sssp.relaxations"),
            "2% counter drift must not be flagged: {report}"
        );
        assert!(report.lines().any(|l| l.contains("1000 -> 1300")), "{report}");
    }

    #[test]
    fn metrics_flag_on_algorithm_subcommands() {
        let path = tmp("metrics_algos.gr");
        run_str("gen", &["--kind", "random", "--n", "48", "--density", "0.2", "-o", &path])
            .expect("gen");

        let m1 = tmp("metrics_apsp.json");
        run_str("apsp", &["-i", &path, "--algo", "tiled", "--block", "8", "--metrics", &m1])
            .expect("apsp");
        let r = Report::load(Path::new(&m1)).expect("apsp report");
        let metrics = r.metrics.expect("metrics");
        let counters = metrics.get("counters").and_then(Json::as_obj).expect("counters");
        assert!(counters.iter().any(|(k, _)| k == "fw.kernel_calls"), "{counters:?}");

        let m2 = tmp("metrics_simulate.json");
        run_str("simulate", &["-i", &path, "--machine", "p3", "--metrics", &m2])
            .expect("simulate");
        let r = Report::load(Path::new(&m2)).expect("simulate report");
        assert_eq!(r.cache_sims.len(), 1);
        assert_eq!(
            r.cache_sims[0].get("label").and_then(Json::as_str),
            Some("dijkstra.array")
        );
    }

    #[test]
    fn trace_renders_waterfall_and_percentile_table() {
        // Real records from a real tracer (not hand-built JSON), so this
        // test breaks if the schema and the renderer drift apart.
        let tracer = cachegraph_obs::Tracer::new(TraceConfig::default());
        let mut report = Report::new("trace-test");
        for (op, spin) in [("path", 50u64), ("path", 400), ("reach", 120)] {
            let mut tb = tracer.begin(op);
            tb.mark("admission");
            tb.mark("queue");
            std::thread::sleep(std::time::Duration::from_micros(spin));
            tb.mark("compute");
            tb.mark("serialize");
            tb.mark("write");
            report.push_trace(tb.finish("OK").expect("live builder").to_json());
        }
        let path = tmp("trace_render.json");
        report.save(Path::new(&path)).expect("save");

        let rendered = run_str("trace", &[&path]).expect("trace");
        assert!(rendered.contains("traces from 'trace-test' (3 records)"), "{rendered}");
        assert!(rendered.contains("waterfall"), "{rendered}");
        assert!(
            rendered.chars().any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
            "block-character waterfall must appear: {rendered}"
        );
        assert!(rendered.contains("segment percentiles over 3 traces"), "{rendered}");
        for segment in cachegraph_obs::SEGMENTS {
            assert!(rendered.contains(segment), "table must list {segment}: {rendered}");
        }
        assert!(rendered.contains("wall"), "{rendered}");

        // --op narrows; an op with no traces is an error.
        let only = run_str("trace", &[&path, "--op", "reach"]).expect("filtered");
        assert!(only.contains("(1 records)"), "{only}");
        assert!(matches!(
            run_str("trace", &[&path, "--op", "match"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn exact_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_rank(&sorted, 50), 50);
        assert_eq!(exact_rank(&sorted, 90), 90);
        assert_eq!(exact_rank(&sorted, 99), 99);
        assert_eq!(exact_rank(&[7], 99), 7);
        assert_eq!(exact_rank(&[], 50), 0);
    }

    #[test]
    fn waterfall_cells_partition_the_bar() {
        let t = TraceRecord {
            trace_id: 1,
            seq: 0,
            op: "path".into(),
            outcome: "OK".into(),
            start_ns: 0,
            wall_ns: 100,
            segments: vec![
                ("admission".into(), 25),
                ("queue".into(), 25),
                ("compute".into(), 40),
                ("write".into(), 10),
            ],
            tags: Vec::new(),
        };
        let bar = trace_waterfall(&t, 20);
        assert_eq!(bar.chars().count(), 20, "cells cover the full width: {bar}");
        assert_eq!(bar.chars().filter(|&c| c == segment_block(0)).count(), 5, "{bar}");
        assert_eq!(bar.chars().filter(|&c| c == segment_block(3)).count(), 8, "{bar}");
    }

    #[test]
    fn error_paths() {
        assert!(matches!(run_str("nope", &[]), Err(CliError::UnknownCommand(_))));
        assert!(matches!(run_str("sssp", &[]), Err(CliError::Args(_))));
        assert!(matches!(
            run_str("sssp", &["loose"]),
            Err(CliError::Args(ArgsError::UnexpectedPositional(_)))
        ));
        assert!(matches!(run_str("compare", &["only-one.json"]), Err(CliError::Invalid(_))));
        assert!(matches!(
            run_str("gen", &["--kind", "weird", "--n", "4", "-o", "/tmp/x.gr"]),
            Err(CliError::Invalid(_))
        ));
        // Inputs the generators cannot take are usage errors, named by
        // their flag.
        let path = tmp("err.gr");
        for (flags, flag) in [
            (&["--kind", "bipartite", "--n", "7"][..], "--n"),
            (&["--kind", "random", "--n", "8", "--density", "1.5"][..], "--density"),
            (&["--kind", "random", "--n", "8", "--density", "-0.1"][..], "--density"),
            (&["--kind", "bipartite", "--n", "8", "--density", "nan"][..], "--density"),
        ] {
            let args: Vec<&str> = flags.iter().copied().chain(["-o", path.as_str()]).collect();
            match run_str("gen", &args) {
                Err(CliError::Usage(m)) => assert!(m.contains(flag), "{flags:?}: {m}"),
                other => panic!("{flags:?}: expected a usage error, got {other:?}"),
            }
        }
        // n = 0 is an empty graph, not an error.
        run_str("gen", &["--kind", "random", "--n", "0", "-o", &path]).expect("gen n = 0");
        run_str("gen", &["--kind", "random", "--n", "8", "-o", &path]).expect("gen");
        assert!(matches!(
            run_str("sssp", &["-i", &path, "--source", "99"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            run_str("sssp", &["-i", &path, "--algo", "quantum"]),
            Err(CliError::Invalid(_))
        ));
    }
}
