//! OLAP cube computation — the paper's database motivation (§1, citing
//! Sarawagi et al.): computing the data cube requires assigning group-by
//! views to the materialized parents they can be derived from, a bipartite
//! matching problem. This example pairs cube views with candidate parents
//! using the cache-friendly partitioned matching implementation.
//!
//! ```text
//! cargo run --release --example olap_matching
//! ```

use cachegraph::graph::{AdjacencyArray, EdgeListBuilder};
use cachegraph::matching::{
    find_matching, find_matching_partitioned, verify, Matching, PartitionScheme,
};
use std::time::Instant;

fn main() {
    // Cube over `dims` dimensions: views are bitmasks of grouped dims.
    // A view can be computed from a materialized parent that covers it
    // (parent mask is a strict superset, one extra dimension).
    let dims = 12usize;
    let views = 1usize << dims;
    let n = 2 * views; // left: views to compute; right: materialization slots

    let mut b = EdgeListBuilder::new(n);
    for v in 0..views {
        for d in 0..dims {
            if v & (1 << d) == 0 {
                let parent = v | (1 << d);
                // Left: view v; right: slot for materialized `parent`.
                b.add_undirected(v as u32, (views + parent) as u32, 1);
            }
        }
    }
    let g: AdjacencyArray = b.build_array();
    println!("cube: {dims} dimensions, {views} views, {} derivation edges", b.edges().len() / 2);

    // Baseline vs partitioned (working-set-reduced) matching.
    let t0 = Instant::now();
    let base = find_matching(&g, views, Matching::empty(n));
    let t_base = t0.elapsed();

    let t0 = Instant::now();
    let (opt, stats) = find_matching_partitioned(&g, views, PartitionScheme::Contiguous(16));
    let t_opt = t0.elapsed();

    assert_eq!(base.size, opt.size);
    verify::assert_maximum(&g, views, &opt);
    println!(
        "maximum view-to-parent assignment: {} of {} views (certified maximum)",
        opt.size, views
    );
    println!(
        "baseline FindMatching: {:.1} ms; partitioned: {:.1} ms ({} local pairs found in-cache)",
        t_base.as_secs_f64() * 1e3,
        t_opt.as_secs_f64() * 1e3,
        stats.local_matched,
    );

    // Unmatched views would each force a full recomputation from the base
    // cuboid; report the worst offenders by grouped-dimension count.
    let unmatched: Vec<usize> = (0..views).filter(|&v| opt.is_free(v as u32)).collect();
    println!("{} views cannot reuse a parent (e.g. the all-grouped view)", unmatched.len());
}
