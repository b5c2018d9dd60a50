//! Wall-clock benches for matching — Figs. 17–19. Plain timing harness;
//! run with `cargo bench -p cachegraph-bench`.

use cachegraph_bench::workloads::matching_graph;
use cachegraph_bench::{bench_report, black_box};
use cachegraph_graph::{generators, AdjacencyArray};
use cachegraph_matching::{find_matching, find_matching_partitioned, Matching, PartitionScheme};

const SAMPLES: usize = 5;

/// Fig. 17: baseline vs partitioned across densities.
fn bench_matching_density() {
    let n = 2048;
    for &d in &[0.1f64, 0.3] {
        let b = matching_graph(n, d, 11);
        let arr = AdjacencyArray::from_edges(n, b.edges());
        let label = format!("d{}", (d * 100.0) as u32);
        bench_report("matching_density", &format!("baseline/{label}"), SAMPLES, || {
            black_box(find_matching(&arr, n / 2, Matching::empty(n)));
        });
        bench_report("matching_density", &format!("partitioned/{label}"), SAMPLES, || {
            black_box(find_matching_partitioned(&arr, n / 2, PartitionScheme::Contiguous(8)));
        });
    }
}

/// Fig. 18: best-case aligned instances.
fn bench_matching_best_case() {
    let n = 2048;
    let b = generators::matching_best_case(n, 8, 0.05, 12);
    let arr = AdjacencyArray::from_edges(n, b.edges());
    bench_report("matching_best_case", "baseline", SAMPLES, || {
        black_box(find_matching(&arr, n / 2, Matching::empty(n)));
    });
    bench_report("matching_best_case", "partitioned", SAMPLES, || {
        black_box(find_matching_partitioned(&arr, n / 2, PartitionScheme::Contiguous(8)));
    });
}

/// Fig. 19: the two-way partitioner on random graphs.
fn bench_matching_two_way() {
    let n = 2048;
    let b = matching_graph(n, 0.1, 13);
    let arr = AdjacencyArray::from_edges(n, b.edges());
    bench_report("matching_two_way", "baseline", SAMPLES, || {
        black_box(find_matching(&arr, n / 2, Matching::empty(n)));
    });
    bench_report("matching_two_way", "two_way_partitioned", SAMPLES, || {
        black_box(find_matching_partitioned(&arr, n / 2, PartitionScheme::TwoWay));
    });
}

fn main() {
    bench_matching_density();
    bench_matching_best_case();
    bench_matching_two_way();
}
