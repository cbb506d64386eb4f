//! List-scheduler scaling: the heap-driven ETF and BL-EST over a size
//! ladder of layered DAGs, n = 10³, 10⁴, 10⁵ (the paper's datasets top
//! out at 10⁵ nodes). Time should grow like `n log n`: a tenfold step in
//! `n` costs a little over tenfold, where the Θ(n²) scan loops these
//! replaced paid a hundredfold.
//!
//! Before anything is timed the n = 10³ schedules are asserted equal,
//! `proc` and `start`, to those scan loops (kept as the test-only
//! reference in `crates/baselines/tests/reference/`) — a wrong pick must
//! fail the bench run, not be timed. CI runs this target in `--test` mode,
//! which makes the 10⁵ row a release-build smoke of the scaling itself.

#[path = "../../baselines/tests/reference/mod.rs"]
mod reference;

use bsp_baselines::blest::blest_schedule_with;
use bsp_baselines::etf::etf_schedule_with;
use bsp_baselines::list::CommModel;
use bsp_bench::machine;
use bsp_dag::random::{random_layered_dag, LayeredConfig};
use bsp_dag::Dag;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// `layers × 50` nodes, about 2.5 predecessors each.
fn layered(layers: usize) -> Dag {
    random_layered_dag(
        15,
        LayeredConfig {
            layers,
            width: 50,
            edge_prob: 0.05,
            ..Default::default()
        },
    )
}

fn bench_list_scaling(c: &mut Criterion) {
    let m = machine(8, 3);
    let mut g = c.benchmark_group("baselines/list_scaling");
    g.sample_size(10);
    for (size, layers) in [("n1e3", 20), ("n1e4", 200), ("n1e5", 2000)] {
        let dag = layered(layers);
        if size == "n1e3" {
            for model in [CommModel::MeanLambda, CommModel::PerPairLambda] {
                assert_eq!(
                    etf_schedule_with(&dag, &m, model),
                    reference::etf_reference(&dag, &m, model),
                    "etf diverged from the scan loop ({model:?})"
                );
                assert_eq!(
                    blest_schedule_with(&dag, &m, model),
                    reference::blest_reference(&dag, &m, model),
                    "bl-est diverged from the scan loop ({model:?})"
                );
            }
        }
        g.bench_function(BenchmarkId::new("etf", size), |b| {
            b.iter(|| black_box(etf_schedule_with(&dag, &m, CommModel::MeanLambda)))
        });
        g.bench_function(BenchmarkId::new("bl-est", size), |b| {
            b.iter(|| black_box(blest_schedule_with(&dag, &m, CommModel::MeanLambda)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_list_scaling);
criterion_main!(benches);
