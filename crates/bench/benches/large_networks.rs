//! EXP-T2 / EXP-F6 timing companion: the multilevel pipeline on (scaled-down)
//! Table II-sized networks with QHD, simulated-annealing and Louvain back ends.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qhdcd_bench::{communities_for, matched_graph};
use qhdcd_core::coarsen::CoarsenConfig;
use qhdcd_core::louvain;
use qhdcd_core::multilevel::{detect, MultilevelConfig};
use qhdcd_qhd::QhdSolver;
use qhdcd_solvers::{PortfolioConfig, PortfolioSolver, Strategy};

fn bench_large_networks(c: &mut Criterion) {
    let mut group = c.benchmark_group("large_networks_table2");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    // 1/8-scale versions of the Table II rows; exp_table2 --scale 1 runs full size.
    for &(name, nodes, edges) in
        &[("facebook", 252usize, 5_514usize), ("tvshow", 243, 1_077), ("chameleon", 142, 1_960)]
    {
        let pg = matched_graph(nodes, edges, 55).expect("valid row");
        let k = communities_for(nodes);
        let config = MultilevelConfig {
            num_communities: k,
            coarsen: CoarsenConfig { threshold: 100, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("qhd_multilevel", name), &pg.graph, |b, g| {
            let solver = QhdSolver::builder().samples(2).steps(80).seed(5).build();
            b.iter(|| detect(g, &solver, &config).expect("pipeline succeeds"))
        });
        group.bench_with_input(
            BenchmarkId::new("annealing_multilevel", name),
            &pg.graph,
            |b, g| {
                // Annealing alone: a one-member portfolio on one worker.
                let solver = PortfolioSolver {
                    config: PortfolioConfig {
                        restarts: 4,
                        threads: 1,
                        sweeps: 100,
                        ..PortfolioConfig::default()
                    },
                    strategies: vec![Strategy::Annealing {
                        initial_temperature: 2.0,
                        final_temperature: 0.01,
                    }],
                };
                b.iter(|| detect(g, &solver, &config).expect("pipeline succeeds"))
            },
        );
        group.bench_with_input(BenchmarkId::new("louvain", name), &pg.graph, |b, g| {
            b.iter(|| {
                louvain::detect(g, &louvain::LouvainConfig::default()).expect("louvain succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_large_networks);
criterion_main!(benches);
