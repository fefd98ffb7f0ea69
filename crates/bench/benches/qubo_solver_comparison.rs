//! EXP-F3 / EXP-F4 timing companion: solver wall-clock on community-detection
//! QUBOs from the small and large strata of the instance corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qhdcd_bench::{cd_qubo, communities_for};
use qhdcd_graph::generators::{self, PlantedPartitionConfig};
use qhdcd_qhd::QhdSolver;
use qhdcd_qubo::{QuboModel, QuboSolver};
use qhdcd_solvers::{BranchAndBound, PortfolioConfig, PortfolioSolver, Strategy};
use std::time::Duration;

fn instance(nodes: usize, seed: u64) -> QuboModel {
    let k = communities_for(nodes * 12).clamp(2, 4);
    let pg = generators::planted_partition(&PlantedPartitionConfig {
        num_nodes: nodes,
        num_communities: k,
        p_in: 0.35,
        p_out: 0.05,
        seed,
    })
    .expect("valid generator configuration");
    cd_qubo(&pg.graph, k).expect("valid formulation").model().clone()
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("qubo_solver_comparison");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    for &nodes in &[12usize, 30, 60] {
        let model = instance(nodes, 11);
        let vars = model.num_variables();
        group.bench_with_input(BenchmarkId::new("qhd", vars), &model, |b, m| {
            let solver = QhdSolver::builder().samples(2).steps(80).seed(1).build();
            b.iter(|| solver.solve(m).expect("solve succeeds"))
        });
        group.bench_with_input(BenchmarkId::new("branch_and_bound_100ms", vars), &model, |b, m| {
            let solver = BranchAndBound::with_time_limit(Duration::from_millis(100));
            b.iter(|| solver.solve(m).expect("solve succeeds"))
        });
        // Annealing and tabu alone: one-member portfolios on one worker.
        group.bench_with_input(BenchmarkId::new("simulated_annealing", vars), &model, |b, m| {
            let solver = PortfolioSolver {
                config: PortfolioConfig {
                    restarts: 2,
                    threads: 1,
                    sweeps: 100,
                    ..PortfolioConfig::default()
                },
                strategies: vec![Strategy::Annealing {
                    initial_temperature: 2.0,
                    final_temperature: 0.01,
                }],
            };
            b.iter(|| solver.solve(m).expect("solve succeeds"))
        });
        group.bench_with_input(BenchmarkId::new("tabu", vars), &model, |b, m| {
            let solver = PortfolioSolver {
                config: PortfolioConfig {
                    restarts: 1,
                    threads: 1,
                    sweeps: 500,
                    ..PortfolioConfig::default()
                },
                strategies: vec![Strategy::Tabu { tenure: None }],
            };
            b.iter(|| solver.solve(m).expect("solve succeeds"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
