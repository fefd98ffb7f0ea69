//! Social-network scenario: a synthetic stand-in for the paper's Facebook
//! experiment (Table II). A stochastic-block-model graph is generated with the
//! same node count, edge count and density as the SNAP `facebook` network
//! (scaled down by default so the example runs in seconds; pass `--full` for
//! the full 4 039-node instance), and the QHD multilevel pipeline is compared
//! against simulated-annealing multilevel and Louvain.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example social_network [-- --full]
//! ```

use qhdcd::graph::{generators, metrics};
use qhdcd::prelude::*;

fn main() -> Result<(), CdError> {
    let full = std::env::args().any(|a| a == "--full");
    // SNAP facebook: 4 039 nodes, 88 234 edges. The scaled version keeps the
    // density and community structure but is 4× smaller.
    let (nodes, edges, communities) = if full { (4_039, 88_234, 16) } else { (1_000, 5_400, 8) };
    let pg = generators::planted_partition_with_edge_budget(nodes, communities, edges, 0.25, 42)
        .map_err(CdError::Graph)?;
    println!(
        "synthetic facebook-like network: {} nodes, {} edges, density {:.4}",
        pg.graph.num_nodes(),
        pg.graph.num_edges(),
        pg.graph.density()
    );
    let ground_truth_q = qhdcd::graph::modularity::modularity(&pg.graph, &pg.ground_truth);
    println!("planted partition modularity: {ground_truth_q:.4}");

    let methods = [
        ("qhd-multilevel", Method::QhdMultilevel),
        ("annealing-multilevel", Method::AnnealingMultilevel),
        ("louvain", Method::Louvain),
    ];
    println!(
        "{:<22} {:>10} {:>12} {:>8} {:>10}",
        "method", "modularity", "communities", "nmi", "time[s]"
    );
    for (name, method) in methods {
        let result = CommunityDetector::new(method)
            .with_communities(communities)
            .with_seed(7)
            .with_qhd_samples(4)
            .detect(&pg.graph)?;
        let nmi = metrics::normalized_mutual_information(&result.partition, &pg.ground_truth);
        println!(
            "{:<22} {:>10.4} {:>12} {:>8.3} {:>10.2}",
            name,
            result.modularity,
            result.num_communities,
            nmi,
            result.elapsed.as_secs_f64()
        );
    }
    Ok(())
}
