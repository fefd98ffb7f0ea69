//! Cross-crate property-based tests (proptest) on the core invariants of the
//! graph, QUBO and formulation layers.

use proptest::prelude::*;
use qhdcd::core::formulation::{build_qubo, FormulationConfig};
use qhdcd::graph::{metrics, modularity, GraphBuilder, Partition};
use qhdcd::qubo::{LocalFieldState, QuboBuilder, QuboModel};

/// Strategy: a random small undirected graph as (num_nodes, edge list).
fn arbitrary_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (3usize..12).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..(n * 2));
        (Just(n), edges)
    })
}

/// Strategy: a random small QUBO as (n, linear terms, quadratic terms).
fn arbitrary_qubo() -> impl Strategy<Value = (usize, Vec<f64>, Vec<(usize, usize, f64)>)> {
    (2usize..10).prop_flat_map(|n| {
        let linear = proptest::collection::vec(-3.0f64..3.0, n);
        let quadratic = proptest::collection::vec((0..n, 0..n, -3.0f64..3.0), 0..(n * 2));
        (Just(n), linear, quadratic)
    })
}

fn build_graph(n: usize, edges: &[(usize, usize)]) -> qhdcd::graph::Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge(u, v, 1.0).expect("indices are within bounds by construction");
    }
    b.build()
}

fn build_model(
    n: usize,
    linear: &[f64],
    quadratic: &[(usize, usize, f64)],
) -> qhdcd::qubo::QuboModel {
    let mut b = QuboBuilder::new(n);
    for (i, &w) in linear.iter().enumerate() {
        b.add_linear(i, w).expect("in bounds");
    }
    for &(i, j, w) in quadratic {
        b.add_quadratic(i, j, w).expect("in bounds");
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Modularity is always in [-1, 1] and the sparse and dense computations agree.
    #[test]
    fn modularity_bounds_and_agreement(
        (n, edges) in arbitrary_graph(),
        labels in proptest::collection::vec(0usize..4, 3..12),
    ) {
        let graph = build_graph(n, &edges);
        let labels: Vec<usize> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let partition = Partition::from_labels(labels).expect("non-empty");
        let q = modularity::modularity(&graph, &partition);
        let q_dense = modularity::quality_dense(&graph, &partition, Default::default());
        prop_assert!((-1.0..=1.0).contains(&q), "q={q}");
        prop_assert!((q - q_dense).abs() < 1e-9, "sparse={q} dense={q_dense}");
    }

    /// For every quality function (modularity and CPM) across a spread of
    /// resolutions, the incremental gain priced by the refinement's
    /// `NeighborScan` equals the from-scratch quality difference of actually
    /// applying the move.
    #[test]
    fn best_move_gain_matches_quality_difference(
        (n, edges) in arbitrary_graph(),
        labels in proptest::collection::vec(0usize..4, 3..12),
        node_pick in 0usize..12,
    ) {
        use qhdcd::graph::modularity::QualityFunction;
        let graph = build_graph(n, &edges);
        let labels: Vec<usize> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let node = node_pick % n;
        for quality in [
            QualityFunction::modularity(0.25),
            QualityFunction::modularity(1.0),
            QualityFunction::modularity(4.0),
            QualityFunction::cpm(0.25),
            QualityFunction::cpm(1.0),
            QualityFunction::cpm(4.0),
        ] {
            let partition = Partition::from_labels(labels.clone()).expect("non-empty");
            let mut state = modularity::ModularityState::new(&graph, &partition, quality);
            let before = modularity::quality(
                &graph,
                &Partition::from_labels(state.labels().to_vec()).expect("non-empty"),
                quality,
            );
            if let Some(gain) = state.move_to_best(&mut modularity::NeighborScan::new(), &graph, node) {
                let after = modularity::quality(
                    &graph,
                    &Partition::from_labels(state.labels().to_vec()).expect("non-empty"),
                    quality,
                );
                prop_assert!(
                    ((after - before) - gain).abs() <= 1e-12,
                    "quality={quality:?} priced={gain} realized={}",
                    after - before,
                );
                // The moved state's own aggregates report the same quality.
                prop_assert!((state.quality(&graph) - after).abs() <= 1e-12);
            }
        }
    }

    /// The handshake lemma holds for every built graph.
    #[test]
    fn degrees_sum_to_twice_edge_weight((n, edges) in arbitrary_graph()) {
        let graph = build_graph(n, &edges);
        let degree_sum: f64 = graph.degrees().iter().sum();
        prop_assert!((degree_sum - 2.0 * graph.total_edge_weight()).abs() < 1e-9);
    }

    /// Aggregating by a partition preserves total edge weight, and the induced
    /// partition's modularity is invariant under aggregation.
    #[test]
    fn aggregation_preserves_weight_and_modularity(
        (n, edges) in arbitrary_graph(),
        labels in proptest::collection::vec(0usize..3, 3..12),
    ) {
        let graph = build_graph(n, &edges);
        let labels: Vec<usize> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let partition = Partition::from_labels(labels).expect("non-empty");
        let agg = qhdcd::graph::quotient::aggregate(&graph, &partition).expect("sizes match");
        prop_assert!((agg.graph.total_edge_weight() - graph.total_edge_weight()).abs() < 1e-9);
        let q_fine = modularity::modularity(&graph, &partition);
        let q_coarse = modularity::modularity(
            &agg.graph,
            &Partition::singletons(agg.graph.num_nodes()),
        );
        prop_assert!((q_fine - q_coarse).abs() < 1e-9);
    }

    /// NMI and ARI are symmetric, bounded and maximal for identical partitions.
    #[test]
    fn nmi_ari_properties(labels_a in proptest::collection::vec(0usize..4, 4..20)) {
        let a = Partition::from_labels(labels_a.clone()).expect("non-empty");
        let shifted: Vec<usize> = labels_a.iter().map(|&l| l + 10).collect();
        let b = Partition::from_labels(shifted).expect("non-empty");
        prop_assert!((metrics::normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-9);
        prop_assert!((metrics::adjusted_rand_index(&a, &b) - 1.0).abs() < 1e-9);
        let reversed = Partition::from_labels(labels_a.iter().rev().copied().collect()).expect("non-empty");
        let nmi_ab = metrics::normalized_mutual_information(&a, &reversed);
        let nmi_ba = metrics::normalized_mutual_information(&reversed, &a);
        prop_assert!((nmi_ab - nmi_ba).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&nmi_ab));
    }

    /// Single-flip deltas always match a full re-evaluation.
    #[test]
    fn flip_delta_matches_reevaluation(
        (n, linear, quadratic) in arbitrary_qubo(),
        bits in proptest::collection::vec(any::<bool>(), 2..10),
        flip_index in 0usize..10,
    ) {
        let model = build_model(n, &linear, &quadratic);
        let x: Vec<bool> = (0..n).map(|i| bits[i % bits.len()]).collect();
        let i = flip_index % n;
        let before = model.evaluate(&x).expect("length matches");
        let mut y = x.clone();
        y[i] = !y[i];
        let after = model.evaluate(&y).expect("length matches");
        prop_assert!((after - before - model.flip_delta(&x, i)).abs() < 1e-9);
    }

    /// Encoding a valid partition into the CD QUBO and decoding it back is the
    /// identity (up to renumbering), and its energy tracks −modularity.
    #[test]
    fn formulation_round_trip(
        (n, edges) in arbitrary_graph(),
        labels in proptest::collection::vec(0usize..3, 3..12),
    ) {
        let graph = build_graph(n, &edges);
        let labels: Vec<usize> = (0..n).map(|i| labels[i % labels.len()]).collect();
        let partition = Partition::from_labels(labels).expect("non-empty").renumbered();
        let k = partition.num_communities().max(2);
        let config = FormulationConfig { balance_weight: 0.0, ..FormulationConfig::with_communities(k) };
        let qubo = build_qubo(&graph, &config).expect("valid config");
        let encoded = qubo.encode(&partition).expect("matching sizes");
        let decoded = qubo.decode(&graph, &encoded).expect("matching model");
        prop_assert_eq!(decoded, partition.clone());
        // Energy is an affine function of modularity for valid assignments:
        // E = −2m·Q + C. Verify by comparing against the all-in-one partition.
        let two_m = 2.0 * graph.total_edge_weight();
        if two_m > 0.0 {
            let all_one = Partition::all_in_one(n);
            let e_all = qubo.model().evaluate(&qubo.encode(&all_one).expect("sizes match")).expect("len");
            let q_all = modularity::modularity(&graph, &all_one);
            let e_p = qubo.model().evaluate(&encoded).expect("len");
            let q_p = modularity::modularity(&graph, &partition);
            let lhs = e_p - e_all;
            let rhs = -two_m * (q_p - q_all);
            prop_assert!((lhs - rhs).abs() < 1e-6, "lhs={lhs} rhs={rhs}");
        }
    }

    /// The pair-aware descent the QHD solver runs never increases the energy.
    #[test]
    fn pair_aware_descent_never_increases_energy(
        (n, linear, quadratic) in arbitrary_qubo(),
        bits in proptest::collection::vec(any::<bool>(), 2..10),
    ) {
        let model = build_model(n, &linear, &quadratic);
        let x: Vec<bool> = (0..n).map(|i| bits[i % bits.len()]).collect();
        let before = model.evaluate(&x).expect("length matches");
        let (improved, energy) = qhdcd::qhd::refine::pair_aware_descent(&model, x, 50);
        prop_assert!(energy <= before + 1e-9);
        prop_assert!((model.evaluate(&improved).expect("length matches") - energy).abs() < 1e-9);
    }

    /// After an arbitrary flip sequence, the incremental local-field engine
    /// agrees with the ground-truth `flip_delta` / `evaluate` on every count:
    /// cached fields, O(1) deltas, pair deltas and the running energy.
    #[test]
    fn local_field_state_tracks_ground_truth_through_flip_sequences(
        (n, linear, quadratic) in arbitrary_qubo(),
        bits in proptest::collection::vec(any::<bool>(), 2..10),
        flips in proptest::collection::vec(0usize..10, 0..40),
    ) {
        let model = build_model(n, &linear, &quadratic);
        let start: Vec<bool> = (0..n).map(|i| bits[i % bits.len()]).collect();
        let mut state = LocalFieldState::new(&model, start.clone());
        let mut mirror = start;
        for &f in &flips {
            let i = f % n;
            let predicted = state.flip_delta(i);
            prop_assert!((predicted - model.flip_delta(&mirror, i)).abs() < 1e-9);
            state.apply_flip(i);
            mirror[i] = !mirror[i];
        }
        prop_assert_eq!(state.solution(), &mirror[..]);
        let exact = model.evaluate(&mirror).expect("length matches");
        prop_assert!((state.energy() - exact).abs() < 1e-9);
        for i in 0..n {
            prop_assert!((state.field(i) - model.local_field(&mirror, i)).abs() < 1e-9);
            for j in 0..n {
                if i != j {
                    let mut y = mirror.clone();
                    y[i] = !y[i];
                    y[j] = !y[j];
                    let pair_exact = model.evaluate(&y).expect("length matches") - exact;
                    prop_assert!((state.pair_flip_delta(i, j) - pair_exact).abs() < 1e-9);
                }
            }
        }
        prop_assert!(state.consistency_error() < 1e-9);
    }

    /// The native reassign move prices exactly like a rebuild-based energy
    /// difference on random one-hot states, and applying it keeps the engine
    /// consistent under its debug-mode check.
    #[test]
    fn reassign_move_matches_rebuild_on_one_hot_states(
        (nodes, slots) in (2usize..6, 2usize..5),
        weights in proptest::collection::vec(-2.0f64..2.0, 60),
        start_slots in proptest::collection::vec(0usize..5, 6),
        moves in proptest::collection::vec((0usize..6, 0usize..5), 1..25),
    ) {
        // One-hot instance: `nodes` groups of `slots` indicators with
        // exactly-one penalties, plus couplings between groups.
        let n = nodes * slots;
        let mut b = QuboBuilder::new(n);
        for node in 0..nodes {
            let vars: Vec<usize> = (0..slots).map(|c| node * slots + c).collect();
            b.add_penalty_exactly_one(&vars, 7.5).expect("valid group");
        }
        let mut w = weights.iter().cycle();
        for i in 0..n {
            for j in (i + 1)..n {
                if i / slots != j / slots {
                    b.add_quadratic(i, j, *w.next().expect("cycled")).expect("in bounds");
                }
            }
        }
        let model = b.build();
        // Random one-hot start.
        let mut x = vec![false; n];
        for node in 0..nodes {
            x[node * slots + start_slots[node] % slots] = true;
        }
        let mut state = LocalFieldState::new(&model, x.clone());
        let mut mirror = x;
        for &(node_pick, slot_pick) in &moves {
            let node = node_pick % nodes;
            let to_slot = slot_pick % slots;
            let from_slot =
                (0..slots).find(|&c| mirror[node * slots + c]).expect("state stays one-hot");
            if to_slot == from_slot {
                continue;
            }
            let from = node * slots + from_slot;
            let to = node * slots + to_slot;
            // Delta query matches a rebuild-based energy difference.
            let before = model.evaluate(&mirror).expect("length matches");
            mirror[from] = false;
            mirror[to] = true;
            let after = model.evaluate(&mirror).expect("length matches");
            let predicted = state.reassign_delta(from, to);
            prop_assert!(
                (predicted - (after - before)).abs() < 1e-9,
                "reassign {from} -> {to}: predicted {predicted}, exact {}",
                after - before
            );
            // Applying returns the same delta and tracks the mirror.
            let applied = state.apply_reassign(from, to);
            prop_assert_eq!(applied.to_bits(), predicted.to_bits());
        }
        prop_assert_eq!(state.solution(), &mirror[..]);
        state.debug_validate();
        prop_assert!(state.consistency_error() < 1e-9);
    }

    /// The engine-based first-improvement descent reproduces the seed (naive
    /// per-candidate `flip_delta`) implementation exactly: same trajectory,
    /// same final assignment, for every random instance and start.
    #[test]
    fn refactored_descent_matches_naive_reference(
        (n, linear, quadratic) in arbitrary_qubo(),
        bits in proptest::collection::vec(any::<bool>(), 2..10),
    ) {
        fn naive_first_improvement(
            model: &QuboModel,
            mut x: Vec<bool>,
            max_sweeps: usize,
        ) -> (Vec<bool>, f64) {
            let mut energy = model.evaluate(&x).expect("length matches");
            for _ in 0..max_sweeps {
                let mut improved = false;
                for i in 0..x.len() {
                    let delta = model.flip_delta(&x, i);
                    if delta < -1e-15 {
                        x[i] = !x[i];
                        energy += delta;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
            (x, energy)
        }
        let model = build_model(n, &linear, &quadratic);
        let start: Vec<bool> = (0..n).map(|i| bits[i % bits.len()]).collect();
        let (naive_x, naive_e) = naive_first_improvement(&model, start.clone(), 50);
        let (new_x, new_e) = qhdcd::qhd::refine::first_improvement_descent(&model, start, 50);
        prop_assert_eq!(new_x, naive_x);
        prop_assert!((new_e - naive_e).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Crank–Nicolson Thomas factorization vs dense Gaussian elimination.
// ---------------------------------------------------------------------------

mod thomas {
    use proptest::prelude::*;
    use qhdcd::qhd::batch::{MeanFieldWorkspace, WaveBatch};
    use qhdcd::qhd::complex::Complex;
    use qhdcd::qhd::grid::{Grid, ThomasFactors};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Solves the dense complex system `A x = rhs` by Gaussian elimination
    /// with partial pivoting (magnitude pivot).
    #[allow(clippy::needless_range_loop)] // textbook index form, two rows of `a` per step
    fn solve_dense(mut a: Vec<Vec<Complex>>, mut rhs: Vec<Complex>) -> Vec<Complex> {
        let n = rhs.len();
        for col in 0..n {
            let pivot = (col..n)
                .max_by(|&p, &q| a[p][col].abs().partial_cmp(&a[q][col].abs()).unwrap())
                .unwrap();
            a.swap(col, pivot);
            rhs.swap(col, pivot);
            for row in (col + 1)..n {
                let factor = a[row][col] / a[col][col];
                for k in col..n {
                    let delta = factor * a[col][k];
                    a[row][k] = a[row][k] - delta;
                }
                let delta = factor * rhs[col];
                rhs[row] = rhs[row] - delta;
            }
        }
        let mut x = vec![Complex::ZERO; n];
        for row in (0..n).rev() {
            let mut acc = rhs[row];
            for col in (row + 1)..n {
                let delta = a[row][col] * x[col];
                acc = acc - delta;
            }
            x[row] = acc / a[row][row];
        }
        x
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The batched Crank–Nicolson step (shared ThomasFactors + one
        /// forward/backward sweep) must agree with a dense Gaussian
        /// elimination solve of `A ψ⁺ = B ψ` on random tridiagonal systems
        /// (random kinetic coefficient, time step, resolution and state).
        #[test]
        fn kinetic_step_batch_solves_the_tridiagonal_system(
            resolution in 4usize..40,
            coefficient in 0.05f64..3.0,
            dt in 0.001f64..0.12,
            seed in 0u64..1_000,
        ) {
            let grid = Grid::new(resolution).unwrap();
            let h2 = grid.spacing() * grid.spacing();
            let diag = coefficient / h2;
            let off = -coefficient / (2.0 * h2);
            let half = Complex::new(0.0, dt / 2.0);
            let a_diag = Complex::ONE + half.scale(diag);
            let a_off = half.scale(off);
            let b_diag = Complex::ONE - half.scale(diag);
            let b_off = -half.scale(off);

            // A small batch of random (not necessarily normalised) states.
            let num_vars = 3usize;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let states: Vec<Vec<Complex>> = (0..num_vars)
                .map(|_| {
                    (0..resolution)
                        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                        .collect()
                })
                .collect();
            let mut batch = WaveBatch::zeros(num_vars, resolution);
            for (i, psi) in states.iter().enumerate() {
                batch.set_variable(i, psi);
            }
            let mut ws = MeanFieldWorkspace::for_batch(&batch);
            let mut factors = ThomasFactors::new();
            factors.factor(&grid, coefficient, dt);
            grid.kinetic_step_batch(&mut batch, &factors, &mut ws);

            // Dense reference: x = A⁻¹ (B ψ).
            let tridiagonal = |d: Complex, o: Complex| -> Vec<Vec<Complex>> {
                let mut m = vec![vec![Complex::ZERO; resolution]; resolution];
                for k in 0..resolution {
                    m[k][k] = d;
                    if k + 1 < resolution {
                        m[k][k + 1] = o;
                        m[k + 1][k] = o;
                    }
                }
                m
            };
            let a = tridiagonal(a_diag, a_off);
            for (i, psi) in states.iter().enumerate() {
                let rhs: Vec<Complex> = (0..resolution)
                    .map(|k| {
                        let mut v = b_diag * psi[k];
                        if k > 0 {
                            v += b_off * psi[k - 1];
                        }
                        if k + 1 < resolution {
                            v += b_off * psi[k + 1];
                        }
                        v
                    })
                    .collect();
                let exact = solve_dense(a.clone(), rhs);
                for (z_thomas, z_dense) in batch.variable(i).iter().zip(&exact) {
                    prop_assert!(
                        (z_thomas.re - z_dense.re).abs() < 1e-9
                            && (z_thomas.im - z_dense.im).abs() < 1e-9,
                        "variable {}: thomas {:?} dense {:?}",
                        i,
                        z_thomas,
                        z_dense
                    );
                }
            }
        }
    }
}
