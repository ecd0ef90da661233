//! Property tests for [`SuuInstance::canonical_digest`], the key of the
//! service's schedule store (cached and in-flight solves alike).
//!
//! The digest must be a pure function of the instance's *logical contents*:
//!
//! * invariant under every representation detail — the order probability
//!   entries are supplied to the builder, the order edges are supplied to
//!   the DAG constructor, a serde round-trip, cloning, lazy-index state;
//! * sensitive to every logical change — any single probability, any
//!   precedence edge, the dimensions.
//!
//! Relabelling jobs or machines produces a *different* instance (the matrix
//! moves), and the digest intentionally distinguishes it: serving machine
//! 0's schedule row to machine 1 would be wrong, so a relabel must never
//! alias a cache entry.

use proptest::prelude::*;
use suu_core::{InstanceBuilder, JobId, MachineId, SuuInstance};
use suu_graph::Dag;

/// Deterministic pseudo-random probability for cell `(i, j)`.
fn prob_for(seed: u64, i: usize, j: usize) -> f64 {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 17;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    // In (0.05, 1.0): strictly positive so every job is schedulable.
    0.05 + 0.95 * ((x % 10_000) as f64 / 10_001.0)
}

/// Deterministic forward edge list over `n` jobs (u < v, so always a DAG).
fn edges_for(seed: u64, n: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let mut x = seed ^ ((u * 131 + v) as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            x ^= x >> 33;
            if x.is_multiple_of(4) {
                edges.push((u, v));
            }
        }
    }
    edges
}

fn build_instance(n: usize, m: usize, seed: u64) -> SuuInstance {
    let mut probs = vec![0.0; n * m];
    for i in 0..m {
        for j in 0..n {
            probs[i * n + j] = prob_for(seed, i, j);
        }
    }
    let dag = Dag::from_edges(n, edges_for(seed, n)).unwrap();
    SuuInstance::new(n, m, probs, dag).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn digest_is_invariant_under_entry_insertion_order(
        n in 2usize..8,
        m in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let reference = build_instance(n, m, seed);
        // Same matrix, entries inserted one by one in *reverse* cell order.
        let mut builder = InstanceBuilder::new(n, m);
        for i in (0..m).rev() {
            for j in (0..n).rev() {
                builder = builder.probability(MachineId(i), JobId(j), prob_for(seed, i, j));
            }
        }
        let dag = Dag::from_edges(n, edges_for(seed, n)).unwrap();
        let reordered = builder.precedence(dag).build().unwrap();
        prop_assert_eq!(&reference, &reordered);
        prop_assert_eq!(reference.canonical_digest(), reordered.canonical_digest());
    }

    #[test]
    fn digest_is_invariant_under_edge_permutation(
        n in 3usize..10,
        seed in 0u64..1_000_000,
    ) {
        let edges = edges_for(seed, n);
        prop_assume!(!edges.is_empty());
        // Reversed and rotated permutations of the same edge set.
        let mut reversed = edges.clone();
        reversed.reverse();
        let mut rotated = edges.clone();
        rotated.rotate_left(edges.len() / 2);
        let digest_of = |edge_list: &[(usize, usize)]| {
            let dag = Dag::from_edges(n, edge_list.iter().copied()).unwrap();
            SuuInstance::new(n, 2, (0..2 * n).map(|k| prob_for(seed, k / n, k % n)).collect(), dag)
                .unwrap()
                .canonical_digest()
        };
        prop_assert_eq!(digest_of(&edges), digest_of(&reversed));
        prop_assert_eq!(digest_of(&edges), digest_of(&rotated));
    }

    #[test]
    fn digest_survives_serde_roundtrip_and_clone(
        n in 2usize..8,
        m in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let instance = build_instance(n, m, seed);
        let json = serde_json::to_string(&instance).unwrap();
        let back: SuuInstance = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&instance, &back);
        prop_assert_eq!(instance.canonical_digest(), back.canonical_digest());
        // Building the lazy sparse index must not perturb the digest.
        let warmed = instance.clone();
        let _ = warmed.positive_entries_sorted();
        prop_assert_eq!(instance.canonical_digest(), warmed.canonical_digest());
    }

    #[test]
    fn digest_is_sensitive_to_any_probability_change(
        n in 2usize..8,
        m in 1usize..5,
        seed in 0u64..1_000_000,
        cell in 0usize..1000,
        delta in 1usize..50,
    ) {
        let instance = build_instance(n, m, seed);
        let (i, j) = ((cell / n) % m, cell % n);
        let old = prob_for(seed, i, j);
        // A strictly different value still inside (0, 1].
        let perturbed = if old > 0.5 {
            old - delta as f64 / 1000.0
        } else {
            old + delta as f64 / 1000.0
        };
        prop_assume!(perturbed != old);
        let mut probs: Vec<f64> = (0..m * n).map(|k| prob_for(seed, k / n, k % n)).collect();
        probs[i * n + j] = perturbed;
        let dag = Dag::from_edges(n, edges_for(seed, n)).unwrap();
        let changed = SuuInstance::new(n, m, probs, dag).unwrap();
        prop_assert!(instance.canonical_digest() != changed.canonical_digest());
    }

    #[test]
    fn digest_is_sensitive_to_any_edge_change(
        n in 3usize..10,
        seed in 0u64..1_000_000,
        pick in 0usize..1000,
    ) {
        let edges = edges_for(seed, n);
        let probs: Vec<f64> = (0..2 * n).map(|k| prob_for(seed, k / n, k % n)).collect();
        let base = SuuInstance::new(
            n,
            2,
            probs.clone(),
            Dag::from_edges(n, edges.iter().copied()).unwrap(),
        )
        .unwrap();

        // Removing any one present edge flips the digest.
        if !edges.is_empty() {
            let drop_at = pick % edges.len();
            let fewer: Vec<_> = edges
                .iter()
                .enumerate()
                .filter(|(k, _)| *k != drop_at)
                .map(|(_, &e)| e)
                .collect();
            let smaller = SuuInstance::new(
                n,
                2,
                probs.clone(),
                Dag::from_edges(n, fewer).unwrap(),
            )
            .unwrap();
            prop_assert!(base.canonical_digest() != smaller.canonical_digest());
        }

        // Adding any one absent forward edge flips the digest.
        let absent: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|e| !edges.contains(e))
            .collect();
        if !absent.is_empty() {
            let mut more = edges.clone();
            more.push(absent[pick % absent.len()]);
            let bigger = SuuInstance::new(
                n,
                2,
                probs,
                Dag::from_edges(n, more).unwrap(),
            )
            .unwrap();
            prop_assert!(base.canonical_digest() != bigger.canonical_digest());
        }
    }

    #[test]
    fn digest_is_sensitive_to_dimensions(
        n in 2usize..8,
        m in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let instance = build_instance(n, m, seed);
        let taller = build_instance(n, m + 1, seed);
        let wider = build_instance(n + 1, m, seed);
        prop_assert!(instance.canonical_digest() != taller.canonical_digest());
        prop_assert!(instance.canonical_digest() != wider.canonical_digest());
    }

    #[test]
    fn digest_distinguishes_machine_relabelling(
        n in 2usize..8,
        m in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        // Swapping two machines' rows is a *different* instance (the wire
        // matrix moved); the cache must never serve one for the other, so
        // the digest must distinguish them whenever the rows differ.
        let instance = build_instance(n, m, seed);
        let mut probs: Vec<f64> = (0..m * n).map(|k| prob_for(seed, k / n, k % n)).collect();
        let row0: Vec<f64> = probs[0..n].to_vec();
        let row1: Vec<f64> = probs[n..2 * n].to_vec();
        prop_assume!(row0 != row1);
        probs[0..n].copy_from_slice(&row1);
        probs[n..2 * n].copy_from_slice(&row0);
        let swapped = SuuInstance::new(
            n,
            m,
            probs,
            Dag::from_edges(n, edges_for(seed, n)).unwrap(),
        )
        .unwrap();
        prop_assert!(instance != swapped);
        prop_assert!(instance.canonical_digest() != swapped.canonical_digest());
    }
}
