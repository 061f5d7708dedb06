//! The static injection model (§ 7): per-node destination backlogs.
//! The dynamic Bernoulli-λ model is the simulator's `run_dynamic`, and
//! the harness's `runner::Workload` picks one of the two per paper table.

use rand::Rng;

use fadr_topology::NodeId;

use crate::pattern::Pattern;

/// Build the per-node destination backlog for a static run: node `v`
/// gets `packets_per_node` packets with destinations drawn from
/// `pattern`.
pub fn static_backlog<R: Rng>(
    pattern: &Pattern,
    num_nodes: usize,
    packets_per_node: usize,
    rng: &mut R,
) -> Vec<Vec<NodeId>> {
    (0..num_nodes)
        .map(|src| {
            (0..packets_per_node)
                .map(|_| pattern.draw(src, num_nodes, rng))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn backlog_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = static_backlog(&Pattern::Random, 16, 4, &mut rng);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|q| q.len() == 4));
        for (src, q) in b.iter().enumerate() {
            for &d in q {
                assert_ne!(d, src);
                assert!(d < 16);
            }
        }
    }

    #[test]
    fn permutation_backlog_repeats_destination() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = static_backlog(&Pattern::complement(3), 8, 3, &mut rng);
        for (src, q) in b.iter().enumerate() {
            assert!(q.iter().all(|&d| d == (!src & 7)));
        }
    }
}
