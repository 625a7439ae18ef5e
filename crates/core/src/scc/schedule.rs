//! The source schedule of Alg. 1: a random permutation of the vertices
//! trimming left, consumed as one first source and then prefix-doubling
//! batches.

use pscc_graph::V;
use pscc_runtime::{pack_index, random_permutation_of};

use crate::config::SccConfig;
use crate::state::SccState;

/// Which sources an SCC run searches from, and when. The one place the
/// batch schedule is computed: every BGSS driver (`parallel_scc`, the
/// GBBS-like baseline) walks the same sources in the same batches and
/// differs only in how it searches from them.
pub struct Schedule {
    perm: Vec<V>,
    /// Positions of `perm` already handed out.
    cursor: usize,
    /// Positions the next batch takes.
    size: usize,
    beta: f64,
}

impl Schedule {
    /// The schedule over the vertices `state` has not finished — to be
    /// built once trimming is over — for `cfg`'s permutation seed and β.
    /// They come in the order `random_permutation(n, cfg.seed)` has them,
    /// but only they are keyed and sorted: on a graph that is mostly
    /// acyclic that is a fraction of `n`, and the batch slices count
    /// vertices a search can still start from.
    pub fn new(state: &SccState, cfg: &SccConfig) -> Self {
        let left = pack_index(state.n(), |v| !state.is_done(v as V));
        let perm = random_permutation_of(left.into_iter().map(|v| v as V), cfg.seed);
        Self { perm, cursor: 0, size: 1, beta: cfg.beta }
    }

    /// The source of the first-SCC phase (§4.2): the first vertex of the
    /// permutation; `None` if trimming finished every vertex. To be called
    /// once, before any [`next_batch`](Self::next_batch).
    pub fn first_source(&mut self, state: &SccState) -> Option<V> {
        debug_assert_eq!(self.size, 1, "the first source precedes every batch");
        self.next_batch(state).map(|batch| batch[0])
    }

    /// The unfinished vertices of the next slice of the permutation that
    /// has any — slices of 2, 3, 5, … positions after the first source —
    /// or `None` once the permutation is used up.
    pub fn next_batch(&mut self, state: &SccState) -> Option<Vec<V>> {
        while self.cursor < self.perm.len() {
            let end = (self.cursor + self.size).min(self.perm.len());
            let sources: Vec<V> = self.perm[self.cursor..end]
                .iter()
                .copied()
                .filter(|&v| !state.is_done(v))
                .collect();
            self.cursor = end;
            self.size = next_batch_size(self.size, self.beta);
            if !sources.is_empty() {
                return Some(sources);
            }
        }
        None
    }
}

/// Next prefix-doubling batch size: `max(s + 1, ceil(s·β))`.
fn next_batch_size(s: usize, beta: f64) -> usize {
    ((s as f64 * beta).ceil() as usize).max(s + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_runtime::random_permutation;

    #[test]
    fn batch_sizes_grow_geometrically() {
        let mut s = 1usize;
        let sizes: Vec<usize> = (0..8)
            .map(|_| {
                let cur = s;
                s = next_batch_size(s, 1.5);
                cur
            })
            .collect();
        assert_eq!(sizes, vec![1, 2, 3, 5, 8, 12, 18, 27]);
    }

    #[test]
    fn only_unfinished_vertices_are_scheduled_in_the_order_of_the_whole_permutation() {
        let cfg = SccConfig::default();
        let perm = random_permutation(40, cfg.seed);
        let state = SccState::new(40);
        // The first three of the permutation and one further on were
        // finished by trimming: they take no position in any batch.
        for &v in perm[..3].iter().chain(&perm[6..7]) {
            state.finish(v, v);
        }
        let mut schedule = Schedule::new(&state, &cfg);
        assert_eq!(schedule.first_source(&state), Some(perm[3]));
        assert_eq!(schedule.next_batch(&state), Some(perm[4..6].to_vec()));
        assert_eq!(schedule.next_batch(&state), Some(perm[7..10].to_vec()));
        // A vertex finished since is skipped inside its slice.
        state.finish(perm[11], perm[11]);
        let expected: Vec<V> = perm[10..15].iter().copied().filter(|&v| v != perm[11]).collect();
        assert_eq!(schedule.next_batch(&state), Some(expected));
    }

    #[test]
    fn a_finished_graph_has_no_sources() {
        let state = SccState::new(5);
        (0..5).for_each(|v| state.finish(v, v));
        let mut schedule = Schedule::new(&state, &SccConfig::default());
        assert_eq!(schedule.first_source(&state), None);
        assert_eq!(schedule.next_batch(&state), None);
    }
}
