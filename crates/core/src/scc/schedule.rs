//! The source schedule of Alg. 1: a random permutation of the vertices,
//! consumed as one first source and then prefix-doubling batches.

use pscc_graph::V;
use pscc_runtime::random_permutation;

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
    /// The schedule over `0..n` for `cfg`'s permutation seed and β.
    pub fn new(n: usize, cfg: &SccConfig) -> Self {
        Self { perm: random_permutation(n, cfg.seed), cursor: 0, size: 1, beta: cfg.beta }
    }

    /// The source of the first-SCC phase (§4.2): the first vertex of the
    /// permutation not finished by trimming; `None` if trimming finished
    /// them all. To be called once, before any [`next_batch`](Self::next_batch).
    pub fn first_source(&mut self, state: &SccState) -> Option<V> {
        debug_assert_eq!(self.size, 1, "the first source precedes every batch");
        self.cursor += self.perm[self.cursor..].iter().take_while(|&&v| state.is_done(v)).count();
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
    fn first_source_skips_finished_vertices_and_batches_follow_it() {
        let cfg = SccConfig::default();
        let perm = random_permutation(40, cfg.seed);
        let state = SccState::new(40);
        // The first three of the permutation and one inside the second
        // batch are finished.
        for &v in perm[..3].iter().chain(&perm[6..7]) {
            state.finish(v, v);
        }
        let mut schedule = Schedule::new(40, &cfg);
        assert_eq!(schedule.first_source(&state), Some(perm[3]));
        assert_eq!(schedule.next_batch(&state), Some(perm[4..6].to_vec()));
        assert_eq!(schedule.next_batch(&state), Some(perm[7..9].to_vec()));
        assert_eq!(schedule.next_batch(&state).map(|b| b.len()), Some(5));
    }

    #[test]
    fn a_finished_graph_has_no_sources() {
        let state = SccState::new(5);
        (0..5).for_each(|v| state.finish(v, v));
        let mut schedule = Schedule::new(5, &SccConfig::default());
        assert_eq!(schedule.first_source(&state), None);
        assert_eq!(schedule.next_batch(&state), None);
    }
}
