//! The social graph and friend-influenced game choice.
//!
//! §IV: "The number of friends for each player follows power-law
//! distribution with skew factor of 0.5" and "when a player joins the
//! system, if none of its friends is playing, it randomly chooses a
//! game to play; otherwise, it chooses the game that has the largest
//! number of its friends playing."
//!
//! The graph is built with a configuration-model pairing: draw a
//! power-law degree for every player, put that many stubs in an urn,
//! shuffle, and pair stubs, discarding self-loops and duplicates. The
//! realized degree sequence is then *close to* the drawn one — exact
//! realization is impossible in general and irrelevant to the
//! experiments (only "friends cluster on games" matters).

use cloudfog_sim::rng::{Rng, ZipfTable};

use crate::games::{GameId, GAMES};
use crate::player::PlayerId;

/// Undirected friendship graph over `n` players.
#[derive(Clone, Debug)]
pub struct FriendGraph {
    adjacency: Vec<Vec<PlayerId>>,
}

impl FriendGraph {
    /// Build a power-law friend graph.
    ///
    /// Degrees are drawn from a bounded Zipf over `1..=max_degree`
    /// with exponent `skew` (the paper's 0.5), then wired with the
    /// configuration model.
    pub fn power_law(n: usize, max_degree: u64, skew: f64, rng: &mut Rng) -> Self {
        assert!(n >= 2, "a friend graph needs at least two players");
        let table = ZipfTable::new(max_degree.min(n as u64 - 1), skew);
        let mut stubs: Vec<PlayerId> = Vec::new();
        for p in 0..n {
            let degree = table.sample(rng);
            for _ in 0..degree {
                stubs.push(PlayerId(p as u32));
            }
        }
        // An odd stub count cannot pair fully; drop one.
        if stubs.len() % 2 == 1 {
            stubs.pop();
        }
        rng.shuffle(&mut stubs);

        let mut adjacency: Vec<Vec<PlayerId>> = vec![Vec::new(); n];
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b {
                continue; // self-loop
            }
            if adjacency[a.index()].contains(&b) {
                continue; // duplicate edge
            }
            adjacency[a.index()].push(b);
            adjacency[b.index()].push(a);
        }
        FriendGraph { adjacency }
    }

    /// An empty graph over `n` players (no friendships).
    pub fn empty(n: usize) -> Self {
        FriendGraph { adjacency: vec![Vec::new(); n] }
    }

    /// Number of players.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// True iff the graph covers no players.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// The friends of `p`.
    pub fn friends(&self, p: PlayerId) -> &[PlayerId] {
        &self.adjacency[p.index()]
    }

    /// Degree of `p`.
    pub fn degree(&self, p: PlayerId) -> usize {
        self.adjacency[p.index()].len()
    }

    /// The paper's game-choice rule: the game most of `p`'s *currently
    /// playing* friends play, or a uniformly random game when no friend
    /// is playing. `playing` maps a player to the game they are in, or
    /// `None` when offline. Ties break toward the lowest game id
    /// (deterministic).
    pub fn choose_game(
        &self,
        p: PlayerId,
        playing: impl Fn(PlayerId) -> Option<GameId>,
        rng: &mut Rng,
    ) -> GameId {
        let mut votes = [0u32; GAMES.len()];
        let mut any = false;
        for &f in self.friends(p) {
            if let Some(g) = playing(f) {
                votes[g.index()] += 1;
                any = true;
            }
        }
        if !any {
            return GameId(rng.index(GAMES.len()) as u8);
        }
        let best = votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("GAMES is non-empty");
        GameId(best as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, seed: u64) -> FriendGraph {
        let mut rng = Rng::new(seed);
        FriendGraph::power_law(n, 100, 0.5, &mut rng)
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = graph(500, 1);
        for p in 0..500 {
            let pid = PlayerId(p as u32);
            for &f in g.friends(pid) {
                assert!(g.friends(f).contains(&pid), "asymmetric edge {pid:?}-{f:?}");
            }
        }
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let g = graph(500, 2);
        for p in 0..500 {
            let pid = PlayerId(p as u32);
            let friends = g.friends(pid);
            assert!(!friends.contains(&pid), "self-loop at {pid:?}");
            let mut sorted: Vec<_> = friends.to_vec();
            sorted.sort_unstable();
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate edges at {pid:?}");
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = graph(2000, 3);
        let mut degrees: Vec<usize> = (0..2000).map(|p| g.degree(PlayerId(p as u32))).collect();
        degrees.sort_unstable();
        let median = degrees[1000];
        let max = *degrees.last().unwrap();
        assert!(max >= median * 3, "no heavy tail: median {median}, max {max}");
        assert!(degrees.iter().sum::<usize>() / 2 > 1000, "too few edges");
    }

    #[test]
    fn deterministic_per_seed() {
        let g1 = graph(200, 7);
        let g2 = graph(200, 7);
        for p in 0..200 {
            assert_eq!(g1.friends(PlayerId(p)), g2.friends(PlayerId(p)));
        }
    }

    #[test]
    fn game_choice_follows_friend_majority() {
        let mut rng = Rng::new(4);
        let mut g = FriendGraph::empty(5);
        // Wire player 0 to friends 1..4 manually.
        for f in 1..5u32 {
            g.adjacency[0].push(PlayerId(f));
            g.adjacency[f as usize].push(PlayerId(0));
        }
        // Friends 1,2,3 play game 2; friend 4 plays game 0.
        let playing = |p: PlayerId| match p.0 {
            1..=3 => Some(GameId(2)),
            4 => Some(GameId(0)),
            _ => None,
        };
        for _ in 0..10 {
            assert_eq!(g.choose_game(PlayerId(0), playing, &mut rng), GameId(2));
        }
    }

    #[test]
    fn game_choice_random_when_friends_offline() {
        let mut rng = Rng::new(5);
        let g = FriendGraph::empty(10);
        let mut seen = [false; GAMES.len()];
        for _ in 0..200 {
            let choice = g.choose_game(PlayerId(0), |_| None, &mut rng);
            seen[choice.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "random choice should cover all games");
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        let mut rng = Rng::new(6);
        let mut g = FriendGraph::empty(3);
        g.adjacency[0] = vec![PlayerId(1), PlayerId(2)];
        g.adjacency[1] = vec![PlayerId(0)];
        g.adjacency[2] = vec![PlayerId(0)];
        // One friend on game 1, one on game 3: tie → lowest id wins.
        let playing = |p: PlayerId| match p.0 {
            1 => Some(GameId(3)),
            2 => Some(GameId(1)),
            _ => None,
        };
        assert_eq!(g.choose_game(PlayerId(0), playing, &mut rng), GameId(1));
    }
}
