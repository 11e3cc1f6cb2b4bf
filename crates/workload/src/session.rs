//! Deterministic session lifecycle state machine.
//!
//! A player session is no longer an atomic "joined ⇒ streaming until
//! leave" fact: under a fallible control plane a session *connects*
//! (possibly retrying through a regional outage), *plays*, *drains*
//! (in-flight segments finish while no new input is generated), and
//! only then is *gone*. The machine below is the single source of
//! truth for which moves are legal:
//!
//! ```text
//! NotConnected ──join──▶ Connecting ──assigned──▶ Connected
//!        ▲                                            │
//!        │                                         handshake
//!        │                                            ▼
//!       Gone ◀──drained── Draining ◀──leave──      InGame
//!        │                                            ▲
//!        └────────────rejoin (to Connecting)──────────┘
//! ```
//!
//! The simulation drives transitions from scheduled events; the
//! harness checks conservation over the resulting counters (every
//! started session is either still in flight or completed — see the
//! `conservation.join_leave` stock invariant). Transitions are pure
//! data: no clocks, no RNG, so the machine is trivially deterministic.

/// Lifecycle phase of one player session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SessionState {
    /// No session: the player has never joined or has fully left.
    #[default]
    NotConnected,
    /// Join accepted; the control plane is (re)trying to place the
    /// player on a streaming source.
    Connecting,
    /// Placed on a source; the streaming handshake is in flight.
    Connected,
    /// Actively playing: input events generate video segments.
    InGame,
    /// Leave received: no new input, in-flight segments still deliver.
    Draining,
    /// Session fully torn down; the slot may rejoin later.
    Gone,
}

/// A transition the machine forbids, reported with both endpoints so
/// the violation message is self-describing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State the session was in.
    pub from: SessionState,
    /// State the caller asked for.
    pub to: SessionState,
}

impl std::fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "illegal session transition {:?} -> {:?}", self.from, self.to)
    }
}

impl SessionState {
    /// Every state, in lifecycle order.
    pub const ALL: [SessionState; 6] = [
        SessionState::NotConnected,
        SessionState::Connecting,
        SessionState::Connected,
        SessionState::InGame,
        SessionState::Draining,
        SessionState::Gone,
    ];

    /// True iff `self -> next` is a legal lifecycle move. `Gone ->
    /// Connecting` models a rejoin after the rest gap; everything else
    /// follows the forward chain.
    pub fn can_advance(self, next: SessionState) -> bool {
        use SessionState::*;
        matches!(
            (self, next),
            (NotConnected, Connecting)
                | (Gone, Connecting)
                | (Connecting, Connected)
                | (Connected, InGame)
                | (InGame, Draining)
                | (Draining, Gone)
        )
    }

    /// Move to `next`, rejecting illegal transitions without mutating.
    pub fn advance(&mut self, next: SessionState) -> Result<(), IllegalTransition> {
        if self.can_advance(next) {
            *self = next;
            Ok(())
        } else {
            Err(IllegalTransition { from: *self, to: next })
        }
    }

    /// True iff a *new* join may start from this state.
    pub fn may_join(self) -> bool {
        matches!(self, SessionState::NotConnected | SessionState::Gone)
    }

    /// Stable label for telemetry keys and reports.
    pub fn label(self) -> &'static str {
        match self {
            SessionState::NotConnected => "not_connected",
            SessionState::Connecting => "connecting",
            SessionState::Connected => "connected",
            SessionState::InGame => "in_game",
            SessionState::Draining => "draining",
            SessionState::Gone => "gone",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use SessionState::*;

    #[test]
    fn happy_path_walks_the_full_chain() {
        let mut s = SessionState::default();
        assert_eq!(s, NotConnected);
        for next in [Connecting, Connected, InGame, Draining, Gone] {
            s.advance(next).unwrap();
            assert_eq!(s, next);
        }
        // Rejoin restarts the chain from Gone.
        s.advance(Connecting).unwrap();
        assert_eq!(s, Connecting);
    }

    #[test]
    fn illegal_moves_are_rejected_without_mutation() {
        let mut s = InGame;
        let err = s.advance(Connected).unwrap_err();
        assert_eq!(err, IllegalTransition { from: InGame, to: Connected });
        assert_eq!(s, InGame, "failed advance must not mutate");
        assert!(err.to_string().contains("InGame"));
    }

    #[test]
    fn exactly_six_transitions_are_legal() {
        let mut legal = 0;
        for &a in &SessionState::ALL {
            for &b in &SessionState::ALL {
                if a.can_advance(b) {
                    legal += 1;
                    assert_ne!(a, b, "self-loops are never legal");
                }
            }
        }
        assert_eq!(legal, 6);
    }

    #[test]
    fn may_join_only_from_terminal_states() {
        assert!(NotConnected.may_join());
        assert!(Gone.may_join());
        for s in [Connecting, Connected, InGame, Draining] {
            assert!(!s.may_join(), "{s:?} must not accept a second join");
        }
    }
}
