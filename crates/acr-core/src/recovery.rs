//! The three recovery schemes as explicit plans (§2.3, Figs. 4–5).
//!
//! When a node crashes, the runtime promotes a spare in its place and asks
//! the [`RecoveryPlanner`] what to do next; the plan is a list of
//! [`RecoveryAction`]s the runtime executes in order, and nothing else. The
//! decision is a pure function of the [`HardError`] facts, so the §2.3
//! trade-offs (rework vs. SDC window vs. network traffic) are testable here.
//! The application's initial state, epoch 0, is a line like any verified
//! checkpoint: a crash before the first verified round recovers by its
//! scheme, and the whole job restarts only when no replica holds a line.

/// The resilience level chosen for a job (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Roll the crashed replica back to the previous verified checkpoint.
    /// 100 % SDC protection; one inter-replica message on restart; maximal
    /// rework.
    Strong,
    /// Force an immediate checkpoint in the healthy replica and restart the
    /// crashed replica from it. Near-zero rework; on average half a period
    /// of SDC exposure per hard failure.
    Medium,
    /// Let the healthy replica run to its next periodic checkpoint and
    /// recover the crashed replica then. Zero forward-path overhead; a full
    /// period of SDC exposure.
    Weak,
}

impl Scheme {
    /// All schemes, strongest first.
    pub const ALL: [Scheme; 3] = [Scheme::Strong, Scheme::Medium, Scheme::Weak];

    /// Lowercase display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Strong => "strong",
            Scheme::Medium => "medium",
            Scheme::Weak => "weak",
        }
    }

    /// The §2.3 SDC-exposure classification of a recovery under this
    /// scheme, used to tag `recovery_start` events: `strong` restarts from
    /// a *verified* checkpoint (zero exposure), `medium` restarts from a
    /// forced — hence *unverified* — checkpoint with on average half a
    /// period of exposure, `weak` runs unverified for a full period.
    pub fn sdc_exposure_class(self) -> &'static str {
        match self {
            Scheme::Strong => "verified",
            Scheme::Medium => "unverified-half-period",
            Scheme::Weak => "unverified-full-period",
        }
    }

    /// Mean duration (seconds) left unprotected against SDC per hard
    /// failure, given the checkpoint period `tau` and cost `delta` (§5).
    pub fn unprotected_window(self, tau: f64, delta: f64) -> f64 {
        match self {
            Scheme::Strong => 0.0,
            Scheme::Medium => (tau + delta) / 2.0,
            Scheme::Weak => tau + delta,
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One step of a recovery plan, executed by the runtime after it has
/// promoted a spare in the crashed node's place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Send the sender's **verified** checkpoint to one node (strong
    /// restart: the only inter-replica message).
    SendVerifiedCheckpoint {
        /// Sender (the crashed node's buddy, in the healthy replica).
        from: usize,
        /// Receiver (the promoted spare).
        to: usize,
    },
    /// Run an immediate checkpoint consensus round in the healthy replica
    /// (medium resilience; also the hard-error-only mode of Fig. 5a).
    ForceCheckpoint {
        /// The healthy replica index.
        replica: u8,
    },
    /// Every node of `from_replica` ships its latest checkpoint to its
    /// buddy — the full-bandwidth recovery transfer whose congestion the
    /// topology mappings attack (Fig. 10).
    ShipCheckpointsToBuddies {
        /// The healthy replica.
        from_replica: u8,
    },
    /// Every surviving node of the crashed replica reloads its own local
    /// verified checkpoint, or the initial state when none exists yet
    /// (strong resilience).
    RollbackReplica {
        /// The crashed replica.
        replica: u8,
    },
    /// Defer recovery to the next periodic checkpoint (weak resilience):
    /// the runtime keeps the crashed replica parked until then, and then
    /// forces a checkpoint in the healthy replica and ships it.
    WaitForNextPeriodicCheckpoint,
    /// Restart the whole job from the newest line both replicas share —
    /// no replica holds a complete state any more.
    RestartJob,
}

/// A recovery plan plus its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Steps to execute in order.
    pub actions: Vec<RecoveryAction>,
    /// Inter-replica checkpoint messages this plan will generate (1 for
    /// strong from a verified checkpoint, 0 from the initial state or for a
    /// restart, `ranks` for medium/weak) — the Fig. 10 network-load factor.
    pub inter_replica_messages: usize,
    /// Whether the crashed replica re-executes work it had already done.
    pub rework: bool,
}

/// The facts that decide the recovery from one fail-stop crash, read
/// after the spare has been promoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardError {
    /// The crashed node's replica.
    pub replica: u8,
    /// The crashed node's buddy, in the healthy replica.
    pub buddy: usize,
    /// The spare now hosting the crashed node's identity.
    pub spare: usize,
    /// Every node holds a checkpoint newer than the initial state (a
    /// verified round, or an earlier recovery ship). Without one the
    /// initial state, epoch 0, is the line.
    pub line: bool,
    /// An earlier failure collapsed a recovery: a restart is already due.
    pub collapsed: bool,
    /// The replica parked waiting for a weak ship, if any.
    pub parked: Option<u8>,
}

/// Plans recovery for a configured scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPlanner {
    scheme: Scheme,
    /// Ranks per replica (message accounting).
    ranks: usize,
}

impl RecoveryPlanner {
    /// Planner for `scheme` over replicas of `ranks` nodes.
    pub fn new(scheme: Scheme, ranks: usize) -> Self {
        assert!(ranks > 0);
        Self { scheme, ranks }
    }

    /// Plan the response to a fail-stop crash. The job restarts only when
    /// a recovery collapsed, or under weak when the other replica is
    /// already parked; otherwise the scheme's own recovery runs, from the
    /// initial state when no newer line exists.
    pub fn plan_hard_error(&self, e: HardError) -> RecoveryPlan {
        let healthy = 1 - e.replica;
        let double = self.scheme == Scheme::Weak && e.parked.is_some_and(|p| p != e.replica);
        if e.collapsed || double {
            return RecoveryPlan {
                actions: vec![RecoveryAction::RestartJob],
                inter_replica_messages: 0,
                rework: true,
            };
        }
        match self.scheme {
            Scheme::Strong => {
                // With no line the spare already holds epoch 0.
                let mut actions = Vec::with_capacity(2);
                if e.line {
                    actions.push(RecoveryAction::SendVerifiedCheckpoint {
                        from: e.buddy,
                        to: e.spare,
                    });
                }
                actions.push(RecoveryAction::RollbackReplica { replica: e.replica });
                RecoveryPlan {
                    inter_replica_messages: actions.len() - 1,
                    actions,
                    rework: true,
                }
            }
            Scheme::Medium => RecoveryPlan {
                actions: vec![
                    RecoveryAction::ForceCheckpoint { replica: healthy },
                    RecoveryAction::ShipCheckpointsToBuddies {
                        from_replica: healthy,
                    },
                ],
                inter_replica_messages: self.ranks,
                rework: false,
            },
            Scheme::Weak => RecoveryPlan {
                actions: vec![RecoveryAction::WaitForNextPeriodicCheckpoint],
                inter_replica_messages: self.ranks,
                rework: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What §2.3 asks of a crash, as a table: the restart comes only from
    /// a collapse or weak's cross-replica double failure, and strong sends
    /// a checkpoint across replicas only when a line exists.
    fn expected(scheme: Scheme, e: HardError, ranks: usize) -> RecoveryPlan {
        use RecoveryAction::*;
        let healthy = 1 - e.replica;
        let plan = |actions, inter_replica_messages, rework| RecoveryPlan {
            actions,
            inter_replica_messages,
            rework,
        };
        if e.collapsed || (scheme == Scheme::Weak && e.parked == Some(healthy)) {
            return plan(vec![RestartJob], 0, true);
        }
        let (from, to, replica) = (e.buddy, e.spare, e.replica);
        match (scheme, e.line) {
            (Scheme::Strong, true) => plan(
                vec![
                    SendVerifiedCheckpoint { from, to },
                    RollbackReplica { replica },
                ],
                1,
                true,
            ),
            (Scheme::Strong, false) => plan(vec![RollbackReplica { replica }], 0, true),
            (Scheme::Medium, _) => plan(
                vec![
                    ForceCheckpoint { replica: healthy },
                    ShipCheckpointsToBuddies {
                        from_replica: healthy,
                    },
                ],
                ranks,
                false,
            ),
            (Scheme::Weak, _) => plan(vec![WaitForNextPeriodicCheckpoint], ranks, false),
        }
    }

    /// Every input the driver can hand the planner — scheme × crashed
    /// replica × line or none × collapsed or not × parked replica none,
    /// same or other — for a crash of node 3 (buddy 67, spare 128) in a
    /// job of 64 ranks per replica.
    #[test]
    fn plans_cover_every_scheme_line_collapse_and_parked_replica() {
        let mut inputs = Vec::new();
        for replica in [0u8, 1] {
            for line in [false, true] {
                for collapsed in [false, true] {
                    for parked in [None, Some(replica), Some(1 - replica)] {
                        inputs.push(HardError {
                            replica,
                            buddy: 67,
                            spare: 128,
                            line,
                            collapsed,
                            parked,
                        });
                    }
                }
            }
        }
        let mut restarts = 0;
        for scheme in Scheme::ALL {
            let planner = RecoveryPlanner::new(scheme, 64);
            for &e in &inputs {
                let plan = planner.plan_hard_error(e);
                assert_eq!(plan, expected(scheme, e, 64), "{scheme} {e:?}");
                restarts += usize::from(plan.actions == [RecoveryAction::RestartJob]);
            }
        }
        // 12 collapses per scheme, plus weak's 4 uncollapsed inputs parked
        // in the other replica.
        assert_eq!((inputs.len(), restarts), (24, 3 * 12 + 4));
    }

    #[test]
    fn unprotected_windows_match_the_model() {
        let (tau, delta) = (120.0, 15.0);
        assert_eq!(Scheme::Strong.unprotected_window(tau, delta), 0.0);
        assert_eq!(Scheme::Medium.unprotected_window(tau, delta), 67.5);
        assert_eq!(Scheme::Weak.unprotected_window(tau, delta), 135.0);
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(Scheme::Strong.to_string(), "strong");
        assert_eq!(Scheme::ALL.len(), 3);
    }
}
