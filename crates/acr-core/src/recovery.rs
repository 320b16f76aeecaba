//! The three recovery schemes as explicit plans (§2.3, Figs. 4–5).
//!
//! When a failure is detected, the runtime asks the [`RecoveryPlanner`] what
//! to do; the plan is a list of [`RecoveryAction`]s the runtime executes in
//! order. Keeping the decision logic here — pure and table-driven — lets the
//! real runtime and the simulator recover identically, and makes the §2.3
//! trade-offs (rework vs. SDC-window vs. network traffic) directly testable.

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

/// One step of a recovery plan, executed by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Bind the crashed node's `(replica, rank)` to a spare node.
    PromoteSpare {
        /// The crashed node.
        failed: usize,
        /// The spare taking over.
        spare: usize,
    },
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
    /// verified checkpoint (strong resilience).
    RollbackReplica {
        /// The crashed replica.
        replica: u8,
    },
    /// Defer recovery to the next periodic checkpoint (weak resilience);
    /// the runtime keeps the crashed rank parked until then.
    WaitForNextPeriodicCheckpoint,
}

/// A recovery plan plus its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Steps to execute in order.
    pub actions: Vec<RecoveryAction>,
    /// Inter-replica checkpoint messages this plan will generate (1 for
    /// strong, `ranks` for medium/weak) — the Fig. 10 network-load factor.
    pub inter_replica_messages: usize,
    /// Whether the crashed replica re-executes work it had already done.
    pub rework: bool,
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

    /// The configured scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Plan the response to a fail-stop crash of `failed` (in
    /// `crashed_replica`), whose buddy is `buddy` and whose replacement is
    /// `spare`.
    pub fn plan_hard_error(
        &self,
        failed: usize,
        buddy: usize,
        spare: usize,
        crashed_replica: u8,
    ) -> RecoveryPlan {
        let healthy = 1 - crashed_replica;
        match self.scheme {
            Scheme::Strong => RecoveryPlan {
                actions: vec![
                    RecoveryAction::PromoteSpare { failed, spare },
                    RecoveryAction::SendVerifiedCheckpoint {
                        from: buddy,
                        to: spare,
                    },
                    RecoveryAction::RollbackReplica {
                        replica: crashed_replica,
                    },
                ],
                inter_replica_messages: 1,
                rework: true,
            },
            Scheme::Medium => RecoveryPlan {
                actions: vec![
                    RecoveryAction::PromoteSpare { failed, spare },
                    RecoveryAction::ForceCheckpoint { replica: healthy },
                    RecoveryAction::ShipCheckpointsToBuddies {
                        from_replica: healthy,
                    },
                ],
                inter_replica_messages: self.ranks,
                rework: false,
            },
            Scheme::Weak => RecoveryPlan {
                actions: vec![
                    RecoveryAction::PromoteSpare { failed, spare },
                    RecoveryAction::WaitForNextPeriodicCheckpoint,
                    RecoveryAction::ShipCheckpointsToBuddies {
                        from_replica: healthy,
                    },
                ],
                inter_replica_messages: self.ranks,
                rework: false,
            },
        }
    }

    /// [`RecoveryPlanner::plan_hard_error`] plus flight-recorder
    /// bookkeeping: emits a `recovery_plan` event summarizing the plan's
    /// cost (action count, inter-replica transfers, rework).
    #[allow(clippy::too_many_arguments)] // mirrors plan_hard_error + recorder context
    pub fn plan_hard_error_recorded(
        &self,
        failed: usize,
        buddy: usize,
        spare: usize,
        crashed_replica: u8,
        rec: &acr_obs::Recorder,
        node: u32,
    ) -> RecoveryPlan {
        let plan = self.plan_hard_error(failed, buddy, spare, crashed_replica);
        let (actions, msgs, rework) = (
            plan.actions.len() as u32,
            plan.inter_replica_messages as u32,
            plan.rework,
        );
        rec.emit_with(node, || acr_obs::EventKind::RecoveryPlan {
            actions,
            inter_replica_messages: msgs,
            rework,
        });
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_plan_is_single_message_with_rework() {
        let p = RecoveryPlanner::new(Scheme::Strong, 64);
        let plan = p.plan_hard_error(3, 67, 128, 0);
        assert_eq!(plan.inter_replica_messages, 1, "only buddy → spare");
        assert!(plan.rework);
        assert_eq!(
            plan.actions,
            vec![
                RecoveryAction::PromoteSpare {
                    failed: 3,
                    spare: 128
                },
                RecoveryAction::SendVerifiedCheckpoint { from: 67, to: 128 },
                RecoveryAction::RollbackReplica { replica: 0 },
            ]
        );
    }

    #[test]
    fn medium_plan_forces_checkpoint_and_ships_everything() {
        let p = RecoveryPlanner::new(Scheme::Medium, 64);
        let plan = p.plan_hard_error(70, 6, 128, 1);
        assert_eq!(plan.inter_replica_messages, 64);
        assert!(
            !plan.rework,
            "crashed replica catches up instead of redoing work"
        );
        assert!(plan
            .actions
            .contains(&RecoveryAction::ForceCheckpoint { replica: 0 }));
        assert!(plan
            .actions
            .contains(&RecoveryAction::ShipCheckpointsToBuddies { from_replica: 0 }));
    }

    #[test]
    fn weak_plan_waits() {
        let p = RecoveryPlanner::new(Scheme::Weak, 8);
        let plan = p.plan_hard_error(1, 9, 16, 0);
        assert_eq!(
            plan.actions[1],
            RecoveryAction::WaitForNextPeriodicCheckpoint
        );
        assert!(!plan
            .actions
            .iter()
            .any(|a| matches!(a, RecoveryAction::ForceCheckpoint { .. })));
        assert!(!plan.rework);
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
