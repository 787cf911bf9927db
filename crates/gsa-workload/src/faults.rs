//! Deterministic fault plans for chaos testing.
//!
//! A [`FaultPlan`] is a seeded, pre-computed schedule of network and
//! node faults — loss bursts, transient node crashes, partition waves —
//! that a driver replays against a simulation. Because the plan is
//! materialised up front from a seed, a chaos run is exactly as
//! reproducible as any other simulation: same seed, same faults, same
//! byte-identical outcome.

use gsa_types::{HostName, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One scheduled fault (or fault repair).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Set the per-link drop probability on every link (loss-burst edge).
    SetDropProbability {
        /// When.
        at: SimTime,
        /// The new drop probability.
        p: f64,
    },
    /// Crash or restart a node (state survives — a transient outage).
    SetNodeUp {
        /// When.
        at: SimTime,
        /// Which host.
        host: HostName,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
    /// Move a host into a partition group (0 = main).
    Partition {
        /// When.
        at: SimTime,
        /// Which host.
        host: HostName,
        /// The group.
        group: u32,
    },
    /// Heal all partitions and downed links.
    Heal {
        /// When.
        at: SimTime,
    },
    /// Hard-crash an alerting server: its actor is rebuilt from what a
    /// crash keeps (`System::crash_server`; DESIGN.md §4, "What a crash
    /// leaves") and the node goes down. Its transport is lost; its
    /// profiles and alert states come back only from a durable state
    /// store's journal.
    CrashServer {
        /// When.
        at: SimTime,
        /// Which server host.
        host: HostName,
    },
    /// Bring a crashed server back up; it re-registers and announces its
    /// interest summary above the version its state store recovered.
    RestartServer {
        /// When.
        at: SimTime,
        /// Which server host.
        host: HostName,
    },
}

impl FaultAction {
    /// When the action fires.
    pub fn at(&self) -> SimTime {
        match self {
            FaultAction::SetDropProbability { at, .. }
            | FaultAction::SetNodeUp { at, .. }
            | FaultAction::Partition { at, .. }
            | FaultAction::Heal { at }
            | FaultAction::CrashServer { at, .. }
            | FaultAction::RestartServer { at, .. } => *at,
        }
    }
}

/// Shape parameters of a generated fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanParams {
    /// The window faults are injected into; every fault is repaired
    /// before `horizon`, leaving the tail for reconciliation.
    pub horizon: SimDuration,
    /// The ambient per-link drop probability outside loss bursts.
    pub base_drop: f64,
    /// The per-link drop probability during a loss burst.
    pub burst_drop: f64,
    /// Number of loss bursts.
    pub loss_bursts: usize,
    /// Number of transient node crashes (drawn from the crashable set).
    pub crashes: usize,
    /// How long a crashed node stays down.
    pub crash_outage: SimDuration,
    /// Number of partition waves (each isolates one partitionable host,
    /// then heals).
    pub partition_waves: usize,
    /// How long a partition wave lasts.
    pub partition_length: SimDuration,
    /// Number of hard server crashes (state-wiping, drawn from the
    /// server set passed to [`FaultPlan::generate_with_servers`]).
    /// Zero — the default — draws no extra randomness, so plans
    /// generated without server crashes are byte-identical to plans
    /// from before this knob existed.
    pub server_crashes: usize,
    /// How long a hard-crashed server stays down before restarting.
    pub server_outage: SimDuration,
}

impl Default for FaultPlanParams {
    fn default() -> Self {
        FaultPlanParams {
            horizon: SimDuration::from_secs(60),
            base_drop: 0.0,
            burst_drop: 0.3,
            loss_bursts: 2,
            crashes: 1,
            crash_outage: SimDuration::from_secs(8),
            partition_waves: 1,
            partition_length: SimDuration::from_secs(6),
            server_crashes: 0,
            server_outage: SimDuration::from_secs(10),
        }
    }
}

/// A seeded, sorted schedule of faults, repaired in full before the
/// horizon ends.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The actions, sorted by time (ties keep generation order).
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// Generates a plan. Crashes are drawn from `crashable` (pass the
    /// non-root GDS nodes: crashing the tree root without a fallback is
    /// a different experiment), partition waves from `partitionable`.
    /// All faults start within the first 60 % of the horizon and are
    /// repaired by 90 %, so the final tail is clean for reconciliation.
    pub fn generate(
        seed: u64,
        crashable: &[HostName],
        partitionable: &[HostName],
        params: &FaultPlanParams,
    ) -> Self {
        Self::generate_with_servers(seed, crashable, &[], partitionable, params)
    }

    /// Like [`FaultPlan::generate`], but additionally draws
    /// `params.server_crashes` hard server crash/restart pairs from
    /// `servers`. Server-crash randomness is drawn after every other
    /// fault class, so a plan with `server_crashes: 0` (or an empty
    /// server set) is byte-identical to the plain `generate` output.
    pub fn generate_with_servers(
        seed: u64,
        crashable: &[HostName],
        servers: &[HostName],
        partitionable: &[HostName],
        params: &FaultPlanParams,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut actions = Vec::new();
        let h = params.horizon.as_micros().max(10);
        let start_window = h * 6 / 10;
        let repair_by = h * 9 / 10;

        for _ in 0..params.loss_bursts {
            let at = rng.random_range(0..start_window);
            let len = rng.random_range(h / 20..h / 5);
            let end = (at + len).min(repair_by);
            actions.push(FaultAction::SetDropProbability {
                at: SimTime::from_micros(at),
                p: params.burst_drop,
            });
            actions.push(FaultAction::SetDropProbability {
                at: SimTime::from_micros(end),
                p: params.base_drop,
            });
        }

        if !crashable.is_empty() {
            for _ in 0..params.crashes {
                let host = crashable[rng.random_range(0..crashable.len())].clone();
                let at = rng.random_range(0..start_window);
                let end = (at + params.crash_outage.as_micros()).min(repair_by);
                actions.push(FaultAction::SetNodeUp {
                    at: SimTime::from_micros(at),
                    host: host.clone(),
                    up: false,
                });
                actions.push(FaultAction::SetNodeUp {
                    at: SimTime::from_micros(end),
                    host,
                    up: true,
                });
            }
        }

        if !partitionable.is_empty() {
            for wave in 0..params.partition_waves {
                let host =
                    partitionable[rng.random_range(0..partitionable.len())].clone();
                let at = rng.random_range(0..start_window);
                let end = (at + params.partition_length.as_micros()).min(repair_by);
                actions.push(FaultAction::Partition {
                    at: SimTime::from_micros(at),
                    host,
                    group: wave as u32 + 1,
                });
                actions.push(FaultAction::Heal {
                    at: SimTime::from_micros(end),
                });
            }
        }

        if !servers.is_empty() {
            for _ in 0..params.server_crashes {
                let host = servers[rng.random_range(0..servers.len())].clone();
                let at = rng.random_range(0..start_window);
                let end = (at + params.server_outage.as_micros()).min(repair_by);
                actions.push(FaultAction::CrashServer {
                    at: SimTime::from_micros(at),
                    host: host.clone(),
                });
                actions.push(FaultAction::RestartServer {
                    at: SimTime::from_micros(end),
                    host,
                });
            }
        }

        actions.sort_by_key(FaultAction::at);
        FaultPlan { actions }
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Returns `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The last scheduled action's time (plan end), `SimTime::ZERO` when
    /// empty.
    pub fn end(&self) -> SimTime {
        self.actions.last().map(FaultAction::at).unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(names: &[&str]) -> Vec<HostName> {
        names.iter().map(|n| HostName::new(*n)).collect()
    }

    #[test]
    fn same_seed_same_plan() {
        let c = hosts(&["gds-2", "gds-3"]);
        let p = hosts(&["London"]);
        let params = FaultPlanParams::default();
        let a = FaultPlan::generate(9, &c, &p, &params);
        let b = FaultPlan::generate(9, &c, &p, &params);
        assert_eq!(a, b);
        let c2 = FaultPlan::generate(10, &c, &p, &params);
        assert_ne!(a, c2, "different seeds diverge");
    }

    #[test]
    fn actions_are_sorted_and_repaired_before_horizon() {
        let c = hosts(&["gds-2", "gds-3", "gds-5"]);
        let p = hosts(&["London", "Hamilton"]);
        let params = FaultPlanParams {
            loss_bursts: 3,
            crashes: 2,
            partition_waves: 2,
            ..FaultPlanParams::default()
        };
        let plan = FaultPlan::generate(3, &c, &p, &params);
        assert_eq!(plan.len(), 2 * (3 + 2 + 2));
        let times: Vec<SimTime> = plan.actions.iter().map(FaultAction::at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        let ninety = SimTime::from_micros(params.horizon.as_micros() * 9 / 10);
        assert!(plan.end() <= ninety, "repairs land inside the horizon");
    }

    #[test]
    fn every_crash_has_a_matching_restart() {
        let c = hosts(&["gds-2", "gds-3"]);
        let params = FaultPlanParams {
            crashes: 4,
            ..FaultPlanParams::default()
        };
        let plan = FaultPlan::generate(17, &c, &[], &params);
        for host in &c {
            // Every `[crash, restart)` window closes, and no crash is
            // left open at the end of the plan.
            let mut open: Option<SimTime> = None;
            for a in &plan.actions {
                match (a, open) {
                    (FaultAction::SetNodeUp { host: h, up: false, at }, None) if h == host => {
                        open = Some(*at);
                    }
                    (FaultAction::SetNodeUp { host: h, up: true, at }, Some(down)) if h == host => {
                        assert!(down < *at, "window closes");
                        open = None;
                    }
                    _ => {}
                }
            }
            assert_eq!(open, None, "{host}: no crash left open");
        }
        let crashes = plan
            .actions
            .iter()
            .filter(|a| matches!(a, FaultAction::SetNodeUp { up: false, .. }))
            .count();
        assert_eq!(crashes, 4);
    }

    #[test]
    fn server_crash_draws_do_not_perturb_existing_plans() {
        let c = hosts(&["gds-2", "gds-3"]);
        let p = hosts(&["London"]);
        let params = FaultPlanParams::default();
        let plain = FaultPlan::generate(9, &c, &p, &params);
        let with_empty =
            FaultPlan::generate_with_servers(9, &c, &[], &p, &params);
        assert_eq!(plain, with_empty, "empty server set is a no-op");
        // Even with servers listed, zero requested crashes draw nothing.
        let with_zero = FaultPlan::generate_with_servers(
            9,
            &c,
            &hosts(&["London", "Hamilton"]),
            &p,
            &params,
        );
        assert_eq!(plain, with_zero, "server_crashes: 0 draws no randomness");
    }

    #[test]
    fn server_crashes_pair_up_and_repair_in_window() {
        let c = hosts(&["gds-2"]);
        let s = hosts(&["London", "Hamilton"]);
        let params = FaultPlanParams {
            server_crashes: 3,
            ..FaultPlanParams::default()
        };
        let plan = FaultPlan::generate_with_servers(5, &c, &s, &[], &params);
        let crashes: Vec<&HostName> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::CrashServer { host, .. } => Some(host),
                _ => None,
            })
            .collect();
        let restarts: Vec<&HostName> = plan
            .actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::RestartServer { host, .. } => Some(host),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 3);
        assert_eq!(restarts.len(), 3);
        let mut c1 = crashes.clone();
        let mut r1 = restarts.clone();
        c1.sort();
        r1.sort();
        assert_eq!(c1, r1, "every crashed server restarts");
        let ninety = SimTime::from_micros(params.horizon.as_micros() * 9 / 10);
        assert!(plan.end() <= ninety, "restarts land inside the horizon");
    }

    #[test]
    fn empty_candidate_sets_skip_those_faults() {
        let params = FaultPlanParams::default();
        let plan = FaultPlan::generate(1, &[], &[], &params);
        assert!(plan
            .actions
            .iter()
            .all(|a| matches!(a, FaultAction::SetDropProbability { .. })));
        assert!(!plan.is_empty());
    }
}
