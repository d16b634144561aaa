//! Seeded [`FaultPlan`] generators for property tests.
//!
//! Plans come out of `sns-testkit`'s choice-stream generators, so a
//! failing plan shrinks the way the runner shrinks any value: toward the
//! zero stream, which here means *fewer events, earlier times, first
//! classes, smallest indices*. An empty plan is the simplest value; a
//! single kill of the first class at the earliest time is the minimal
//! non-trivial one.

use std::time::Duration;

use sns_testkit::{gens, Gen};

use crate::{FaultEvent, FaultKind, FaultPlan};

/// The space random plans are drawn from. Only *recoverable* faults are
/// generated: nodes killed here get a paired revival, partitions heal,
/// loss bursts stay shorter than the beacon-loss/report timeouts — so a
/// healthy SNS implementation must survive every plan in the space.
#[derive(Debug, Clone)]
pub struct PlanSpace {
    /// Worker classes eligible for `KillWorker` (first = shrink target).
    pub classes: Vec<String>,
    /// Node pools eligible for partitions and stragglers.
    pub pools: Vec<String>,
    /// Earliest event time (after cluster boot settles).
    pub earliest: Duration,
    /// Latest event time.
    pub latest: Duration,
    /// Maximum number of events per plan.
    pub max_events: usize,
    /// Whether manager kills may be drawn.
    pub kill_manager: bool,
    /// Whether beacon-loss bursts and partitions may be drawn.
    pub net_faults: bool,
    /// Longest beacon-loss burst (keep under the 4s beacon-loss and
    /// worker-report timeouts so soft state refreshes between bursts).
    pub max_burst: Duration,
    /// Whether cluster-operations verbs (drain, rejoin, rolling
    /// upgrade) over the pools may be drawn.
    pub cluster_ops: bool,
}

impl PlanSpace {
    /// A space of worker kills only — the narrowest useful space, used by
    /// the shrink-minimality tests.
    pub fn kills_only(classes: &[&str]) -> Self {
        PlanSpace {
            classes: classes.iter().map(|c| c.to_string()).collect(),
            pools: vec![],
            earliest: Duration::from_secs(15),
            latest: Duration::from_secs(45),
            max_events: 4,
            kill_manager: false,
            net_faults: false,
            max_burst: Duration::from_secs(3),
            cluster_ops: false,
        }
    }

    /// The full recoverable space over the given classes and pools.
    pub fn full(classes: &[&str], pools: &[&str]) -> Self {
        PlanSpace {
            classes: classes.iter().map(|c| c.to_string()).collect(),
            pools: pools.iter().map(|p| p.to_string()).collect(),
            earliest: Duration::from_secs(15),
            latest: Duration::from_secs(45),
            max_events: 5,
            kill_manager: true,
            net_faults: true,
            max_burst: Duration::from_secs(3),
            cluster_ops: false,
        }
    }

    /// A space of cluster-operations verbs — drains, rejoins and
    /// rolling upgrades over `pools`, mixed with worker kills from
    /// `classes`. No unrecoverable faults, so a healthy implementation
    /// must keep serving through every plan.
    pub fn cluster_ops(classes: &[&str], pools: &[&str]) -> Self {
        PlanSpace {
            classes: classes.iter().map(|c| c.to_string()).collect(),
            pools: pools.iter().map(|p| p.to_string()).collect(),
            earliest: Duration::from_secs(15),
            latest: Duration::from_secs(45),
            max_events: 4,
            kill_manager: false,
            net_faults: false,
            max_burst: Duration::from_secs(3),
            cluster_ops: true,
        }
    }
}

/// Generator of [`FaultPlan`]s over `space`. The zero choice stream
/// yields the empty plan; one extra nonzero choice yields a single
/// `KillWorker` of the first class at the earliest time.
pub fn fault_plan(space: &PlanSpace) -> Gen<FaultPlan> {
    assert!(!space.classes.is_empty(), "plan space needs worker classes");
    assert!(space.earliest < space.latest, "empty time window");

    let event = fault_event(space);
    gens::vec(event, 0..space.max_events + 1).map(FaultPlan::from_events)
}

fn fault_event(space: &PlanSpace) -> Gen<FaultEvent> {
    let when = gens::duration_in(space.earliest..space.latest);

    // KillWorker first and heaviest: the zero alternative is the shrink
    // target, and worker crashes are the paper's headline fault (§3.1.6).
    let classes = space.classes.clone();
    let kill_worker = gens::usize_in(0..classes.len() * 4).map(move |raw| FaultKind::KillWorker {
        class: classes[raw % classes.len()].clone(),
        which: raw / classes.len(),
    });
    let mut alts: Vec<(u32, Gen<FaultKind>)> = vec![(6, kill_worker)];
    if space.cluster_ops && !space.pools.is_empty() {
        let pools = space.pools.clone();
        let drain = gens::usize_in(0..pools.len() * 4).map(move |raw| FaultKind::DrainNode {
            pool: pools[raw % pools.len()].clone(),
            which: raw / pools.len(),
        });
        alts.push((3, drain));

        let pools = space.pools.clone();
        let rejoin = gens::usize_in(0..pools.len() * 4).map(move |raw| FaultKind::RejoinNode {
            pool: pools[raw % pools.len()].clone(),
            which: raw / pools.len(),
        });
        alts.push((3, rejoin));

        let pools = space.pools.clone();
        let pick = gens::usize_in(0..pools.len());
        let nodes = gens::usize_in(1..5);
        let batch = gens::usize_in(1..3);
        let settle = gens::duration_in(Duration::from_secs(2)..Duration::from_secs(8));
        let upgrade = pick.flat_map(move |p| {
            let pool = pools[p].clone();
            let batch = batch.clone();
            let settle = settle.clone();
            nodes.flat_map(move |nodes| {
                let pool = pool.clone();
                let settle = settle.clone();
                batch.flat_map(move |batch| {
                    let pool = pool.clone();
                    settle.map(move |settle| FaultKind::RollingUpgrade {
                        pool: pool.clone(),
                        nodes,
                        batch,
                        settle,
                    })
                })
            })
        });
        alts.push((2, upgrade));
    }

    if space.kill_manager {
        alts.push((2, gens::just(FaultKind::KillManager)));
    }
    if space.net_faults {
        let burst_lo = Duration::from_millis(200);
        let burst = gens::duration_in(burst_lo..space.max_burst.max(burst_lo + burst_lo));
        alts.push((2, burst.map(|lasting| FaultKind::BeaconLoss { lasting })));
        if !space.pools.is_empty() {
            let pools = space.pools.clone();
            let pick = gens::usize_in(0..pools.len() * 4);
            let heal = gens::duration_in(Duration::from_secs(2)..Duration::from_secs(10));
            let partition = pick.flat_map(move |raw| {
                let pool = pools[raw % pools.len()].clone();
                let which = raw / pools.len();
                heal.map(move |heal_after| FaultKind::Partition {
                    pool: pool.clone(),
                    which,
                    heal_after,
                })
            });
            alts.push((2, partition));

            let pools = space.pools.clone();
            let pick = gens::usize_in(0..pools.len() * 4);
            let lasting = gens::duration_in(Duration::from_secs(1)..Duration::from_secs(8));
            let slowdown = gens::u32_in(2..20);
            let straggler = pick.flat_map(move |raw| {
                let pool = pools[raw % pools.len()].clone();
                let which = raw / pools.len();
                let lasting = lasting.clone();
                slowdown.flat_map(move |sd| {
                    let pool = pool.clone();
                    lasting.map(move |lasting| FaultKind::Straggler {
                        pool: pool.clone(),
                        which,
                        slowdown: sd,
                        lasting,
                    })
                })
            });
            alts.push((1, straggler));
        }
    }

    let kind = gens::weighted_of(alts);
    when.flat_map(move |at| kind.map(move |kind| FaultEvent { at, kind }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_testkit::Source;

    #[test]
    fn zero_stream_is_the_empty_plan() {
        let g = fault_plan(&PlanSpace::full(&["cache"], &["dedicated"]));
        let mut src = Source::replay(vec![]);
        assert!(g.run(&mut src).is_empty());
    }

    #[test]
    fn plans_are_sorted_and_inside_the_window() {
        let space = PlanSpace::full(&["cache", "distiller/gif"], &["dedicated", "overflow"]);
        let g = fault_plan(&space);
        let mut src = Source::live(0xC0FFEE);
        for _ in 0..200 {
            let plan = g.run(&mut src);
            let mut prev = Duration::ZERO;
            for ev in &plan.events {
                assert!(ev.at >= prev, "unsorted plan:\n{plan}");
                assert!(ev.at >= space.earliest && ev.at < space.latest, "{plan}");
                prev = ev.at;
                if let FaultKind::BeaconLoss { lasting } = ev.kind {
                    assert!(lasting <= space.max_burst, "{plan}");
                }
            }
            assert!(plan.len() <= space.max_events);
        }
    }

    #[test]
    fn kills_only_space_draws_only_kills() {
        let g = fault_plan(&PlanSpace::kills_only(&["cache"]));
        let mut src = Source::live(7);
        for _ in 0..100 {
            for ev in &g.run(&mut src).events {
                assert!(matches!(ev.kind, FaultKind::KillWorker { .. }));
            }
        }
    }

    #[test]
    fn cluster_ops_space_draws_the_new_verbs() {
        let space = PlanSpace::cluster_ops(&["cache"], &["dedicated"]);
        let g = fault_plan(&space);
        let mut src = Source::live(13);
        let (mut drains, mut rejoins, mut upgrades) = (0, 0, 0);
        for _ in 0..300 {
            for ev in &g.run(&mut src).events {
                match &ev.kind {
                    FaultKind::KillWorker { .. } => {}
                    FaultKind::DrainNode { .. } => drains += 1,
                    FaultKind::RejoinNode { .. } => rejoins += 1,
                    FaultKind::RollingUpgrade { nodes, batch, .. } => {
                        assert!(*nodes >= 1 && *batch >= 1, "{}", ev.kind);
                        upgrades += 1;
                    }
                    other => panic!("unexpected verb in cluster-ops space: {other}"),
                }
            }
        }
        assert!(
            drains > 0 && rejoins > 0 && upgrades > 0,
            "every ops verb must be drawn: {drains} drains, {rejoins} rejoins, {upgrades} upgrades"
        );
    }
}
