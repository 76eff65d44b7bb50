//! The scheduler's before-plan cache is a pure optimisation: over the full
//! dynamic-ESP workload, a simulator run with the cache enabled takes
//! byte-identical dynamic decisions (including every [`DelayCharge`]) and
//! produces byte-identical job outcomes as a run with it disabled.
//!
//! This is the determinism gate for the cached what-if planning path in
//! `dynbatch-sched`: any divergence between the cached and the recomputed
//! "before" plan would surface here as a differing grant, delay charge, or
//! completion record.

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration, SimTime};
use dynbatch::sched::DynDecision;
use dynbatch::sim::BatchSim;
use dynbatch::workload::{generate_esp, EspConfig};

/// Runs the dynamic ESP workload and returns the full decision log plus
/// the accounting ledger.
fn run_esp(
    cfg: SchedulerConfig,
    cache: bool,
    seed: u64,
) -> (
    Vec<(SimTime, DynDecision)>,
    Vec<dynbatch::core::JobOutcome>,
    SimTime,
) {
    let mut reg = CredRegistry::new();
    let mut wl_cfg = EspConfig::paper_dynamic();
    wl_cfg.seed = seed;
    let mut wl = generate_esp(&wl_cfg, &mut reg);
    if cfg.dyn_partition_cores > 0 {
        // Full-machine jobs could never start beside the partition.
        wl.retain(|item| item.spec.cores < 120);
    }
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cfg);
    sim.maui_mut().set_plan_cache_enabled(cache);
    sim.load(&wl);
    sim.run();
    assert!(sim.server().is_drained());
    (
        sim.dyn_decision_log().to_vec(),
        sim.server().accounting().outcomes().to_vec(),
        sim.last_completion(),
    )
}

#[test]
fn cached_and_uncached_runs_are_byte_identical() {
    for (label, dfs) in [
        ("Dyn-HP", DfsConfig::highest_priority()),
        (
            "Dyn-500",
            DfsConfig::uniform_target(500, SimDuration::from_hours(1)),
        ),
        (
            "Dyn-100",
            DfsConfig::uniform_target(100, SimDuration::from_hours(1)),
        ),
    ] {
        for seed in [1u64, 2014] {
            let mut cfg = SchedulerConfig::paper_eval();
            cfg.dfs = dfs.clone();
            let (log_c, out_c, end_c) = run_esp(cfg.clone(), true, seed);
            let (log_u, out_u, end_u) = run_esp(cfg, false, seed);

            // The workload actually exercises the dynamic path.
            assert!(
                log_c.iter().any(|(_, d)| d.is_granted()),
                "{label}/{seed}: no grants — the comparison would be vacuous"
            );
            // Decision-by-decision equality, DelayCharges included
            // (DynDecision::Granted embeds its `delays` vector).
            assert_eq!(log_c, log_u, "{label}/{seed}: dynamic decisions diverged");
            assert_eq!(out_c, out_u, "{label}/{seed}: job outcomes diverged");
            assert_eq!(end_c, end_u, "{label}/{seed}: makespan diverged");
        }
    }
}

#[test]
fn preemption_and_shrink_paths_are_cache_invariant() {
    // The grant path that preempts backfilled jobs or shrinks malleable
    // ones mutates the base profile too — the cache must be invalidated
    // there exactly as in the plain-grant path. With a dynamic partition,
    // a grant that over-frees cores also re-grows the partition, which
    // must leave the cache cold.
    for partition in [0u32, 16] {
        let mut cfg = SchedulerConfig::paper_eval();
        cfg.dfs = DfsConfig::highest_priority();
        cfg.preempt_backfilled_for_dyn = true;
        cfg.shrink_malleable_for_dyn = true;
        cfg.grow_malleable_on_idle = true;
        cfg.dyn_partition_cores = partition;
        let (log_c, out_c, end_c) = run_esp(cfg.clone(), true, 7);
        let (log_u, out_u, end_u) = run_esp(cfg, false, 7);
        assert!(
            log_c.iter().any(|(_, d)| d.is_granted()),
            "partition {partition}: no grants — the comparison would be vacuous"
        );
        assert_eq!(log_c, log_u, "partition {partition}");
        assert_eq!(out_c, out_u, "partition {partition}");
        assert_eq!(end_c, end_u, "partition {partition}");
    }
}
