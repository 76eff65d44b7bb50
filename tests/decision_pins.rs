//! Cross-commit decision pins: the dynamic ESP campaign's decisions are
//! compared against digests recorded from an earlier version of the
//! scheduler, not against a second path of the current one. Every other
//! decision gate compares path A with path B; this one catches a change
//! that moves both paths together.
//!
//! Each row pins three FNV-1a digests: the `Debug` rendering of the
//! dynamic decision log, the accounting ledger's rolling outcome digest,
//! and the server's `state_digest`. A deliberate behaviour change must
//! re-record the table (the failure message prints the new one).

use dynbatch::cluster::Cluster;
use dynbatch::core::{CredRegistry, DfsConfig, SchedulerConfig, SimDuration};
use dynbatch::sim::BatchSim;
use dynbatch::workload::{generate_esp, EspConfig};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(policy, variant, seed) -> [decision log, outcomes, state]`,
/// recorded before the evaluate/commit merge of the dynamic loop.
#[rustfmt::skip]
const PINS: [(&str, &str, u64, [u64; 3]); 18] = [
    ("Dyn-HP", "plain", 1, [0xbc6819005372c875, 0x06c62d285c5a5b64, 0x46799741e56ae4ce]),
    ("Dyn-HP", "plain", 2014, [0x4b8d74d78ab97a91, 0xec202ddb7d1dee0d, 0x812f11f92316e879]),
    ("Dyn-HP", "shrink+preempt+grow", 1, [0x4b201dacf6ad0aa8, 0x079af0b963325827, 0xa1c66d69d8c5a82f]),
    ("Dyn-HP", "shrink+preempt+grow", 2014, [0x3d8bd15a62890840, 0x9118be093368aead, 0x446590eead13da98]),
    ("Dyn-HP", "partition", 1, [0xb91e09e24026412c, 0x312bd65357737082, 0x3e504c6c0a36d627]),
    ("Dyn-HP", "partition", 2014, [0xb19b4ee322281c7e, 0xe7db069ffc0a6918, 0x73ed209cee921737]),
    ("Dyn-500", "plain", 1, [0x7f954836c4631e94, 0x821d58c80537a9e2, 0x478d80e2a45333c9]),
    ("Dyn-500", "plain", 2014, [0x6314c65e1d7e2d03, 0xd229e9ceab7ef8cc, 0x5374ff37590e6b99]),
    ("Dyn-500", "shrink+preempt+grow", 1, [0xc468040ea4b8de39, 0x87892a3febca27af, 0xbfbcddeb289f18de]),
    ("Dyn-500", "shrink+preempt+grow", 2014, [0xd27ac1007bf2d918, 0xadd6570371cb9f0f, 0x83b47d175a68b8d4]),
    ("Dyn-500", "partition", 1, [0xb91e09e24026412c, 0x312bd65357737082, 0x3e504c6c0a36d627]),
    ("Dyn-500", "partition", 2014, [0xb19b4ee322281c7e, 0xe7db069ffc0a6918, 0x73ed209cee921737]),
    ("Dyn-100", "plain", 1, [0xf5617d95357c2d70, 0xd99a56a9310700fd, 0x4938b2579fe4f710]),
    ("Dyn-100", "plain", 2014, [0x189a60f7260e0a43, 0x0bd6d61c022ae2e7, 0x1a03a84411c64a80]),
    ("Dyn-100", "shrink+preempt+grow", 1, [0x662b085462b7c4d2, 0x7d059ecbaadffc50, 0xef0cfa873a8adcf9]),
    ("Dyn-100", "shrink+preempt+grow", 2014, [0x86c3bc3c7a985b9a, 0x5b5eac983ea9c582, 0x77f032b8ac21a35d]),
    ("Dyn-100", "partition", 1, [0xb91e09e24026412c, 0x312bd65357737082, 0x3e504c6c0a36d627]),
    ("Dyn-100", "partition", 2014, [0xabaf662061a5eb98, 0x70f1a62fd63f7a10, 0xe0b3232e18ea98e2]),
];

/// Runs one ESP configuration to drain and returns its three digests.
fn digests(dfs: &DfsConfig, variant: &str, seed: u64) -> [u64; 3] {
    let mut cfg = SchedulerConfig::paper_eval();
    cfg.dfs = dfs.clone();
    if variant != "plain" {
        cfg.shrink_malleable_for_dyn = true;
        cfg.preempt_backfilled_for_dyn = true;
        cfg.grow_malleable_on_idle = true;
    }
    let mut wl_cfg = EspConfig::paper_dynamic();
    wl_cfg.seed = seed;
    let mut wl = generate_esp(&wl_cfg, &mut CredRegistry::new());
    if variant == "partition" {
        // Full-machine jobs could never start beside the partition.
        cfg.dyn_partition_cores = 16;
        wl.retain(|item| item.spec.cores < 120);
    }
    let mut sim = BatchSim::new(Cluster::homogeneous(15, 8), cfg);
    sim.load(&wl);
    sim.run();
    assert!(sim.server().is_drained(), "{variant}/{seed}: not drained");
    [
        fnv(format!("{:?}", sim.dyn_decision_log()).as_bytes()),
        sim.server().accounting().digest(),
        fnv(sim.server().state_digest().as_bytes()),
    ]
}

#[test]
fn esp_decisions_match_recorded_digests() {
    let policies = [
        ("Dyn-HP", DfsConfig::highest_priority()),
        (
            "Dyn-500",
            DfsConfig::uniform_target(500, SimDuration::from_hours(1)),
        ),
        (
            "Dyn-100",
            DfsConfig::uniform_target(100, SimDuration::from_hours(1)),
        ),
    ];
    let mut actual = Vec::new();
    for (label, dfs) in &policies {
        for variant in ["plain", "shrink+preempt+grow", "partition"] {
            for seed in [1u64, 2014] {
                actual.push((*label, variant, seed, digests(dfs, variant, seed)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(p, v, s, [a, b, c])| {
            format!("    (\"{p}\", \"{v}\", {s}, [{a:#018x}, {b:#018x}, {c:#018x}]),\n")
        })
        .collect();
    assert!(actual == PINS, "decisions moved; current table:\n{table}");
}
