//! Crash-recovery properties for the journaled job server: for ANY tenant
//! queue and ANY crash point, a server killed mid-queue by a `crash@N` fault
//! clause and restarted with `--recover` semantics must (a) have journaled
//! exactly the grant-log prefix the uncrashed oracle would have produced,
//! (b) serve every tenant a byte-identical outcome to the oracle, and
//! (c) never re-run a job whose result was already journaled.
//!
//! The crash mechanism is deterministic (the fault plan counts scheduler
//! grants, not wall time), so every case in the sweep is reproducible.

use adaptive_spatial_join::engine::{
    CheckpointStore, Cluster, ClusterConfig, FaultPlan, Journal, RetryPolicy, SchedPolicy,
    ShuffleStats,
};
use adaptive_spatial_join::join::Algorithm;
use adaptive_spatial_join::serve::{run_queue, run_queue_recoverable, RecoveryOptions, TenantSpec};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Fault plans tenants may carry *in addition to* the server-level crash:
/// recovery has to compose with ordinary retry/slowdown faults.
const FAULT_MENU: &[&str] = &["p=0.15", "p=0.1,slow:1=2.0"];

#[derive(Debug, Clone)]
struct GenTenant {
    algo_idx: usize,
    cardinality: usize,
    eps: f64,
    seed: u64,
    weight: u32,
    fault_idx: usize,
    fault_seed: u64,
}

/// The generated algorithm pool: the six figure algorithms plus the
/// distributed-dedup variant, whose *post-join* dedup stage is the only
/// workload shape where a crash can strand a completed join in an
/// in-flight job (the window join-phase checkpoints close).
const ALGO_POOL: [Algorithm; 7] = [
    Algorithm::Lpib,
    Algorithm::Diff,
    Algorithm::UniR,
    Algorithm::UniS,
    Algorithm::EpsGrid,
    Algorithm::Sedona,
    Algorithm::LpibDedup,
];

fn tenant_strategy() -> impl Strategy<Value = GenTenant> {
    (
        0usize..ALGO_POOL.len(),
        80usize..200,
        0.2f64..0.8,
        any::<u64>(),
        1u32..4,
        0usize..FAULT_MENU.len() + 1,
        any::<u64>(),
    )
        .prop_map(
            |(algo_idx, cardinality, eps, seed, weight, fault_idx, fault_seed)| GenTenant {
                algo_idx,
                cardinality,
                eps,
                seed,
                weight,
                fault_idx,
                fault_seed,
            },
        )
}

fn materialize(tenants: &[GenTenant]) -> Vec<TenantSpec> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut t = TenantSpec::new(format!("t{i}"), g.eps, g.cardinality);
            t.algorithm = ALGO_POOL[g.algo_idx];
            t.seed = g.seed;
            t.weight = g.weight;
            t.partitions = 6;
            // Index 0 is the fault-free arm; the rest draw from the menu.
            t.faults = g
                .fault_idx
                .checked_sub(1)
                .map(|i| FAULT_MENU[i].to_string());
            t.fault_seed = g.fault_seed;
            if t.faults.is_some() {
                t.max_attempts = Some(8);
            }
            t
        })
        .collect()
}

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::with_threads(nodes, 2))
}

/// A per-case scratch directory for the journal and checkpoints. Proptest
/// cases within one test run sequentially, so a case counter keeps legs
/// from different cases apart while staying deterministic.
fn scratch(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asj-recovery-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline recovery property, swept across queues AND crash
    /// points: crash + recover == never crashed, byte for byte.
    #[test]
    fn any_crash_point_recovers_byte_identically(
        tenants in prop::collection::vec(tenant_strategy(), 2..4),
        nodes in 2usize..4,
        crash_pick in any::<u64>(),
        case in any::<u64>(),
    ) {
        let specs = materialize(&tenants);
        let oracle = run_queue(&cluster(nodes), &specs, SchedPolicy::FairShare)
            .expect("oracle run");
        prop_assert!(oracle.grants.len() >= 2, "queue too small to crash");

        // Any grant boundary strictly before the end is a valid crash point.
        let crash_at = 1 + crash_pick % (oracle.grants.len() as u64 - 1);
        let dir = scratch("sweep", case);
        let journal = dir.join("server.journal");

        let crash_cluster = cluster(nodes).with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        );
        let opts = RecoveryOptions {
            journal: Some(journal.clone()),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        };
        let crashed =
            run_queue_recoverable(&crash_cluster, &specs, SchedPolicy::FairShare, &opts)
                .expect("crashing run");
        prop_assert!(crashed.crashed, "crash clause must fire");
        // Write-ahead invariant: what reached the journal is exactly the
        // prefix of the oracle's grant log up to the crash point.
        prop_assert_eq!(
            &crashed.grants[..],
            &oracle.grants[..crash_at as usize],
            "crashed grant log must be an oracle prefix"
        );

        let opts = RecoveryOptions {
            journal: Some(journal),
            checkpoint_dir: Some(dir.clone()),
            recover: true,
            compact_every: None,
        };
        let recovered =
            run_queue_recoverable(&cluster(nodes), &specs, SchedPolicy::FairShare, &opts)
                .expect("recovered run");
        prop_assert!(!recovered.crashed);
        prop_assert_eq!(
            &recovered.journal_grants[..],
            &oracle.grants[..crash_at as usize],
            "recovery must preserve the journaled grant prefix"
        );
        for (a, b) in oracle.tenants.iter().zip(&recovered.tenants) {
            prop_assert_eq!(
                a.outcome.as_ref().expect("oracle ok"),
                b.outcome.as_ref().expect("recovered ok"),
                "tenant '{}' must recover byte-identically", a.name
            );
        }
        // A journaled result is replayed, never recomputed: every replayed
        // tenant reports zero stages run in the recovery leg.
        for report in &recovered.tenants {
            if report.recovered {
                prop_assert_eq!(report.stages, 0, "replayed tenant re-ran stages");
                prop_assert_eq!(report.attempts, 0, "replayed tenant re-ran tasks");
            }
        }

        let _ = std::fs::remove_dir_all(dir);
    }

    /// Compaction transparency, swept across queues, crash points and
    /// crash-during-maintenance debris: recovering from a *compacted*
    /// journal must be indistinguishable from recovering from the
    /// uncompacted original — identical journaled grant prefix, identical
    /// byte-for-byte outcomes — even when the compaction finds the wreckage
    /// of a crash that hit mid-GC (a checkpoint's segment unlinked but its
    /// manifest still present) or mid-compaction (a stale rewrite temp
    /// file).
    #[test]
    fn compaction_is_transparent_to_recovery(
        tenants in prop::collection::vec(tenant_strategy(), 2..4),
        nodes in 2usize..4,
        crash_pick in any::<u64>(),
        crash_mid_gc in any::<bool>(),
        crash_mid_compaction in any::<bool>(),
        case in any::<u64>(),
    ) {
        let specs = materialize(&tenants);
        let oracle = run_queue(&cluster(nodes), &specs, SchedPolicy::FairShare)
            .expect("oracle run");
        prop_assert!(oracle.grants.len() >= 2, "queue too small to crash");
        let crash_at = 1 + crash_pick % (oracle.grants.len() as u64 - 1);

        // One crash leg produces the durable state both recoveries start
        // from; the copy is taken before either recovery mutates anything.
        let dir_a = scratch("compact-a", case);
        let journal_a = dir_a.join("server.journal");
        let crash_cluster = cluster(nodes).with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        );
        let crashed = run_queue_recoverable(
            &crash_cluster,
            &specs,
            SchedPolicy::FairShare,
            &RecoveryOptions {
                journal: Some(journal_a.clone()),
                checkpoint_dir: Some(dir_a.clone()),
                recover: false,
                compact_every: None,
            },
        )
        .expect("crashing run");
        prop_assert!(crashed.crashed, "crash clause must fire");

        let dir_b = scratch("compact-b", case);
        copy_dir_files(&dir_a, &dir_b);
        let journal_b = dir_b.join("server.journal");

        // Simulate a crash *during* retention GC: the delete order is
        // segment first, so the worst interleaving leaves a manifest whose
        // segment is gone. Recovery must self-heal it into a miss.
        if crash_mid_gc {
            let seg = std::fs::read_dir(&dir_b)
                .expect("read dir_b")
                .flatten()
                .map(|e| e.path())
                .find(|p| p.extension().is_some_and(|e| e == "seg"));
            if let Some(seg) = seg {
                std::fs::remove_file(seg).expect("unlink seg");
            }
        }
        // Simulate a crash *during* a previous compaction attempt: the
        // atomic rewrite never renamed, leaving only its temp file, which
        // the next compaction (and recovery) must ignore and replace.
        if crash_mid_compaction {
            std::fs::write(
                journal_b.with_extension("compact.tmp"),
                b"{\"type\":\"torn",
            )
            .expect("write tmp debris");
        }
        let stats = Journal::compact_file(&journal_b).expect("compact crashed journal");
        // A crashed journal may have nothing droppable (no done records
        // yet), in which case the only growth allowed is the compact
        // marker line itself.
        prop_assert!(
            stats.dropped > 0 || stats.bytes_after <= stats.bytes_before + 128,
            "compaction dropped nothing yet grew {} -> {} bytes",
            stats.bytes_before, stats.bytes_after
        );
        prop_assert!(
            !journal_b.with_extension("compact.tmp").exists(),
            "compaction leaves no temp debris"
        );

        // Recover both: A from the untouched original, B from the
        // compacted (and possibly debris-ridden) copy.
        let recover = |journal: PathBuf, dir: PathBuf| {
            run_queue_recoverable(
                &cluster(nodes),
                &specs,
                SchedPolicy::FairShare,
                &RecoveryOptions {
                    journal: Some(journal),
                    checkpoint_dir: Some(dir),
                    recover: true,
                    compact_every: None,
                },
            )
            .expect("recovered run")
        };
        let rec_a = recover(journal_a, dir_a.clone());
        let rec_b = recover(journal_b, dir_b.clone());
        prop_assert!(!rec_a.crashed && !rec_b.crashed);

        // Identical grant-log prefix — the compacted journal must read as
        // the same era the uncompacted one ends in.
        prop_assert_eq!(
            &rec_a.journal_grants[..],
            &oracle.grants[..crash_at as usize],
            "uncompacted recovery must see the oracle prefix"
        );
        prop_assert_eq!(
            &rec_b.journal_grants[..],
            &rec_a.journal_grants[..],
            "compaction must preserve the journaled grant prefix"
        );
        // Byte-identical outcomes, both ways.
        for (a, b) in rec_a.tenants.iter().zip(&rec_b.tenants) {
            prop_assert_eq!(
                a.outcome.as_ref().expect("uncompacted ok"),
                b.outcome.as_ref().expect("compacted ok"),
                "tenant '{}' must recover identically through compaction", a.name
            );
        }
        for (o, b) in oracle.tenants.iter().zip(&rec_b.tenants) {
            prop_assert_eq!(
                o.outcome.as_ref().expect("oracle ok"),
                b.outcome.as_ref().expect("compacted ok"),
                "tenant '{}' must match the oracle", o.name
            );
        }
        // Tenants replayed from the journal must match too — compaction
        // hoists done records, it never drops them.
        let replayed_a: Vec<bool> = rec_a.tenants.iter().map(|t| t.recovered).collect();
        let replayed_b: Vec<bool> = rec_b.tenants.iter().map(|t| t.recovered).collect();
        prop_assert_eq!(replayed_a, replayed_b);

        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
    }
}

/// Copies every regular file directly under `src` into `dst` (the journal
/// plus the checkpoint manifests/segments — exactly what a crashed server
/// leaves durable).
fn copy_dir_files(src: &Path, dst: &Path) {
    for entry in std::fs::read_dir(src).expect("read src").flatten() {
        let path = entry.path();
        if path.is_file() {
            std::fs::copy(&path, dst.join(entry.file_name())).expect("copy file");
        }
    }
}

/// Deterministic anchor alongside the sweep: crash late enough that the
/// recovery leg demonstrably reuses checkpoints (`stages_recovered > 0`)
/// rather than merely replaying journaled results.
#[test]
fn late_crash_resumes_from_checkpoints() {
    let mut specs = materialize(&[
        GenTenant {
            algo_idx: 0,
            cardinality: 400,
            eps: 0.5,
            seed: 11,
            weight: 1,
            fault_idx: 0,
            fault_seed: 0,
        },
        GenTenant {
            algo_idx: 2,
            cardinality: 300,
            eps: 0.4,
            seed: 23,
            weight: 2,
            fault_idx: 0,
            fault_seed: 0,
        },
    ]);
    specs[0].partitions = 8;
    let oracle = run_queue(&cluster(3), &specs, SchedPolicy::FairShare).expect("oracle");

    // Two grants shy of completion: at least one tenant has checkpointed
    // shuffle stages, at least one is unfinished.
    let crash_at = (oracle.grants.len() as u64).saturating_sub(2).max(1);
    let dir = scratch("anchor", 0);
    let journal = dir.join("server.journal");
    let crash_cluster = cluster(3).with_fault_policy(
        FaultPlan::none().with_crash_after_grants(crash_at),
        RetryPolicy::default(),
    );
    let crashed = run_queue_recoverable(
        &crash_cluster,
        &specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(journal.clone()),
            checkpoint_dir: Some(dir.clone()),
            recover: false,
            compact_every: None,
        },
    )
    .expect("crashing run");
    assert!(crashed.crashed);
    assert!(
        crashed.checkpoint_bytes > 0,
        "late crash must have checkpointed"
    );

    let recovered = run_queue_recoverable(
        &cluster(3),
        &specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(journal),
            checkpoint_dir: Some(dir.clone()),
            recover: true,
            compact_every: None,
        },
    )
    .expect("recovered run");
    assert!(
        recovered.stages_recovered > 0,
        "recovery must reuse checkpoints"
    );
    // Checkpoint reuse is the whole point: the recovery leg re-runs strictly
    // fewer tasks than the oracle needed for the full queue.
    let oracle_attempts: u64 = oracle.tenants.iter().map(|t| t.attempts).sum();
    let recovered_attempts: u64 = recovered.tenants.iter().map(|t| t.attempts).sum();
    assert!(
        recovered_attempts < oracle_attempts,
        "recovery re-ran {recovered_attempts} of {oracle_attempts} oracle attempts"
    );
    for (a, b) in oracle.tenants.iter().zip(&recovered.tenants) {
        assert_eq!(
            a.outcome.as_ref().expect("oracle ok"),
            b.outcome.as_ref().expect("recovered ok"),
            "tenant '{}' must recover byte-identically",
            a.name
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A checkpoint dir written by an older build can still hold per-partition
/// `{key}-p{N}` join records and manifest-only `{key}-shuffle` stats records.
/// No stage reads those keys: recovery must resume exactly as it does from
/// the same dir without them, serve byte-identical results, and the per-job
/// retention GC must still delete them.
#[test]
fn old_partition_and_stats_records_are_ignored_and_collected() {
    let specs = materialize(&[
        GenTenant {
            algo_idx: 0,
            cardinality: 400,
            eps: 0.5,
            seed: 11,
            weight: 1,
            fault_idx: 0,
            fault_seed: 0,
        },
        GenTenant {
            algo_idx: 4,
            cardinality: 300,
            eps: 0.4,
            seed: 23,
            weight: 2,
            fault_idx: 0,
            fault_seed: 0,
        },
        GenTenant {
            algo_idx: 2,
            cardinality: 250,
            eps: 0.4,
            seed: 5,
            weight: 1,
            fault_idx: 0,
            fault_seed: 0,
        },
    ]);
    let oracle = run_queue(&cluster(3), &specs, SchedPolicy::FairShare).expect("oracle");
    let crash_at = (oracle.grants.len() as u64 / 2).max(1);
    let crashed_dir = scratch("old-records-crash", 0);
    let crashed = run_queue_recoverable(
        &cluster(3).with_fault_policy(
            FaultPlan::none().with_crash_after_grants(crash_at),
            RetryPolicy::default(),
        ),
        &specs,
        SchedPolicy::FairShare,
        &RecoveryOptions {
            journal: Some(crashed_dir.join("server.journal")),
            checkpoint_dir: Some(crashed_dir.clone()),
            recover: false,
            compact_every: None,
        },
    )
    .expect("crashing run");
    assert!(crashed.crashed);

    // Two copies of the crashed state: a control, and one seeded with the
    // old record shapes for every job's first join stage. The seeded join
    // records carry wrong pairs and a wrong result count, so reading any of
    // them would change the recovered outcome.
    let recover_from = |tag: &str, seed_old_records: bool| {
        let dir = scratch(tag, 0);
        copy_dir_files(&crashed_dir, &dir);
        let mut seeded: Vec<String> = Vec::new();
        if seed_old_records {
            let store = CheckpointStore::open(&dir).expect("open store");
            // (u64, u64, u64) x 2 + (u64, u64): the 8-word wire shape of the
            // join stage's per-partition tally.
            type Tally = ((u64, u64, u64), (u64, u64, u64), (u64, u64));
            for (job, spec) in specs.iter().enumerate() {
                let key = format!("job{job}-cogroup_join-0");
                for part in 0..spec.partitions {
                    let record: (Vec<(u64, u64)>, Tally) = (
                        vec![(u64::MAX, u64::MAX)],
                        ((1, 1_000_000, 1), (0, 0, 0), (0, 0)),
                    );
                    let part_key = format!("{key}-p{part}");
                    store
                        .save_join(&part_key, std::slice::from_ref(&record))
                        .expect("seed partition record");
                    seeded.push(part_key);
                }
                let stats_key = format!("{key}-shuffle");
                store
                    .save::<u64, u64>(&stats_key, &[], &ShuffleStats::default())
                    .expect("seed stats record");
                seeded.push(stats_key);
            }
        }
        let recovered = run_queue_recoverable(
            &cluster(3),
            &specs,
            SchedPolicy::FairShare,
            &RecoveryOptions {
                journal: Some(dir.join("server.journal")),
                checkpoint_dir: Some(dir.clone()),
                recover: true,
                compact_every: None,
            },
        )
        .expect("recovered run");
        assert!(!recovered.crashed);
        (dir, seeded, recovered)
    };
    let (control_dir, _, control) = recover_from("old-records-control", false);
    let (dir, seeded, recovered) = recover_from("old-records-seeded", true);

    assert_eq!(recovered.stages_recovered, control.stages_recovered);
    assert_eq!(recovered.journal_grants, control.journal_grants);
    assert_eq!(recovered.grants, control.grants);
    for ((o, c), r) in oracle
        .tenants
        .iter()
        .zip(&control.tenants)
        .zip(&recovered.tenants)
    {
        assert_eq!(
            r.attempts, c.attempts,
            "tenant '{}' re-ran different work",
            o.name
        );
        assert_eq!(r.recovered, c.recovered);
        assert_eq!(
            o.outcome.as_ref().expect("oracle ok"),
            r.outcome.as_ref().expect("recovered ok"),
            "tenant '{}' must recover byte-identically",
            o.name
        );
    }

    // Jobs that completed in the recovery leg were collected by the server's
    // retention GC; jobs replayed from the journal never re-run, so collect
    // their scopes explicitly. Either way, no seeded record survives.
    let store = CheckpointStore::open(&dir).expect("reopen store");
    for (job, tenant) in recovered.tenants.iter().enumerate() {
        if tenant.recovered {
            assert!(store.gc_scope(&format!("job{job}")).expect("gc") > 0);
        }
    }
    for key in &seeded {
        assert!(
            !dir.join(format!("{key}.manifest")).exists(),
            "{key}.manifest survived GC"
        );
        assert!(
            !dir.join(format!("{key}.seg")).exists(),
            "{key}.seg survived GC"
        );
    }
    for d in [crashed_dir, control_dir, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
}
