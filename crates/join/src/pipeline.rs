use crate::{JoinOutput, JoinSpec, Record};
use asj_core::{AgreementPolicy, KernelKind};
use asj_engine::{
    ensure_remaining, Cluster, Dataset, ExecStats, KeyedDataset, Partitioner, ShuffleStats, Wire,
    WireError,
};
use asj_geom::Point;
use asj_index::{kernels, PointBatch};
use bytes::{Buf, BufMut};

/// Every join algorithm of the paper's evaluation, dispatchable by name —
/// the benchmark harness iterates over these to produce each figure's
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Adaptive replication, LPiB instantiation.
    Lpib,
    /// Adaptive replication, DIFF instantiation.
    Diff,
    /// PBSM universally replicating R.
    UniR,
    /// PBSM universally replicating S.
    UniS,
    /// ε×ε grid replicating the smaller input.
    EpsGrid,
    /// QuadTree partitioning + per-partition R-tree (Sedona-like).
    Sedona,
    /// LPiB with an unmarked (duplicate-producing) graph and the paper's
    /// distributed-dedup operator bolted on — Table 6's comparison arm.
    /// Not part of [`Algorithm::ALL`] (the figures list six algorithms);
    /// its distinguishing property for the serve stack is a *post-join*
    /// stage, so a crash can land between a completed join and job
    /// completion — the window join-phase checkpoints exist for.
    LpibDedup,
}

impl Algorithm {
    /// The six algorithms in the order the paper's figures list them.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Lpib,
        Algorithm::Diff,
        Algorithm::UniR,
        Algorithm::UniS,
        Algorithm::EpsGrid,
        Algorithm::Sedona,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Lpib => "LPiB",
            Algorithm::Diff => "DIFF",
            Algorithm::UniR => "UNI(R)",
            Algorithm::UniS => "UNI(S)",
            Algorithm::EpsGrid => "eps-grid",
            Algorithm::Sedona => "Sedona",
            Algorithm::LpibDedup => "LPiB+dedup",
        }
    }

    /// Runs this algorithm on the given inputs.
    pub fn run(
        self,
        cluster: &Cluster,
        spec: &JoinSpec,
        r: Vec<Record>,
        s: Vec<Record>,
    ) -> JoinOutput {
        match self {
            Algorithm::Lpib => crate::adaptive_join(cluster, spec, AgreementPolicy::Lpib, r, s),
            Algorithm::Diff => crate::adaptive_join(cluster, spec, AgreementPolicy::Diff, r, s),
            Algorithm::UniR => crate::pbsm_join(cluster, spec, crate::ReplicateSide::R, r, s),
            Algorithm::UniS => crate::pbsm_join(cluster, spec, crate::ReplicateSide::S, r, s),
            Algorithm::EpsGrid => crate::eps_grid_join(cluster, spec, r, s),
            Algorithm::Sedona => crate::sedona_like_join(cluster, spec, r, s),
            Algorithm::LpibDedup => {
                crate::adaptive_join_dedup(cluster, spec, AgreementPolicy::Lpib, r, s)
            }
        }
    }
}

/// Spatial-mapping stage: routes every record to the cell keys chosen by
/// `assign` (Spark's `flatMapToPair`). Returns the keyed dataset, the number
/// of replicas (pairs emitted beyond one per record) and the stage's
/// execution stats.
pub(crate) fn map_stage<F>(
    cluster: &Cluster,
    input: Dataset<Record>,
    assign: F,
) -> (KeyedDataset<u64, Record>, u64, ExecStats)
where
    F: Fn(Point, &mut Vec<u64>, &mut Vec<asj_grid::CellCoord>) + Sync,
{
    let records_in: u64 = input.len() as u64;
    cluster.recorder().phase_attrs("marking", |attrs| {
        let (parts, stats) = cluster.run_partitioned_stage(
            "marking",
            input.into_partitions(),
            |_, part: Vec<Record>| {
                let mut out: Vec<(u64, Record)> = Vec::with_capacity(part.len() + part.len() / 8);
                let mut cells: Vec<u64> = Vec::with_capacity(4);
                let mut scratch: Vec<asj_grid::CellCoord> = Vec::with_capacity(4);
                for rec in part {
                    cells.clear();
                    assign(rec.point, &mut cells, &mut scratch);
                    debug_assert!(!cells.is_empty(), "every record must map to >= 1 cell");
                    // Clone for the replicas, move the original into the last.
                    for &c in &cells[1..] {
                        out.push((c, rec.clone()));
                    }
                    out.push((cells[0], rec));
                }
                out
            },
        );
        let keyed = KeyedDataset::from_partitions(parts);
        let replicas = keyed.len() as u64 - records_in;
        *attrs = attrs.records(records_in).cells(replicas);
        cluster
            .recorder()
            .counter_add("marking", "replicas", replicas);
        (keyed, replicas, stats)
    })
}

/// Shuffle + partition-local join with immediate refinement (Algorithm 5,
/// line 9). Returns pairs (if collected), result/candidate counts, combined
/// shuffle stats, and the exec stats of the shuffle and join stages.
pub(crate) fn join_stage<P>(
    cluster: &Cluster,
    spec: &JoinSpec,
    keyed_r: KeyedDataset<u64, Record>,
    keyed_s: KeyedDataset<u64, Record>,
    partitioner: &P,
) -> JoinStageOutput
where
    P: Partitioner<u64> + ?Sized,
{
    let recorder = cluster.recorder().clone();
    let placement: Vec<usize> = (0..partitioner.num_partitions())
        .map(|p| cluster.node_of_partition(p))
        .collect();
    let eps = spec.eps;
    let collect = spec.collect_pairs;
    let kernel = spec.kernel;
    let model = cluster.kernel_cost_model(kernels::calibrate_cost_model);
    // Candidate/result counts fold into a per-partition accumulator that is
    // committed with the task output: shared atomics here would be
    // double-counted by retried or speculatively re-executed tasks.
    //
    // Each task co-groups its two shuffled partitions into columnar
    // `PointBatch`es once: both sides are radix-sorted on the cell key and
    // only the cells both sides occupy (the only ones Algorithm 5 joins)
    // are gathered, each group's `x`/`y`/`id` lanes in ascending-x order.
    // Group `g` of the two batches shares one key, so the SoA kernel runs
    // per group, streaming contiguous memory.
    type CellGroup = Vec<(u64, Record)>;
    let body = |_: usize, (rs, ss): (CellGroup, CellGroup)| {
        let (br, bs) = PointBatch::co_grouped(&rs, &ss, |r: &Record| r.point, |r: &Record| r.id);
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut acc = KernelTally {
            batches: 2,
            batch_points: (br.num_points() + bs.num_points()) as u64,
            ..KernelTally::default()
        };
        for g in 0..br.num_groups() {
            let (va, vb) = (br.group(g), bs.group(g));
            let (ids_a, ids_b) = (br.group_ids(g), bs.group_ids(g));
            let outcome = kernels::local_join_view(kernel, &model, eps, va, vb, |i, j| {
                if collect {
                    out.push((ids_a[i], ids_b[j]));
                }
            });
            acc.record(outcome, va.len() as u64 * vb.len() as u64);
        }
        (out, acc)
    };

    let (keyed_r, keyed_s, shuffle, shuffle_exec) = recorder.phase_attrs("shuffle", |attrs| {
        let (keyed_r, sh_r, ex_r) = keyed_r.shuffle_stage(cluster, partitioner, "shuffle.R");
        let (keyed_s, sh_s, ex_s) = keyed_s.shuffle_stage(cluster, partitioner, "shuffle.S");
        let mut shuffle = sh_r;
        shuffle.merge(&sh_s);
        let mut shuffle_exec = ex_r;
        shuffle_exec.accumulate(&ex_s);
        *attrs = attrs.records(shuffle.records).bytes(shuffle.total_bytes());
        (keyed_r, keyed_s, shuffle, shuffle_exec)
    });
    assert_eq!(
        keyed_r.num_partitions(),
        keyed_s.num_partitions(),
        "joined datasets must share the partitioner"
    );
    let tasks: Vec<(CellGroup, CellGroup)> = keyed_r
        .into_partitions()
        .into_iter()
        .zip(keyed_s.into_partitions())
        .collect();
    // `run_placed_stage_checkpointed`: with a checkpoint store attached
    // the per-partition `(pairs, tally)` outputs are persisted after the
    // stage and replayed on recovery, so a recovered server skips the
    // join phase — the ε-grid's memory-pressure peak — entirely, not
    // just the shuffles.
    let (folded, join_exec) = recorder.phase("local_join", || {
        cluster.run_placed_stage_checkpointed("cogroup_join", tasks, &placement, body)
    });
    let mut tally = KernelTally::default();
    let mut pairs = Vec::with_capacity(folded.iter().map(|(part, _)| part.len()).sum());
    for (part, t) in folded {
        tally.merge(&t);
        pairs.extend(part);
    }
    tally.publish(cluster, "local_join");
    JoinStageOutput {
        pairs,
        result_count: tally.results,
        candidates: tally.candidates,
        shuffle,
        shuffle_exec,
        join_exec,
    }
}

/// Per-partition fold of what the adaptive kernel layer did: counts, the
/// resolved-kernel picks, and the worst-case `Σ r·s` the nested loop would
/// have evaluated (so pruning is observable).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelTally {
    pub candidates: u64,
    pub results: u64,
    /// `Σ |R_i|·|S_i|` over the groups — the nested-loop candidate count.
    pub worst_case: u64,
    pub picks_nl: u64,
    pub picks_ps: u64,
    pub picks_bucket: u64,
    /// Columnar batches built at shuffle-receive time (two per partition).
    pub batches: u64,
    /// Points gathered into those batches' SoA lanes: only the points in
    /// cells both sides occupy.
    pub batch_points: u64,
}

impl KernelTally {
    pub fn record(&mut self, outcome: kernels::LocalJoinOutcome, worst_case: u64) {
        self.candidates += outcome.stats.candidates;
        self.results += outcome.stats.results;
        self.worst_case += worst_case;
        match outcome.kind {
            KernelKind::NestedLoop => self.picks_nl += 1,
            KernelKind::PlaneSweep => self.picks_ps += 1,
            KernelKind::GridBucket => self.picks_bucket += 1,
        }
    }

    pub fn merge(&mut self, other: &KernelTally) {
        self.candidates += other.candidates;
        self.results += other.results;
        self.worst_case += other.worst_case;
        self.picks_nl += other.picks_nl;
        self.picks_ps += other.picks_ps;
        self.picks_bucket += other.picks_bucket;
        self.batches += other.batches;
        self.batch_points += other.batch_points;
    }

    /// The tally's eight counters in field order — one place to keep the
    /// wire layout and the struct in sync.
    fn fields(&self) -> [u64; 8] {
        [
            self.candidates,
            self.results,
            self.worst_case,
            self.picks_nl,
            self.picks_ps,
            self.picks_bucket,
            self.batches,
            self.batch_points,
        ]
    }

    /// Publishes the tally as observability counters under `phase`.
    pub fn publish(&self, cluster: &Cluster, phase: &str) {
        let recorder = cluster.recorder();
        recorder.counter_add(phase, "candidates", self.candidates);
        recorder.counter_add(phase, "results", self.results);
        recorder.counter_add(phase, "kernel_auto_nl", self.picks_nl);
        recorder.counter_add(phase, "kernel_auto_ps", self.picks_ps);
        recorder.counter_add(phase, "kernel_auto_bucket", self.picks_bucket);
        recorder.counter_add(phase, "batches_built", self.batches);
        recorder.counter_add(phase, "batch_points", self.batch_points);
        recorder.counter_add(
            phase,
            "candidates_pruned",
            self.worst_case.saturating_sub(self.candidates),
        );
    }
}

/// Join-phase checkpointing serializes the per-partition accumulator next
/// to the emitted pairs: eight fixed-width little-endian `u64`s in field
/// order.
impl Wire for KernelTally {
    fn encoded_size(&self) -> usize {
        8 * std::mem::size_of::<u64>()
    }

    fn encode(&self, buf: &mut impl BufMut) {
        for field in self.fields() {
            field.encode(buf);
        }
    }

    fn try_decode(buf: &mut impl Buf) -> Result<Self, WireError> {
        ensure_remaining(buf, 8 * std::mem::size_of::<u64>())?;
        Ok(KernelTally {
            candidates: u64::decode(buf),
            results: u64::decode(buf),
            worst_case: u64::decode(buf),
            picks_nl: u64::decode(buf),
            picks_ps: u64::decode(buf),
            picks_bucket: u64::decode(buf),
            batches: u64::decode(buf),
            batch_points: u64::decode(buf),
        })
    }
}

pub(crate) struct JoinStageOutput {
    pub pairs: Vec<(u64, u64)>,
    pub result_count: u64,
    pub candidates: u64,
    pub shuffle: ShuffleStats,
    pub shuffle_exec: ExecStats,
    pub join_exec: ExecStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_engine::{ClusterConfig, HashPartitioner};
    use asj_geom::Rect;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::with_threads(2, 2))
    }

    #[test]
    fn map_stage_counts_replicas() {
        let c = cluster();
        let recs = crate::to_records(
            &[
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0),
            ],
            0,
        );
        // Every record goes to its id cell, even ids get one replica.
        let ds = Dataset::from_vec(recs, 2);
        let (keyed, replicas, _) = map_stage(&c, ds, |p, cells, _| {
            cells.push(p.x as u64);
            if (p.x as u64).is_multiple_of(2) {
                cells.push(100 + p.x as u64);
            }
        });
        assert_eq!(replicas, 2);
        assert_eq!(keyed.len(), 5);
    }

    #[test]
    fn join_stage_finds_pairs_in_shared_cells() {
        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 10.0, 10.0), 1.0);
        let r = crate::to_records(&[Point::new(1.0, 1.0), Point::new(8.0, 8.0)], 0);
        let s = crate::to_records(&[Point::new(1.5, 1.0), Point::new(4.0, 4.0)], 0);
        // Everything keyed to one cell: the kernel sees all candidates.
        let (kr, _, _) = map_stage(&c, Dataset::from_vec(r.clone(), 1), |_, cells, _| {
            cells.push(0)
        });
        let (ks, _, _) = map_stage(&c, Dataset::from_vec(s.clone(), 1), |_, cells, _| {
            cells.push(0)
        });
        // Default Auto resolves the tiny 2x2 group to a nested loop.
        let out = join_stage(&c, &spec, kr, ks, &HashPartitioner::new(4));
        assert_eq!(out.result_count, 1); // only (1,1)-(1.5,1) within eps
        assert_eq!(out.candidates, 4);
        assert_eq!(out.pairs, vec![(0, 0)]);
        assert_eq!(out.shuffle.records, 4);
        // An explicit plane-sweep request is honored: the epsilon window
        // prunes everything but the matching pair.
        let spec_ps = spec.with_kernel(crate::LocalKernel::PlaneSweep);
        let (kr, _, _) = map_stage(&c, Dataset::from_vec(r, 1), |_, cells, _| cells.push(0));
        let (ks, _, _) = map_stage(&c, Dataset::from_vec(s, 1), |_, cells, _| cells.push(0));
        let out_ps = join_stage(&c, &spec_ps, kr, ks, &HashPartitioner::new(4));
        assert_eq!(out_ps.result_count, 1);
        assert_eq!(out_ps.pairs, vec![(0, 0)]);
        assert_eq!(out_ps.candidates, 1, "sweep window must prune");
    }

    /// `join_stage` on keyed inputs against two references: the R-tree
    /// oracle for results and pairs, and per-side `from_keyed` batches
    /// joined by a key merge over the same shuffled partitions for the
    /// candidates, so `Auto` must have seen the same cell groups.
    fn check_against_references(
        c: &Cluster,
        spec: &JoinSpec,
        (r, s): (&[Record], &[Record]),
        (kr, ks): (KeyedDataset<u64, Record>, KeyedDataset<u64, Record>),
        what: &str,
    ) {
        let partitioner = HashPartitioner::new(8);
        let out = join_stage(c, spec, kr.clone(), ks.clone(), &partitioner);

        let (kr, _, _) = kr.shuffle(c, &partitioner);
        let (ks, _, _) = ks.shuffle(c, &partitioner);
        let model = c.kernel_cost_model(kernels::calibrate_cost_model);
        let (mut candidates, mut results, mut pairs) = (0, 0, Vec::new());
        for (pr, ps) in kr.into_partitions().iter().zip(&ks.into_partitions()) {
            let br = PointBatch::from_keyed(pr, |r: &Record| r.point, |r: &Record| r.id);
            let bs = PointBatch::from_keyed(ps, |r: &Record| r.point, |r: &Record| r.id);
            for (gi, key) in br.keys().iter().enumerate() {
                let Ok(gj) = bs.keys().binary_search(key) else {
                    continue;
                };
                let (ids_a, ids_b) = (br.group_ids(gi), bs.group_ids(gj));
                let outcome = kernels::local_join_view(
                    spec.kernel,
                    &model,
                    spec.eps,
                    br.group(gi),
                    bs.group(gj),
                    |i, j| pairs.push((ids_a[i], ids_b[j])),
                );
                candidates += outcome.stats.candidates;
                results += outcome.stats.results;
            }
        }
        pairs.sort_unstable();
        let mut got = out.pairs.clone();
        got.sort_unstable();
        assert_eq!(got, crate::oracle::rtree_pairs(r, s, spec.eps), "{what}");
        assert_eq!(got, pairs, "{what}");
        assert_eq!(out.result_count, results, "{what}");
        assert_eq!(out.result_count as usize, got.len(), "{what}");
        assert_eq!(out.candidates, candidates, "{what}");
    }

    #[test]
    fn join_stage_matches_oracles_for_lpib_and_uni_r() {
        use asj_core::{AgreementGraph, GridSample, SetLabel};
        use asj_grid::{CellCoord, Grid, GridSpec};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let c = cluster();
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 0.6);
        let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
        for seed in [3u64, 17, 101] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut points = |n: usize| -> Vec<Point> {
                // A dense corner next to a sparse field: cells with one side
                // only, and cells where `Auto` picks different kernels.
                (0..n)
                    .map(|i| {
                        let side = if i % 3 == 0 { 4.0 } else { 20.0 };
                        Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
                    })
                    .collect()
            };
            let r = crate::to_records(&points(700), 0);
            let s = crate::to_records(&points(500), 0);
            let keyed = |recs: &[Record], assign: &(dyn Fn(Point, &mut Vec<u64>) + Sync)| {
                let ds = Dataset::from_vec(recs.to_vec(), 4);
                map_stage(&c, ds, |p, cells, _| assign(p, cells)).0
            };

            let sample = GridSample::from_points(
                &grid,
                r.iter().map(|rec| rec.point),
                s.iter().map(|rec| rec.point),
            );
            let graph = AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib);
            let lpib = |label: SetLabel| {
                let (graph, grid) = (&graph, &grid);
                move |p: Point, cells: &mut Vec<u64>| {
                    let mut coords = Vec::new();
                    graph.assign(p, label, &mut coords);
                    cells.extend(coords.iter().map(|&c| grid.cell_index(c) as u64));
                }
            };
            let inputs = (keyed(&r, &lpib(SetLabel::R)), keyed(&s, &lpib(SetLabel::S)));
            check_against_references(&c, &spec, (&r, &s), inputs, &format!("LPiB seed {seed}"));

            let replicated = |p: Point, cells: &mut Vec<u64>| {
                let mut coords: Vec<CellCoord> = vec![grid.cell_of(p)];
                grid.push_cells_within_eps(p, &mut coords);
                cells.extend(coords.iter().map(|&c| grid.cell_index(c) as u64));
            };
            let single = |p: Point, cells: &mut Vec<u64>| {
                cells.push(grid.cell_index(grid.cell_of(p)) as u64);
            };
            let inputs = (keyed(&r, &replicated), keyed(&s, &single));
            check_against_references(&c, &spec, (&r, &s), inputs, &format!("UNI(R) seed {seed}"));
        }
    }

    #[test]
    fn kernel_tally_round_trips_over_the_wire() {
        let tally = KernelTally {
            candidates: 101,
            results: 7,
            worst_case: 10_000,
            picks_nl: 1,
            picks_ps: 2,
            picks_bucket: 3,
            batches: 4,
            batch_points: 555,
        };
        let mut buf = Vec::new();
        tally.encode(&mut buf);
        assert_eq!(buf.len(), tally.encoded_size());
        let got = KernelTally::try_decode(&mut buf.as_slice()).expect("decode");
        assert_eq!(got.fields(), tally.fields());
        assert!(
            KernelTally::try_decode(&mut &buf[..buf.len() - 1]).is_err(),
            "truncated tally is a decode error, not garbage"
        );
    }

    #[test]
    fn algorithm_names_match_paper() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["LPiB", "DIFF", "UNI(R)", "UNI(S)", "eps-grid", "Sedona"]
        );
    }
}

#[cfg(test)]
mod kernel_choice_tests {
    use super::*;
    use crate::{to_records, LocalKernel};
    use asj_core::AgreementPolicy;
    use asj_engine::ClusterConfig;
    use asj_geom::{Point, Rect};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Both local kernels produce identical result sets; the sweep evaluates
    /// fewer candidates.
    #[test]
    fn plane_sweep_kernel_matches_nested_loop() {
        let c = Cluster::new(ClusterConfig::with_threads(3, 2));
        let mut rng = StdRng::seed_from_u64(55);
        let pts = |rng: &mut StdRng, n: usize| -> Vec<Point> {
            (0..n)
                .map(|_| Point::new(rng.gen_range(0.0..15.0), rng.gen_range(0.0..15.0)))
                .collect()
        };
        let r = to_records(&pts(&mut rng, 400), 0);
        let s = to_records(&pts(&mut rng, 400), 0);
        let base = JoinSpec::new(Rect::new(0.0, 0.0, 15.0, 15.0), 0.8).with_partitions(8);
        let nl = crate::adaptive_join(
            &c,
            &base.clone().with_kernel(LocalKernel::NestedLoop),
            AgreementPolicy::Lpib,
            r.clone(),
            s.clone(),
        );
        let ps = crate::adaptive_join(
            &c,
            &base.with_kernel(LocalKernel::PlaneSweep),
            AgreementPolicy::Lpib,
            r,
            s,
        );
        let mut a = nl.pairs.clone();
        let mut b = ps.pairs.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(
            ps.candidates < nl.candidates,
            "sweep must prune: {} vs {}",
            ps.candidates,
            nl.candidates
        );
    }
}
