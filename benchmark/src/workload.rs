//! The three workloads: the inputs each one generates from the seed, the
//! operation it times, and the exact fingerprint every operation must repeat.

use asj_data::{Catalog, DatasetSpec, GenKind, PAPER_BBOX};
use asj_engine::{fnv1a, Cluster, ClusterConfig, JobMetrics, Wire};
use asj_geom::Point;
use asj_join::{to_records, Algorithm, JoinOutput, JoinSpec, Record};
use asj_serve::{calibrated_model_for, QueueRun, TenantOutcome, TenantSpec};
use std::time::{Duration, Instant};

/// Simulated worker nodes of every workload (the paper's default).
pub const NODES: usize = 12;
/// Shuffle partitions of the join workloads (the paper's default).
pub const PARTITIONS: usize = 96;

/// Join inputs are one partition of a fixed-layout dataset this many
/// partitions wide. The seed picks the partition, so every seed draws fresh
/// points while the cluster centres, rivers and lakes — the skew each
/// workload was chosen for — stay where the catalog put them. Re-seeding the
/// layout itself moved UNI(R)'s result count by ±15% and LPiB's replication
/// by ±13% between seeds, wider than any bound that could still catch a
/// regression.
const DRAWS: usize = 1 << 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FineLpib,
    CoarseUnir,
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FineLpib,
        Workload::CoarseUnir,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FineLpib => "fine-lpib",
            Workload::CoarseUnir => "coarse-unir",
            Workload::ServeDurable => "serve-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Percentile `op_wall_tail_ms` reports. Fixed per workload so that a
    /// faster commit, which fits more operations into the run, reports the
    /// same percentile: each is the highest level with ten samples beyond it
    /// at the operation counts measured when the benchmark was defined.
    pub fn tail_level(self) -> f64 {
        match self {
            Workload::FineLpib | Workload::CoarseUnir => 90.0,
            Workload::ServeDurable => 75.0,
        }
    }

    /// Joins one operation runs (tenants per queue on `serve-durable`).
    pub fn jobs_per_op(self) -> u64 {
        match self {
            Workload::ServeDurable => SERVE_TENANTS as u64,
            _ => 1,
        }
    }
}

/// Parameters of a join workload.
#[derive(Debug, Clone)]
pub struct JoinParams {
    pub algorithm: Algorithm,
    pub eps: f64,
    /// Payload bytes carried by every record.
    pub payload: usize,
    /// Whether timed joins materialize their result pairs.
    pub collect_pairs: bool,
    /// Layouts R and S are drawn from.
    pub r: DatasetSpec,
    pub s: DatasetSpec,
}

impl JoinParams {
    pub fn of(workload: Workload) -> Option<JoinParams> {
        match workload {
            Workload::FineLpib => {
                let catalog = Catalog::new(200_000);
                Some(JoinParams {
                    algorithm: Algorithm::Lpib,
                    eps: 0.05,
                    payload: 0,
                    collect_pairs: false,
                    r: catalog.s1,
                    s: DatasetSpec {
                        name: "U",
                        kind: GenKind::Uniform,
                        cardinality: 200_000,
                        seed: 404,
                        bbox: PAPER_BBOX,
                        sigma_scale: 1.0,
                    },
                })
            }
            Workload::CoarseUnir => {
                let catalog = Catalog::new(100_000);
                Some(JoinParams {
                    algorithm: Algorithm::UniR,
                    eps: 0.4,
                    payload: 64,
                    collect_pairs: true,
                    r: catalog.r1,
                    s: catalog.s1,
                })
            }
            Workload::ServeDurable => None,
        }
    }

    /// The join as a user would issue it: the paper's defaults plus this
    /// workload's ε, and no execution-mode settings.
    pub fn spec(&self) -> JoinSpec {
        let spec = JoinSpec::new(PAPER_BBOX, self.eps).with_partitions(PARTITIONS);
        if self.collect_pairs {
            spec
        } else {
            spec.counting_only()
        }
    }

    pub fn inputs(&self, seed: u64) -> (Vec<Record>, Vec<Record>) {
        (
            to_records(&draw(&self.r, seed), self.payload),
            to_records(&draw(&self.s, seed), self.payload),
        )
    }
}

/// The seed's draw from `layout`: `layout.cardinality` fresh points.
fn draw(layout: &DatasetSpec, seed: u64) -> Vec<Point> {
    let wide = DatasetSpec {
        cardinality: layout.cardinality * DRAWS,
        ..layout.clone()
    };
    wide.partition_points((seed % DRAWS as u64) as usize, DRAWS)
}

/// Tenants per `serve-durable` queue.
pub const SERVE_TENANTS: usize = 8;

/// The queue `repro multitenant` builds at full scale: one 50K-point
/// head-of-line tenant and seven 12.5K-point tenants, cycling LPiB, UNI(R),
/// DIFF and ε-grid over Gaussian and uniform data, tenant 2 under a seeded
/// `p=0.25` fault plan. It is written out here so the benchmark does not
/// move when the experiment harness is refactored.
///
/// The seed re-draws the uniform tenants' inputs. A Gaussian tenant's seed
/// also places its clusters, and re-seeding those moved the queue's result
/// count by 5x between seeds, so the Gaussian tenants keep the harness's
/// seeds, as the fault plan keeps its seed.
pub fn serve_tenants(seed: u64) -> Vec<TenantSpec> {
    const ALGOS: [Algorithm; 4] = [
        Algorithm::Lpib,
        Algorithm::UniR,
        Algorithm::Diff,
        Algorithm::EpsGrid,
    ];
    let base = 100_000;
    // The harness's ε at 100K points: the paper's 0.012 scaled to keep its
    // points-per-cell regime.
    let eps = 0.012 * (100_000_000.0_f64 / base as f64).sqrt() * 0.65;
    (0..SERVE_TENANTS)
        .map(|i| {
            let large = i == 0;
            let cardinality = if large { base / 2 } else { base / 8 };
            let mut t = TenantSpec::new(format!("tenant-{i:02}"), eps, cardinality);
            t.algorithm = ALGOS[i % ALGOS.len()];
            t.partitions = 24;
            t.weight = if large { 1 } else { 2 };
            if i % 2 == 0 {
                t.kind = GenKind::GaussianClusters;
                t.seed = 100 + 17 * i as u64;
            } else {
                t.kind = GenKind::Uniform;
                t.seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(2 * i as u64);
            }
            if i == 2 {
                t.faults = Some("p=0.25".to_string());
                t.fault_seed = 11;
                t.max_attempts = Some(6);
            }
            t
        })
        .collect()
}

/// A tenant's inputs exactly as the job server generates them (R from
/// `seed`, S from `seed + 1`).
pub fn tenant_inputs(t: &TenantSpec) -> (Vec<Record>, Vec<Record>) {
    let side = |seed: u64| {
        let points = DatasetSpec {
            name: "serve",
            kind: t.kind,
            cardinality: t.cardinality,
            seed,
            bbox: PAPER_BBOX,
            sigma_scale: 1.0,
        }
        .points();
        to_records(&points, t.payload as usize)
    };
    (side(t.seed), side(t.seed.wrapping_add(1)))
}

/// The join a tenant runs, as the job server builds it.
pub fn tenant_join_spec(t: &TenantSpec) -> JoinSpec {
    JoinSpec::new(PAPER_BBOX, t.eps)
        .with_partitions(t.partitions)
        .with_grid_factor(t.grid_factor)
        .with_kernel(t.kernel)
        .with_seed(t.seed)
}

/// Admission estimate the server will use for each tenant.
pub fn tenant_estimates(tenants: &[TenantSpec]) -> Vec<u64> {
    tenants
        .iter()
        .map(|t| {
            t.estimate_override
                .unwrap_or_else(|| calibrated_model_for(t).estimate(t, NODES))
        })
        .collect()
}

/// Everything one set-up builds: the inputs and the cluster they run on.
pub struct Setup {
    pub cluster: Cluster,
    pub inputs: Inputs,
    /// Input points one operation processes (both sides of every join).
    pub points_per_op: u64,
    /// Time spent generating points and building records.
    pub generate: Duration,
}

pub enum Inputs {
    Join {
        params: JoinParams,
        r: Vec<Record>,
        s: Vec<Record>,
    },
    Serve {
        tenants: Vec<TenantSpec>,
        /// Admission estimate per tenant.
        estimates: Vec<u64>,
        /// Each tenant's `(R, S)`, generated as the server will generate
        /// them, for the fault-free replica joins.
        data: Vec<(Vec<Record>, Vec<Record>)>,
    },
}

impl Setup {
    pub fn build(workload: Workload, seed: u64) -> Setup {
        match JoinParams::of(workload) {
            Some(params) => {
                let start = Instant::now();
                let (r, s) = params.inputs(seed);
                let generate = start.elapsed();
                Setup {
                    cluster: Cluster::new(ClusterConfig::new(NODES)),
                    points_per_op: (r.len() + s.len()) as u64,
                    generate,
                    inputs: Inputs::Join { params, r, s },
                }
            }
            None => {
                let tenants = serve_tenants(seed);
                let start = Instant::now();
                let data: Vec<_> = tenants.iter().map(tenant_inputs).collect();
                let generate = start.elapsed();
                let estimates = tenant_estimates(&tenants);
                // The harness's budget: the sum of the estimates, so every
                // tenant admits at once and waits measure scheduling alone.
                let budget = estimates.iter().sum::<u64>().max(1);
                let config = ClusterConfig::new(NODES).with_memory_budget(budget);
                Setup {
                    cluster: Cluster::new(config),
                    points_per_op: tenants.iter().map(|t| 2 * t.cardinality as u64).sum(),
                    generate,
                    inputs: Inputs::Serve {
                        tenants,
                        estimates,
                        data,
                    },
                }
            }
        }
    }

    /// FNV-1a over the wire encoding of every generated record.
    pub fn digest(&self) -> u64 {
        let sides: Vec<&[Record]> = match &self.inputs {
            Inputs::Join { r, s, .. } => vec![r, s],
            Inputs::Serve { data, .. } => data.iter().flat_map(|(r, s)| [&r[..], &s[..]]).collect(),
        };
        let mut buf = Vec::new();
        for rec in sides.into_iter().flatten() {
            rec.encode(&mut buf);
        }
        fnv1a(&buf)
    }
}

/// The exact counts and bytes of one join. Every operation of a run, traced
/// or not, must repeat them; only times may differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinPrint {
    pub results: u64,
    pub candidates: u64,
    pub replicated: u64,
    pub remote_bytes: u64,
    pub local_bytes: u64,
    pub shuffled_records: u64,
    pub peak_partition_bytes: u64,
    pub broadcast_bytes: u64,
    pub spilled_bytes: u64,
}

impl JoinPrint {
    pub fn of(out: &JoinOutput) -> JoinPrint {
        let m: &JobMetrics = &out.metrics;
        JoinPrint {
            results: out.result_count,
            candidates: out.candidates,
            replicated: out.replicated_total(),
            remote_bytes: m.shuffle.remote_bytes,
            local_bytes: m.shuffle.local_bytes,
            shuffled_records: m.shuffle.records,
            peak_partition_bytes: m.shuffle.peak_partition_bytes(),
            broadcast_bytes: m.broadcast_bytes,
            spilled_bytes: m.spilled_bytes(),
        }
    }
}

/// The exact outcome of one queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePrint {
    /// Per-tenant outcome, or the error it returned.
    pub outcomes: Vec<Result<TenantOutcome, String>>,
    pub residual_bytes: u64,
    pub crashed: bool,
    pub attempts: u64,
    pub retries: u64,
    pub stages: u64,
    pub checkpoint_bytes: u64,
}

impl QueuePrint {
    pub fn of(run: &QueueRun) -> QueuePrint {
        QueuePrint {
            outcomes: run.tenants.iter().map(|t| t.outcome.clone()).collect(),
            residual_bytes: run.tenants.iter().map(|t| t.residual_bytes).sum(),
            crashed: run.crashed,
            attempts: run.tenants.iter().map(|t| t.attempts).sum(),
            retries: run.tenants.iter().map(|t| t.retries).sum(),
            stages: run.tenants.iter().map(|t| t.stages).sum(),
            checkpoint_bytes: run.checkpoint_bytes,
        }
    }

    /// A queue succeeds when every tenant returned an outcome, nothing
    /// crashed and no bytes stayed resident.
    pub fn healthy(&self) -> bool {
        !self.crashed && self.residual_bytes == 0 && self.outcomes.iter().all(|o| o.is_ok())
    }

    pub fn replicated(&self) -> u64 {
        self.outcomes.iter().flatten().map(|o| o.replicated).sum()
    }

    pub fn results(&self) -> u64 {
        self.outcomes.iter().flatten().map(|o| o.result_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let a = Setup::build(w, 7);
            let b = Setup::build(w, 7);
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            assert_eq!(a.points_per_op, b.points_per_op);
        }
    }

    #[test]
    fn a_different_seed_gives_different_inputs() {
        for w in Workload::ALL {
            let a = Setup::build(w, 7);
            let b = Setup::build(w, 8);
            assert_ne!(a.digest(), b.digest(), "{}", w.name());
            assert_eq!(a.points_per_op, b.points_per_op, "same sizes");
        }
    }

    #[test]
    fn a_draw_keeps_the_cardinality_and_stays_in_the_box() {
        let layout = Catalog::new(1_000).r1;
        let points = draw(&layout, 3);
        assert_eq!(points.len(), layout.cardinality);
        assert!(points.iter().all(|p| PAPER_BBOX.contains(*p)));
        assert_ne!(points, draw(&layout, 4));
    }

    #[test]
    fn the_queue_matches_the_harness_mix() {
        let tenants = serve_tenants(1);
        assert_eq!(tenants.len(), SERVE_TENANTS);
        assert_eq!(tenants[0].cardinality, 50_000);
        assert!(tenants[1..].iter().all(|t| t.cardinality == 12_500));
        assert_eq!(tenants[2].faults.as_deref(), Some("p=0.25"));
        assert_eq!(tenants[3].algorithm, Algorithm::EpsGrid);
        // Only the uniform tenants' inputs follow the seed.
        let other = serve_tenants(2);
        for (a, b) in tenants.iter().zip(&other) {
            assert_eq!(a.seed == b.seed, a.kind == GenKind::GaussianClusters);
        }
    }
}
