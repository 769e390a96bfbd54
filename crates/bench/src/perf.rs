//! `repro perf` — the shuffle-path A/B benchmark behind the zero-copy radix
//! shuffle work.
//!
//! Two legs run the exact same shuffle-heavy workload:
//!
//! * **legacy** — the pre-optimization engine: tuple-`Vec` shuffle
//!   materialization ([`ShuffleMode::Legacy`]) and the hash-map
//!   [`ExplicitPartitioner`] probe (`new_sparse`).
//! * **radix** — the current default: per-target radix buckets through the
//!   cluster [`BufferPool`](asj_engine::BufferPool), single-pass byte
//!   metering and the dense-table partitioner fast path.
//!
//! The legacy leg doubles as the correctness oracle: the benchmark asserts
//! both legs produce *identical* [`ShuffleStats`] and partition contents
//! (element order included) and folds the shuffled output into an FNV-1a
//! checksum that CI gates on — any semantic drift in the radix path aborts
//! the run before a single timing line is printed. A second phase replays
//! every distributed algorithm on radix and legacy clusters and checks
//! results, replication counts and metered shuffle bytes match, plus one
//! materialized-pairs comparison.
//!
//! Results land in a machine-readable `BENCH_shuffle.json` (wall-clock,
//! simulated time, byte meters, pool counters, checksum) for the CI
//! `perf-smoke` job; override the path with `ASJ_BENCH_OUT`.
//!
//! [`join_perf`] then times one payload-heavy ε-grid join end to end and
//! writes `BENCH_perf.json`, whose result count and pair checksum CI diffs
//! against `results/BENCH_perf.baseline.json`.

use crate::runner::{run_once, NetModel};
use crate::{ExpConfig, Table};
use asj_data::{DatasetSpec, GenKind, PAPER_BBOX};
use asj_engine::{
    Cluster, ClusterConfig, ExplicitPartitioner, KeyedDataset, Partitioner, PoolStats, ShuffleMode,
    ShuffleStats,
};
use asj_join::{to_records, Algorithm, JoinSpec, Record};
use std::collections::HashMap;
use std::time::Instant;

/// Opaque payload carried by every benchmark record: large enough that the
/// shuffle moves real bytes (the paper's tuples carry geometry + attributes),
/// small enough that a quick CI run stays in memory comfortably.
pub(crate) const PAYLOAD_BYTES: usize = 64;

/// Cells per axis of the routing grid. 64×64 = 4096 contiguous cell keys —
/// the contiguous-id case the dense partitioner table exists for.
const GRID_CELLS: u64 = 64;

/// Everything `BENCH_shuffle.json` reports for one leg of the A/B.
#[derive(Debug, Clone)]
pub struct LegReport {
    pub mode: &'static str,
    /// Best-of-reps host wall time for the shuffle stage, seconds.
    pub wall_seconds: f64,
    /// Simulated stage time (makespan + modeled network transfer), seconds.
    pub sim_seconds: f64,
    pub remote_bytes: u64,
    pub total_bytes: u64,
    pub records: u64,
    /// Buffer-pool counters accumulated across all reps of this leg.
    pub pool: PoolStats,
}

/// The benchmark's full result set (also serialized to JSON).
#[derive(Debug, Clone)]
pub struct PerfReport {
    pub records: usize,
    pub sources: usize,
    pub targets: usize,
    pub nodes: usize,
    pub reps: usize,
    pub legacy: LegReport,
    pub radix: LegReport,
    /// `legacy.wall_seconds / radix.wall_seconds`.
    pub speedup: f64,
    /// FNV-1a of the shuffled output; identical for both legs by assertion.
    pub checksum: u64,
    /// Per-algorithm `(name, results, replicated, shuffle_bytes)` from the
    /// full-suite radix-vs-legacy equivalence sweep.
    pub suite: Vec<(String, u64, u64, u64)>,
}

/// FNV-1a 64-bit, folded over the shuffled partitions in order. Covers the
/// partition boundaries, every key, record id, coordinate bit pattern and
/// payload byte — any reordering or corruption moves the digest.
pub(crate) fn checksum_partitions(parts: &[Vec<(u64, Record)>]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn byte(h: &mut u64, b: u8) {
        *h ^= b as u64;
        *h = h.wrapping_mul(PRIME);
    }
    fn word(h: &mut u64, w: u64) {
        w.to_le_bytes().into_iter().for_each(|b| byte(h, b));
    }
    let mut h = OFFSET;
    for (i, part) in parts.iter().enumerate() {
        word(&mut h, 0xffff_0000_0000_0000 | i as u64);
        word(&mut h, part.len() as u64);
        for (key, rec) in part {
            word(&mut h, *key);
            word(&mut h, rec.id);
            word(&mut h, rec.point.x.to_bits());
            word(&mut h, rec.point.y.to_bits());
            word(&mut h, rec.payload.len() as u64);
            rec.payload.iter().for_each(|&b| byte(&mut h, b));
        }
    }
    h
}

/// The shuffle-heavy workload: `n` uniform points with opaque payloads,
/// keyed by routing-grid cell, split round-robin into `sources` map-side
/// partitions (round-robin input maximizes cross-partition traffic).
pub(crate) fn keyed_workload(n: usize, sources: usize) -> Vec<Vec<(u64, Record)>> {
    let points = DatasetSpec {
        name: "perf",
        kind: GenKind::Uniform,
        cardinality: n,
        seed: 4242,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    }
    .points();
    let records = to_records(&points, PAYLOAD_BYTES);
    let span_x = PAPER_BBOX.max_x - PAPER_BBOX.min_x;
    let span_y = PAPER_BBOX.max_y - PAPER_BBOX.min_y;
    let mut parts: Vec<Vec<(u64, Record)>> = (0..sources).map(|_| Vec::new()).collect();
    for (i, rec) in records.into_iter().enumerate() {
        let cx = (((rec.point.x - PAPER_BBOX.min_x) / span_x) * GRID_CELLS as f64) as u64;
        let cy = (((rec.point.y - PAPER_BBOX.min_y) / span_y) * GRID_CELLS as f64) as u64;
        let key = cx.min(GRID_CELLS - 1) * GRID_CELLS + cy.min(GRID_CELLS - 1);
        parts[i % sources].push((key, rec));
    }
    parts
}

/// LPT-flavored cell→partition assignment shared by both legs (the adaptive
/// join routes through exactly this kind of explicit map).
pub(crate) fn assignment(targets: usize) -> HashMap<u64, usize> {
    (0..GRID_CELLS * GRID_CELLS)
        .map(|cell| (cell, (cell as usize).wrapping_mul(7) % targets))
        .collect()
}

/// Times one leg: `reps` shuffles of a cloned input, best-of wall time.
/// Returns the shuffled partitions of the last rep for equivalence checks.
#[allow(clippy::type_complexity)]
fn time_leg(
    cluster: &Cluster,
    mode: &'static str,
    parts: &[Vec<(u64, Record)>],
    partitioner: &dyn Partitioner<u64>,
    reps: usize,
) -> (LegReport, Vec<Vec<(u64, Record)>>, ShuffleStats) {
    let net = NetModel::gigabit(cluster.nodes());
    let pool_before = cluster.buffer_pool().stats();
    let mut best_wall = f64::INFINITY;
    let mut best_sim = f64::INFINITY;
    let mut last: Option<(Vec<Vec<(u64, Record)>>, ShuffleStats)> = None;
    for _ in 0..reps {
        let input = parts.to_vec(); // cloned outside the timed region
        let start = Instant::now();
        let (ds, stats, exec) = KeyedDataset::from_partitions(input).shuffle(cluster, partitioner);
        let wall = start.elapsed().as_secs_f64();
        let sim = exec.makespan().as_secs_f64() + net.transfer_secs(stats.remote_bytes);
        best_wall = best_wall.min(wall);
        best_sim = best_sim.min(sim);
        if let Some((prev, prev_stats)) = &last {
            let rerun = ds.into_partitions();
            assert_eq!(prev, &rerun, "{mode}: shuffle must be deterministic");
            assert_eq!(prev_stats, &stats);
            last = Some((rerun, stats));
        } else {
            last = Some((ds.into_partitions(), stats));
        }
    }
    let (out, stats) = last.expect("reps >= 1");
    let report = LegReport {
        mode,
        wall_seconds: best_wall,
        sim_seconds: best_sim,
        remote_bytes: stats.remote_bytes,
        total_bytes: stats.total_bytes(),
        records: stats.records,
        pool: cluster.buffer_pool().stats().since(&pool_before),
    };
    (report, out, stats)
}

/// Full-suite equivalence sweep: every algorithm, radix vs. legacy cluster,
/// identical results / replication / shuffle bytes demanded. Returns the
/// per-algorithm summary rows.
fn suite_equivalence(cfg: &ExpConfig) -> Vec<(String, u64, u64, u64)> {
    let spec = JoinSpec::new(PAPER_BBOX, cfg.default_eps)
        .with_partitions(cfg.partitions)
        .counting_only();
    // Suite scale is capped: this phase is a correctness gate, not a timing
    // measurement, and Sedona at full base dominates the runtime otherwise.
    let base = cfg.base.min(20_000);
    let gen = |seed: u64| {
        DatasetSpec {
            name: "perf-suite",
            kind: GenKind::Uniform,
            cardinality: base,
            seed,
            bbox: PAPER_BBOX,
            sigma_scale: 1.0,
        }
        .points()
    };
    let r = to_records(&gen(101), 0);
    let s = to_records(&gen(202), 0);
    let radix = cfg.cluster();
    let legacy = cfg.cluster().with_shuffle_mode(ShuffleMode::Legacy);
    let mut rows = Vec::new();
    for algo in Algorithm::ALL {
        let a = run_once(&radix, &spec, algo, &r, &s);
        let b = run_once(&legacy, &spec, algo, &r, &s);
        assert_eq!(a.results, b.results, "{algo:?}: result count drifted");
        assert_eq!(a.candidates, b.candidates, "{algo:?}: candidates drifted");
        assert_eq!(a.replicated, b.replicated, "{algo:?}: replication drifted");
        assert_eq!(
            a.shuffle_total, b.shuffle_total,
            "{algo:?}: shuffle bytes drifted"
        );
        assert_eq!(a.shuffle_remote, b.shuffle_remote);
        rows.push((
            algo.name().to_string(),
            a.results,
            a.replicated,
            a.shuffle_total,
        ));
    }
    // One materialized run: the pair *sets* must match, not just the counts.
    let pair_spec = JoinSpec::new(PAPER_BBOX, cfg.default_eps).with_partitions(cfg.partitions);
    let mut pa = Algorithm::Lpib.run(&radix, &pair_spec, r.clone(), s.clone());
    let mut pb = Algorithm::Lpib.run(&legacy, &pair_spec, r, s);
    pa.pairs.sort_unstable();
    pb.pairs.sort_unstable();
    assert_eq!(
        pa.pairs, pb.pairs,
        "LPiB pairs drifted between shuffle modes"
    );
    rows
}

fn json_leg(leg: &LegReport) -> String {
    format!(
        concat!(
            "{{\"mode\":\"{}\",\"wall_seconds\":{:.6},\"sim_seconds\":{:.6},",
            "\"remote_bytes\":{},\"total_bytes\":{},\"records\":{},",
            "\"pool_hits\":{},\"pool_misses\":{},\"pool_returns\":{},",
            "\"bytes_recycled\":{}}}"
        ),
        leg.mode,
        leg.wall_seconds,
        leg.sim_seconds,
        leg.remote_bytes,
        leg.total_bytes,
        leg.records,
        leg.pool.hits,
        leg.pool.misses,
        leg.pool.returns,
        leg.pool.bytes_recycled,
    )
}

/// Hand-rolled JSON (the workspace deliberately carries no serde): flat
/// object, stable key order, digits-only numerics — trivially diffable.
fn render_json(rep: &PerfReport) -> String {
    let suite: Vec<String> = rep
        .suite
        .iter()
        .map(|(name, results, replicated, bytes)| {
            format!(
                "{{\"algorithm\":\"{name}\",\"results\":{results},\
                 \"replicated\":{replicated},\"shuffle_bytes\":{bytes}}}"
            )
        })
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"shuffle_perf\",\n",
            "  \"records\": {},\n",
            "  \"payload_bytes\": {},\n",
            "  \"sources\": {},\n",
            "  \"targets\": {},\n",
            "  \"nodes\": {},\n",
            "  \"reps\": {},\n",
            "  \"legacy\": {},\n",
            "  \"radix\": {},\n",
            "  \"speedup\": {:.4},\n",
            "  \"checksum\": \"{:016x}\",\n",
            "  \"checksum_matches\": true,\n",
            "  \"suite\": [{}]\n",
            "}}\n"
        ),
        rep.records,
        PAYLOAD_BYTES,
        rep.sources,
        rep.targets,
        rep.nodes,
        rep.reps,
        json_leg(&rep.legacy),
        json_leg(&rep.radix),
        rep.speedup,
        rep.checksum,
        suite.join(","),
    )
}

/// The `repro perf` entry point. Runs the A/B, asserts equivalence, prints
/// the comparison table and writes `BENCH_shuffle.json`.
pub fn shuffle_perf(cfg: &ExpConfig) -> PerfReport {
    // 2× base records: the microbenchmark shuffles the equivalent of both
    // join inputs in one stage. Per-run times at quick scale are small, so
    // keep a floor on repetitions for a stable best-of.
    let records = cfg.base * 2;
    let sources = cfg.partitions;
    let targets = cfg.partitions;
    let reps = cfg.reps.max(3);
    let parts = keyed_workload(records, sources);
    let map = assignment(targets);

    // Leg A: the pre-PR engine. Legacy shuffle materialization + the
    // hash-map partitioner probe.
    let legacy_cluster =
        Cluster::new(ClusterConfig::new(cfg.nodes)).with_shuffle_mode(ShuffleMode::Legacy);
    let legacy_part = ExplicitPartitioner::new_sparse(map.clone(), targets);
    let (legacy, parts_l, stats_l) =
        time_leg(&legacy_cluster, "legacy", &parts, &legacy_part, reps);

    // Leg B: today's default. Radix buckets + pooled buffers + dense table.
    let radix_cluster = Cluster::new(ClusterConfig::new(cfg.nodes));
    let radix_part = ExplicitPartitioner::new(map, targets);
    let (radix, parts_r, stats_r) = time_leg(&radix_cluster, "radix", &parts, &radix_part, reps);

    // The oracle gate: byte-for-byte identical output and meters.
    assert_eq!(stats_r, stats_l, "radix shuffle drifted from legacy meters");
    assert_eq!(parts_r, parts_l, "radix shuffle drifted from legacy output");
    let checksum = checksum_partitions(&parts_r);
    assert_eq!(
        checksum,
        checksum_partitions(&parts_l),
        "checksum oracle drifted"
    );

    let suite = suite_equivalence(cfg);
    let speedup = legacy.wall_seconds / radix.wall_seconds.max(1e-12);
    let report = PerfReport {
        records,
        sources,
        targets,
        nodes: cfg.nodes,
        reps,
        legacy,
        radix,
        speedup,
        checksum,
        suite,
    };

    let mut table = Table::new(vec![
        "leg",
        "wall (ms)",
        "sim (s)",
        "shuffle MiB",
        "pool hits",
        "pool misses",
        "MiB recycled",
    ]);
    for leg in [&report.legacy, &report.radix] {
        table.row(vec![
            leg.mode.to_string(),
            format!("{:.2}", leg.wall_seconds * 1e3),
            format!("{:.3}", leg.sim_seconds),
            format!("{:.1}", leg.total_bytes as f64 / (1024.0 * 1024.0)),
            leg.pool.hits.to_string(),
            leg.pool.misses.to_string(),
            format!("{:.1}", leg.pool.bytes_recycled as f64 / (1024.0 * 1024.0)),
        ]);
    }
    table.print(&format!(
        "shuffle perf A/B — {} records × {} B payload, {} → {} partitions",
        report.records, PAYLOAD_BYTES, report.sources, report.targets
    ));
    println!(
        "speedup (legacy/radix wall): {:.2}x   checksum {:016x}",
        report.speedup, report.checksum
    );
    if report.speedup < 1.3 {
        // Timing is advisory on shared CI runners; correctness (the asserts
        // above) is the hard gate.
        eprintln!(
            "warning: speedup {:.2}x below the 1.3x target — noisy host?",
            report.speedup
        );
    }

    let out = std::env::var("ASJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_shuffle.json".to_string());
    match std::fs::write(&out, render_json(&report)) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
    report
}

/// Everything `BENCH_perf.json` reports for the end-to-end join leg.
#[derive(Debug, Clone)]
pub struct JoinPerfReport {
    pub records: usize,
    pub nodes: usize,
    pub partitions: usize,
    pub reps: usize,
    /// Best-of-reps host wall time for the whole join, seconds.
    pub wall_seconds: f64,
    /// Best-of-reps simulated cluster time, seconds.
    pub sim_seconds: f64,
    /// FNV-1a over the sorted result pairs; identical on every rep by
    /// assertion, and machine-independent (it hashes ids, not timings), so
    /// CI can diff it against a committed baseline.
    pub join_checksum: u64,
    pub results: u64,
}

/// FNV-1a 64-bit over result pairs in order (callers sort first so the
/// digest is independent of kernel probe order).
pub(crate) fn checksum_pairs(pairs: &[(u64, u64)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    word(pairs.len() as u64);
    for &(a, b) in pairs {
        word(a);
        word(b);
    }
    h
}

/// Hand-rolled JSON for the join leg — same flat, stable-key style as
/// `BENCH_shuffle.json`. Timings are advisory; the committed baseline gates
/// on the machine-independent fields (checksum, result count).
fn render_join_json(rep: &JoinPerfReport) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"join_perf\",\n",
            "  \"records\": {},\n",
            "  \"payload_bytes\": {},\n",
            "  \"nodes\": {},\n",
            "  \"partitions\": {},\n",
            "  \"reps\": {},\n",
            "  \"wall_seconds\": {:.6},\n",
            "  \"sim_seconds\": {:.6},\n",
            "  \"results\": {},\n",
            "  \"join_checksum\": \"{:016x}\",\n",
            "  \"checksum_matches\": true\n",
            "}}\n"
        ),
        rep.records,
        PAYLOAD_BYTES,
        rep.nodes,
        rep.partitions,
        rep.reps,
        rep.wall_seconds,
        rep.sim_seconds,
        rep.results,
        rep.join_checksum,
    )
}

/// The end-to-end join leg behind `repro perf`: a payload-heavy ε-grid join
/// (the shuffle is a real fraction of the job) timed best-of-reps. Every
/// rep must produce the same sorted pairs. Writes `BENCH_perf.json`
/// (override: `ASJ_BENCH_PERF_OUT`).
pub fn join_perf(cfg: &ExpConfig) -> JoinPerfReport {
    let records = cfg.base;
    let reps = cfg.reps.max(3);
    let gen = |seed: u64| {
        DatasetSpec {
            name: "join-perf",
            kind: GenKind::Uniform,
            cardinality: records,
            seed,
            bbox: PAPER_BBOX,
            sigma_scale: 1.0,
        }
        .points()
    };
    let r = to_records(&gen(4242), PAYLOAD_BYTES);
    let s = to_records(&gen(2424), PAYLOAD_BYTES);
    let spec = JoinSpec::new(PAPER_BBOX, cfg.default_eps).with_partitions(cfg.partitions);

    let cluster = Cluster::new(ClusterConfig::new(cfg.nodes));
    let mut best_wall = f64::INFINITY;
    let mut best_sim = f64::INFINITY;
    let mut first: Option<Vec<(u64, u64)>> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let out = Algorithm::EpsGrid.run(&cluster, &spec, r.clone(), s.clone());
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
        best_sim = best_sim.min(out.metrics.simulated_time().as_secs_f64());
        let mut pairs = out.pairs;
        pairs.sort_unstable();
        match &first {
            Some(prev) => assert_eq!(prev, &pairs, "join results drifted between reps"),
            None => first = Some(pairs),
        }
    }
    let pairs = first.expect("reps >= 1");
    let report = JoinPerfReport {
        records,
        nodes: cfg.nodes,
        partitions: cfg.partitions,
        reps,
        wall_seconds: best_wall,
        sim_seconds: best_sim,
        join_checksum: checksum_pairs(&pairs),
        results: pairs.len() as u64,
    };

    let mut table = Table::new(vec!["wall (ms)", "sim (s)", "results"]);
    table.row(vec![
        format!("{:.2}", report.wall_seconds * 1e3),
        format!("{:.3}", report.sim_seconds),
        report.results.to_string(),
    ]);
    table.print(&format!(
        "join perf — eps-grid, {} records × {} B payload, {} partitions, {} nodes",
        report.records, PAYLOAD_BYTES, report.partitions, report.nodes
    ));
    println!("join checksum {:016x}", report.join_checksum);

    let out = std::env::var("ASJ_BENCH_PERF_OUT").unwrap_or_else(|_| "BENCH_perf.json".to_string());
    match std::fs::write(&out, render_join_json(&report)) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => eprintln!("warning: could not write {out}: {e}"),
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive() {
        let rec = |id: u64| Record::new(id, asj_geom::Point::new(id as f64, 0.0));
        let a = vec![vec![(1u64, rec(1)), (2, rec(2))]];
        let b = vec![vec![(2u64, rec(2)), (1, rec(1))]];
        assert_ne!(checksum_partitions(&a), checksum_partitions(&b));
        assert_eq!(checksum_partitions(&a), checksum_partitions(&a.clone()));
    }

    #[test]
    fn workload_routes_to_every_source() {
        let parts = keyed_workload(1000, 7);
        assert_eq!(parts.len(), 7);
        assert!(parts.iter().all(|p| !p.is_empty()));
        let max_key = GRID_CELLS * GRID_CELLS;
        for part in &parts {
            for (key, rec) in part {
                assert!(*key < max_key);
                assert_eq!(rec.payload.len(), PAYLOAD_BYTES);
            }
        }
    }

    #[test]
    fn perf_ab_runs_at_tiny_scale() {
        let cfg = ExpConfig::quick().with_base(1500);
        // Route JSON to a scratch path so the test never litters the repo.
        let dir = std::env::temp_dir().join("asj-perf-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::env::set_var("ASJ_BENCH_OUT", dir.join("BENCH_shuffle.json"));
        let report = shuffle_perf(&cfg);
        std::env::remove_var("ASJ_BENCH_OUT");
        assert_eq!(report.legacy.total_bytes, report.radix.total_bytes);
        assert_eq!(report.suite.len(), Algorithm::ALL.len());
        assert!(report.radix.pool.hits + report.radix.pool.misses > 0);
        assert_eq!(
            report.legacy.pool.hits, 0,
            "legacy leg must not touch the pool"
        );
        let json = std::fs::read_to_string(dir.join("BENCH_shuffle.json")).expect("json written");
        assert!(json.contains("\"experiment\": \"shuffle_perf\""));
        assert!(json.contains("\"checksum_matches\": true"));
    }

    #[test]
    fn pair_checksum_is_order_sensitive() {
        let a = vec![(1u64, 2u64), (3, 4)];
        let b = vec![(3u64, 4u64), (1, 2)];
        assert_ne!(checksum_pairs(&a), checksum_pairs(&b));
        assert_eq!(checksum_pairs(&a), checksum_pairs(&a.clone()));
        assert_ne!(checksum_pairs(&a), checksum_pairs(&a[..1]));
    }

    #[test]
    fn join_perf_runs_at_tiny_scale() {
        let mut cfg = ExpConfig::quick().with_base(1200);
        cfg.nodes = 3;
        cfg.partitions = 8;
        let dir = std::env::temp_dir().join("asj-join-perf-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        std::env::set_var("ASJ_BENCH_PERF_OUT", dir.join("BENCH_perf.json"));
        let report = join_perf(&cfg);
        std::env::remove_var("ASJ_BENCH_PERF_OUT");
        assert!(report.results > 0, "the workload must produce pairs");
        let json = std::fs::read_to_string(dir.join("BENCH_perf.json")).expect("json written");
        assert!(json.contains("\"experiment\": \"join_perf\""));
        assert!(json.contains("\"checksum_matches\": true"));
        assert!(json.contains("\"join_checksum\""));
    }
}
