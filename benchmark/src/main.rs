//! Repository benchmark. Drives the program's public API in a closed loop
//! with one client, checks every operation against an oracle, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). The last line of standard output is a JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fine-lpib --seed 1 --seconds 20 --trace 0
//! ```

mod layers;
mod report;
mod stats;
mod workload;

use asj_engine::{Cluster, Recorder, SchedPolicy, Trace};
use asj_join::{oracle, JoinOutput, JoinSpec, Record};
use asj_serve::{
    checksum_pairs, run_queue_recoverable, solo_outcome, QueueRun, RecoveryOptions, TenantSpec,
};
use layers::{counter_total, join_layers, phase_times, LayerSamples, Tracer, PHASES};
use report::{Json, Metric};
use stats::{median, nearest_rank, Tally};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{
    tenant_join_spec, Inputs, JoinParams, JoinPrint, QueuePrint, Setup, Workload, NODES, PARTITIONS,
};

const USAGE: &str = "usage: asj-benchmark --workload <fine-lpib|coarse-unir|serve-durable> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups timed per run, spread evenly over it; `setup_s` is their median.
/// Spreading them lets `setup_s` see the same host conditions as the
/// operations: on a shared 2-vCPU host, back-to-back set-ups read 26 ms in
/// one process and 42 ms in the next, while each run's operations drift by
/// up to ±20% over tens of seconds.
const SETUP_SAMPLES: u32 = 12;

/// Checked but untimed operations between the first join and the timed
/// loop: they fill the allocator's and the buffer pool's free lists and the
/// cluster's lazily calibrated kernel cost model.
const WARMUP_OPS: usize = 2;

/// Everything the benchmark writes lives under this directory of the
/// checkout: result files, per-operation journals and checkpoints, spills.
const WORK_DIR: &str = ".bench_work";

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metrics (`--trace 1`), with units. A layer a workload does not
/// exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("core.graph_build_ms", "ms"),
    ("core.assign_ns_per_point", "ns"),
    ("core.graph_cells", "count"),
    ("core.marked_edges", "count"),
    ("core.locked_edges", "count"),
    ("core.replicas_per_input", "ratio"),
    ("index.batch_build_ms", "ms"),
    ("index.kernel_ms", "ms"),
    ("index.ns_per_candidate", "ns"),
    ("index.candidates", "count"),
    ("index.results", "count"),
    ("index.refine_ratio", "ratio"),
    ("engine.sample_ms", "ms"),
    ("engine.shuffle_ms", "ms"),
    ("engine.shuffle_total_bytes", "bytes"),
    ("engine.peak_partition_bytes", "bytes"),
    ("engine.sim_p50_s", "s"),
    ("engine.driver_ms", "ms"),
    ("engine.construction_makespan_ms", "ms"),
    ("engine.join_makespan_ms", "ms"),
    ("engine.join_imbalance", "ratio"),
    ("engine.attempts", "count"),
    ("engine.retries", "count"),
    ("engine.failed_attempts", "count"),
    ("engine.jobs.queue_wait_p90_ms", "ms"),
    ("engine.jobs.turnaround_p50_ms", "ms"),
    ("engine.jobs.turnaround_p90_ms", "ms"),
    ("engine.jobs.quanta", "count"),
    ("engine.checkpoint.bytes", "bytes"),
    ("engine.checkpoint.stages_recovered", "count"),
    ("engine.journal.bytes", "bytes"),
    ("engine.memory.spilled_bytes", "bytes"),
    ("engine.memory.residual_bytes", "bytes"),
    ("serve.estimate_bytes", "bytes"),
    ("serve.estimate_ratio", "ratio"),
    ("serve.durable_bytes_per_job", "bytes"),
    ("join.sampling_ms", "ms"),
    ("join.sampling_self_ms", "ms"),
    ("join.agreement_graph_ms", "ms"),
    ("join.agreement_graph_self_ms", "ms"),
    ("join.marking_ms", "ms"),
    ("join.marking_self_ms", "ms"),
    ("join.shuffle_ms", "ms"),
    ("join.shuffle_self_ms", "ms"),
    ("join.local_join_ms", "ms"),
    ("join.local_join_self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.program_spans", "count"),
    ("trace.rounds", "count"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(n) if n > 0 => seconds = Some(n),
                _ => {
                    return Err(format!(
                        "--seconds must be a positive integer, got '{value}'"
                    ))
                }
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::process::exit(match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    });
}

/// What one workload's loop measured.
#[derive(Default)]
struct Measured {
    tally: Tally,
    /// Wall of each timed untraced operation, seconds.
    walls: Vec<f64>,
    /// CPU time the process spent in each timed untraced operation, seconds.
    cpus: Vec<f64>,
    /// Simulated time of each timed untraced operation, seconds.
    sims: Vec<f64>,
    replicated: u64,
    remote_bytes: u64,
    results: u64,
    /// Checkpoint plus journal bytes of one operation.
    durable_bytes: u64,
    /// `VmHWM` after the loop, before the oracle ran.
    rss_mib: f64,
    /// Share of the host's CPU time the hypervisor stole during the loop
    /// (`None` where `/proc/stat` is unreadable): a noisy neighbour shows
    /// here before it shows in the spreads.
    steal_share: Option<f64>,
    /// What went wrong, for the report (failed operations and oracle
    /// mismatches).
    problems: Vec<String>,
    /// Traced run only: where the layer drivers or the solo replicas stopped
    /// agreeing with the program, so the figures built on them no longer
    /// describe it. Reported, but not failures of the program.
    warnings: Vec<String>,
    /// Traced run only: per-layer samples, the wall of each traced
    /// operation, and the last recorder snapshot.
    layers: LayerSamples,
    traced_walls: Vec<f64>,
    last_trace: Option<Trace>,
    params: Vec<(&'static str, Json)>,
}

impl Measured {
    fn warn(&mut self, warnings: Vec<String>) {
        for w in warnings {
            if !self.warnings.contains(&w) {
                self.warnings.push(w);
            }
        }
    }

    fn check(&mut self, problem: Option<String>) {
        self.tally.record(problem.is_none());
        if let Some(p) = problem {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let work = Path::new(WORK_DIR);
    let scratch = work.join(format!("tmp-{}", std::process::id()));
    let results_dir = work.join("results");
    for dir in [&scratch.join("spill"), &results_dir] {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    asj_engine::set_spill_dir(scratch.join("spill"));

    let mut sampler = SetupSampler {
        args,
        scratch: &scratch,
        every: Duration::from_secs(args.seconds) / SETUP_SAMPLES,
        last: Instant::now(),
        cpus: Vec::new(),
        times: Vec::new(),
        generate: Vec::new(),
    };
    let setup = sampler.sample()?;
    let mut tracer = Tracer::new();
    let measured = match &setup.inputs {
        Inputs::Join { params, r, s } => run_join(
            args,
            &setup.cluster,
            params,
            r,
            s,
            &mut tracer,
            &mut sampler,
        )?,
        Inputs::Serve {
            tenants,
            estimates,
            data,
        } => run_serve(
            args,
            &setup.cluster,
            tenants,
            estimates,
            data,
            &scratch.join("ops"),
            &mut tracer,
            &mut sampler,
        )?,
    };
    let setups = SetupTimes {
        cpu: sampler.cpus,
        wall: sampler.times,
        generate: sampler.generate,
    };
    let _ = fs::remove_dir_all(&scratch);
    finish(args, &setup, &setups, measured, &tracer, &results_dir)
}

/// What the set-ups of one run took, seconds.
struct SetupTimes {
    cpu: Vec<f64>,
    wall: Vec<f64>,
    /// Input generation alone (wall).
    generate: Vec<f64>,
}

/// Times set-ups: the inputs' generation and record building, the cluster,
/// and for `serve-durable` the run's temporary directory.
struct SetupSampler<'a> {
    args: &'a Args,
    scratch: &'a Path,
    /// Interval between samples taken during the timed loop.
    every: Duration,
    last: Instant,
    /// Set-up CPU times, set-up walls and generation walls, seconds.
    cpus: Vec<f64>,
    times: Vec<f64>,
    generate: Vec<f64>,
}

impl SetupSampler<'_> {
    fn sample(&mut self) -> Result<Setup, String> {
        let dir = self.scratch.join(format!("setup-{}", self.times.len()));
        let cpu = report::process_cpu_s();
        let start = Instant::now();
        let setup = Setup::build(self.args.workload, self.args.seed);
        if self.args.workload == Workload::ServeDurable {
            fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        self.times.push(start.elapsed().as_secs_f64());
        self.cpus.push(report::process_cpu_s() - cpu);
        self.generate.push(setup.generate.as_secs_f64());
        let _ = fs::remove_dir_all(&dir);
        self.last = Instant::now();
        Ok(setup)
    }

    /// Takes a sample, between two operations, once `every` has passed
    /// since the last one.
    fn between_ops(&mut self) -> Result<(), String> {
        if self.last.elapsed() >= self.every {
            drop(self.sample()?);
        }
        Ok(())
    }
}

/// The paper's execution-time metric as the experiment harness models it:
/// the simulated driver, construction and join time plus the shuffle's
/// network and disk terms and the broadcast, at a 1 Gbps NIC and 150 MiB/s
/// of local disk per node.
fn sim_seconds(out: &JoinOutput) -> f64 {
    let m = &out.metrics;
    let fabric = 117.0 * MIB * NODES as f64;
    let disk = 150.0 * MIB * NODES as f64;
    m.simulated_time().as_secs_f64()
        + m.shuffle.remote_bytes as f64 / fabric
        + 2.0 * m.shuffle.total_bytes() as f64 / disk
        + (m.broadcast_bytes * NODES as u64) as f64 / fabric
}

fn run_join(
    args: &Args,
    cluster: &Cluster,
    params: &JoinParams,
    r: &[Record],
    s: &[Record],
    tracer: &mut Tracer,
    sampler: &mut SetupSampler,
) -> Result<Measured, String> {
    let mut m = Measured {
        params: vec![
            ("algorithm", Json::str(params.algorithm.name())),
            ("eps", Json::Num(params.eps)),
            (
                "r",
                Json::str(format!(
                    "{:?} {} of layout seed {}",
                    params.r.kind,
                    r.len(),
                    params.r.seed
                )),
            ),
            (
                "s",
                Json::str(format!(
                    "{:?} {} of layout seed {}",
                    params.s.kind,
                    s.len(),
                    params.s.seed
                )),
            ),
            ("payload_bytes", Json::Int(params.payload as u64)),
            ("collect_pairs", Json::Bool(params.collect_pairs)),
        ],
        ..Measured::default()
    };
    let spec = params.spec();
    let algo = params.algorithm;
    let join = |cluster: &Cluster, spec: &JoinSpec| algo.run(cluster, spec, r.to_vec(), s.to_vec());

    // The first join collects its pairs; its counts are what every later
    // operation must repeat, and its checksum is compared to the oracle's.
    let collected = JoinSpec {
        collect_pairs: true,
        ..spec.clone()
    };
    let first = join(cluster, &collected);
    let baseline = JoinPrint::of(&first);
    let checksum = checksum_pairs(first.result_count, &first.pairs);
    m.check(
        (first.pairs.len() as u64 != first.result_count)
            .then(|| "pair count differs from result count".into()),
    );
    drop(first);
    let check = |out: &JoinOutput| -> Option<String> {
        let print = JoinPrint::of(out);
        if print != baseline {
            Some(format!(
                "counts {print:?} differ from the first join's {baseline:?}"
            ))
        } else if spec.collect_pairs && out.pairs.len() as u64 != out.result_count {
            Some("pair count differs from result count".into())
        } else {
            None
        }
    };
    for _ in 0..WARMUP_OPS {
        let out = join(cluster, &spec);
        m.check(check(&out));
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let ticks = report::cpu_ticks();
    let mut op = 0u64;
    while Instant::now() < deadline {
        op += 1;
        let round = tracer.begin(op, "round", None);
        let (r_in, s_in) = (r.to_vec(), s.to_vec());
        let span = tracer.begin(op, "join.untraced", Some(round));
        let cpu = report::process_cpu_s();
        let start = Instant::now();
        let out = algo.run(cluster, &spec, r_in, s_in);
        let wall = start.elapsed();
        m.cpus.push(report::process_cpu_s() - cpu);
        tracer.end(span);
        m.walls.push(wall.as_secs_f64());
        m.sims.push(sim_seconds(&out));
        m.check(check(&out));
        drop(out);
        if args.trace {
            traced_join_round(
                &mut m, tracer, op, round, cluster, params, &spec, r, s, &baseline,
            );
        }
        tracer.end(round);
        sampler.between_ops()?;
    }
    m.rss_mib = report::peak_rss_mib();
    m.steal_share = report::steal_share(ticks, report::cpu_ticks());
    m.replicated = baseline.replicated;
    m.remote_bytes = baseline.remote_bytes;
    m.results = baseline.results;

    let pairs = oracle::rtree_pairs(r, s, params.eps);
    let oracle_sum = checksum_pairs(pairs.len() as u64, &pairs);
    if pairs.len() as u64 != baseline.results || oracle_sum != checksum {
        m.problems.push(format!(
            "oracle: {} pairs (checksum {oracle_sum:016x}), join: {} (checksum {checksum:016x})",
            pairs.len(),
            baseline.results
        ));
        m.tally.fail_all();
    }
    Ok(m)
}

/// One traced round of a join workload: the join with a `Recorder`
/// attached, then the layer micro-drivers.
#[allow(clippy::too_many_arguments)]
fn traced_join_round(
    m: &mut Measured,
    tracer: &mut Tracer,
    op: u64,
    round: usize,
    cluster: &Cluster,
    params: &JoinParams,
    spec: &JoinSpec,
    r: &[Record],
    s: &[Record],
    baseline: &JoinPrint,
) {
    let recorder = Recorder::for_nodes(NODES);
    let traced = cluster.clone().with_recorder(recorder.clone());
    let (r_in, s_in) = (r.to_vec(), s.to_vec());
    let (out, took) = tracer.time(op, "join.traced", round, || {
        params.algorithm.run(&traced, spec, r_in, s_in)
    });
    m.traced_walls.push(took.as_secs_f64());
    let print = JoinPrint::of(&out);
    let mut issues = Vec::new();
    if print != *baseline {
        issues.push(format!(
            "traced join counts {print:?} differ from untraced {baseline:?}"
        ));
    }

    let l = &mut m.layers;
    let jm = &out.metrics;
    l.time("engine.driver_ms", jm.driver.as_secs_f64() * 1e3);
    l.time(
        "engine.construction_makespan_ms",
        jm.construction.makespan().as_secs_f64() * 1e3,
    );
    l.time(
        "engine.join_makespan_ms",
        jm.join.makespan().as_secs_f64() * 1e3,
    );
    l.time("engine.join_imbalance", jm.join.imbalance());
    let mut exec = jm.construction.clone();
    exec.accumulate(&jm.join);
    l.count("engine.attempts", exec.attempts as f64);
    l.count("engine.retries", exec.retries as f64);
    l.count("engine.failed_attempts", exec.failed_attempts as f64);
    l.count("engine.memory.spilled_bytes", jm.spilled_bytes() as f64);
    drop(out);

    let trace = recorder.snapshot();
    record_phases(l, &trace);
    m.last_trace = Some(trace);

    let drift = join_layers(
        tracer,
        op,
        round,
        cluster,
        params,
        r,
        s,
        baseline,
        &mut m.layers,
    );
    m.warn(drift);
    issues.extend(unstable_counts(&mut m.layers));
    m.check((!issues.is_empty()).then(|| issues.join("; ")));
}

/// Counts that changed between traced rounds: only times may differ.
fn unstable_counts(l: &mut LayerSamples) -> Option<String> {
    let unstable = std::mem::take(&mut l.unstable);
    (!unstable.is_empty()).then(|| format!("counts changed between traced rounds: {unstable:?}"))
}

fn record_phases(l: &mut LayerSamples, trace: &Trace) {
    const WALL: [&str; 5] = [
        "join.sampling_ms",
        "join.agreement_graph_ms",
        "join.marking_ms",
        "join.shuffle_ms",
        "join.local_join_ms",
    ];
    const SELF: [&str; 5] = [
        "join.sampling_self_ms",
        "join.agreement_graph_self_ms",
        "join.marking_self_ms",
        "join.shuffle_self_ms",
        "join.local_join_self_ms",
    ];
    let phases = phase_times(trace);
    for (i, phase) in PHASES.iter().enumerate() {
        let (wall, own) = phases[phase];
        l.time(WALL[i], wall);
        l.time(SELF[i], own);
    }
    l.time("trace.program_spans", trace.spans.len() as f64);
}

/// What one queue took: its wall and the CPU time the process spent in it.
struct Took {
    wall: Duration,
    cpu_s: f64,
}

/// One queue in a fresh directory: the journal and checkpoints it writes,
/// timed around `run_queue_recoverable` only. Returns the run, what it took
/// and the journal's size.
fn run_queue_op(
    cluster: &Cluster,
    tenants: &[TenantSpec],
    dir: &Path,
) -> Result<(QueueRun, Took, u64), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let journal = dir.join("server.journal");
    let options = RecoveryOptions {
        journal: Some(journal.clone()),
        checkpoint_dir: Some(dir.join("checkpoints")),
        ..RecoveryOptions::default()
    };
    let cpu = report::process_cpu_s();
    let start = Instant::now();
    let run = run_queue_recoverable(cluster, tenants, SchedPolicy::FairShare, &options);
    let took = Took {
        wall: start.elapsed(),
        cpu_s: report::process_cpu_s() - cpu,
    };
    let journal_bytes = fs::metadata(&journal).map_or(0, |meta| meta.len());
    fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    let run = run.map_err(|e| format!("queue failed: {e}"))?;
    Ok((run, took, journal_bytes))
}

#[allow(clippy::too_many_arguments)]
fn run_serve(
    args: &Args,
    cluster: &Cluster,
    tenants: &[TenantSpec],
    estimates: &[u64],
    data: &[(Vec<Record>, Vec<Record>)],
    ops: &Path,
    tracer: &mut Tracer,
    sampler: &mut SetupSampler,
) -> Result<Measured, String> {
    let mut m = Measured {
        params: vec![
            ("tenants", Json::Int(tenants.len() as u64)),
            ("policy", Json::str(SchedPolicy::FairShare.name())),
            (
                "queue",
                Json::Arr(
                    tenants
                        .iter()
                        .map(|t| {
                            Json::str(format!(
                                "{} {} {:?} n={} eps={} seed={} weight={} faults={}",
                                t.name,
                                t.algorithm.name(),
                                t.kind,
                                t.cardinality,
                                t.eps,
                                t.seed,
                                t.weight,
                                t.faults.as_deref().unwrap_or("none")
                            ))
                        })
                        .collect(),
                ),
            ),
            (
                "memory_budget_bytes",
                Json::Int(cluster.memory_budget().unwrap_or(0)),
            ),
            (
                "durability",
                Json::str("journal + checkpoint dir, fresh per queue"),
            ),
        ],
        ..Measured::default()
    };

    // Fault-free solo replicas of every tenant's join: the bytes each one
    // shuffles and its peak memory, which the queue's reports do not carry.
    // Isolation makes a tenant shuffle the same bytes inside the queue; the
    // replicas' checksums are compared with the solo oracle's below.
    let replicas: Vec<(JoinPrint, u64, u64)> = tenants
        .iter()
        .zip(data)
        .map(|(t, (r, s))| {
            let solo = Cluster::new(cluster.config());
            let out = t
                .algorithm
                .run(&solo, &tenant_join_spec(t), r.clone(), s.clone());
            let sum = checksum_pairs(out.result_count, &out.pairs);
            (JoinPrint::of(&out), sum, out.metrics.peak_memory_bytes())
        })
        .collect();
    m.remote_bytes = replicas.iter().map(|(p, _, _)| p.remote_bytes).sum();

    let mut op = 0u64;
    let mut next_dir = || {
        op += 1;
        ops.join(format!("op-{op}"))
    };
    let (first, _, journal_bytes) = run_queue_op(cluster, tenants, &next_dir())?;
    let baseline = QueuePrint::of(&first);
    m.durable_bytes = first.checkpoint_bytes + journal_bytes;
    let check = |result: &Result<(QueueRun, Took, u64), String>| -> Option<String> {
        match result {
            Err(e) => Some(e.clone()),
            Ok((run, _, _)) => {
                let print = QueuePrint::of(run);
                if !print.healthy() {
                    Some(format!("unhealthy queue: {print:?}"))
                } else if print != baseline {
                    Some(format!(
                        "queue {print:?} differs from the first queue's {baseline:?}"
                    ))
                } else {
                    None
                }
            }
        }
    };
    m.check((!baseline.healthy()).then(|| format!("unhealthy first queue: {baseline:?}")));
    for _ in 0..WARMUP_OPS {
        let result = run_queue_op(cluster, tenants, &next_dir());
        m.check(check(&result));
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let ticks = report::cpu_ticks();
    let mut round_id = 0u64;
    while Instant::now() < deadline {
        round_id += 1;
        let round = tracer.begin(round_id, "round", None);
        let span = tracer.begin(round_id, "queue.untraced", Some(round));
        let result = run_queue_op(cluster, tenants, &next_dir());
        tracer.end(span);
        if let Ok((run, took, _)) = &result {
            m.walls.push(took.wall.as_secs_f64());
            m.cpus.push(took.cpu_s);
            m.sims.push(run.clock.as_secs_f64());
        }
        m.check(check(&result));
        if args.trace {
            let recorder = Recorder::for_nodes(NODES);
            let traced = cluster.clone().with_recorder(recorder.clone());
            let (result, _) = tracer.time(round_id, "queue.traced", round, || {
                run_queue_op(&traced, tenants, &next_dir())
            });
            let mut issues: Vec<String> = check(&result)
                .map(|p| format!("traced: {p}"))
                .into_iter()
                .collect();
            if let Ok((run, took, journal_bytes)) = result {
                m.traced_walls.push(took.wall.as_secs_f64());
                serve_layers(&mut m.layers, &run, journal_bytes, estimates, &replicas);
                let trace = recorder.snapshot();
                m.layers
                    .time("trace.program_spans", trace.spans.len() as f64);
                let failed = counter_total(&trace, "failed_attempts");
                m.layers.count("engine.failed_attempts", failed as f64);
                let remote = counter_total(&trace, "remote_bytes");
                if remote != m.remote_bytes {
                    m.warn(vec![format!(
                        "the queue shuffled {remote} remote bytes, its solo replicas {}",
                        m.remote_bytes
                    )]);
                }
                m.last_trace = Some(trace);
            }
            issues.extend(unstable_counts(&mut m.layers));
            m.check((!issues.is_empty()).then(|| issues.join("; ")));
        }
        tracer.end(round);
        sampler.between_ops()?;
    }
    m.rss_mib = report::peak_rss_mib();
    m.steal_share = report::steal_share(ticks, report::cpu_ticks());
    m.replicated = baseline.replicated();
    m.results = baseline.results();

    for ((t, outcome), (_, replica_sum, _)) in tenants.iter().zip(&baseline.outcomes).zip(&replicas)
    {
        let solo = solo_outcome(cluster, t);
        let agrees =
            matches!((&solo, outcome), (Ok(a), Ok(b)) if a == b && a.checksum == *replica_sum);
        if !agrees {
            m.problems.push(format!(
                "tenant {}: solo oracle {solo:?}, queue {outcome:?}, replica checksum {replica_sum:016x}",
                t.name
            ));
            m.tally.fail_all();
        }
    }
    Ok(m)
}

fn serve_layers(
    l: &mut LayerSamples,
    run: &QueueRun,
    journal_bytes: u64,
    estimates: &[u64],
    replicas: &[(JoinPrint, u64, u64)],
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let waits = sorted(run.tenants.iter().map(|t| ms(t.queue_wait)).collect());
    let turnarounds = sorted(run.tenants.iter().map(|t| ms(t.turnaround)).collect());
    l.time("engine.jobs.queue_wait_p90_ms", nearest_rank(&waits, 90.0));
    l.time(
        "engine.jobs.turnaround_p50_ms",
        nearest_rank(&turnarounds, 50.0),
    );
    l.time(
        "engine.jobs.turnaround_p90_ms",
        nearest_rank(&turnarounds, 90.0),
    );
    let sum =
        |f: fn(&asj_serve::TenantReport) -> u64| run.tenants.iter().map(f).sum::<u64>() as f64;
    l.count("engine.jobs.quanta", sum(|t| t.quanta));
    l.count("engine.attempts", sum(|t| t.attempts));
    l.count("engine.retries", sum(|t| t.retries));
    l.count("engine.memory.spilled_bytes", sum(|t| t.spilled_bytes));
    l.count("engine.memory.residual_bytes", sum(|t| t.residual_bytes));
    l.count("engine.checkpoint.bytes", run.checkpoint_bytes as f64);
    l.count(
        "engine.checkpoint.stages_recovered",
        run.stages_recovered as f64,
    );
    l.time("engine.journal.bytes", journal_bytes as f64);
    l.time(
        "serve.durable_bytes_per_job",
        (run.checkpoint_bytes + journal_bytes) as f64 / run.tenants.len() as f64,
    );
    let estimate: u64 = estimates.iter().sum();
    let peak: u64 = replicas.iter().map(|(_, _, peak)| peak).sum();
    l.count("serve.estimate_bytes", estimate as f64);
    l.count("serve.estimate_ratio", estimate as f64 / peak.max(1) as f64);
    l.count(
        "engine.shuffle_total_bytes",
        replicas
            .iter()
            .map(|(p, _, _)| p.remote_bytes + p.local_bytes)
            .sum::<u64>() as f64,
    );
    l.count(
        "engine.peak_partition_bytes",
        replicas
            .iter()
            .map(|(p, _, _)| p.peak_partition_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
}

/// Prints the metric table and result line, writes the result file, and
/// returns whether every operation was correct.
fn finish(
    args: &Args,
    setup: &Setup,
    setups: &SetupTimes,
    m: Measured,
    tracer: &Tracer,
    results_dir: &Path,
) -> Result<bool, String> {
    if m.walls.is_empty() {
        return Err(format!("no operation completed: {:?}", m.problems));
    }
    let w = args.workload;
    let n = m.walls.len();
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let loop_wall: f64 = m.walls.iter().sum();
    let loop_cpu: f64 = m.cpus.iter().sum();
    let points = setup.points_per_op as f64 * n as f64;
    let tail_level = w.tail_level();
    let rule_level = stats::tail_level(n);

    // Wall-clock figures: what one client saw on this host, neighbours
    // included. Reported and written to the result file, but not gated (see
    // README.md, "Why CPU time").
    let wall = vec![
        Metric {
            name: "op_wall_p50_ms",
            unit: "ms",
            value: median(&m.walls) * 1e3,
        },
        Metric {
            name: "op_wall_tail_ms",
            unit: "ms",
            value: nearest_rank(&sorted(&m.walls), tail_level) * 1e3,
        },
        Metric {
            name: "input_mpts_per_s",
            unit: "Mpts/s",
            value: points / loop_wall / 1e6,
        },
        Metric {
            name: "jobs_per_s",
            unit: "jobs/s",
            value: (w.jobs_per_op() * n as u64) as f64 / loop_wall,
        },
        Metric {
            name: "sim_p50_s",
            unit: "s",
            value: median(&m.sims),
        },
        Metric {
            name: "setup_wall_s",
            unit: "s",
            value: median(&setups.wall),
        },
    ];

    let metrics: Vec<Metric> = if args.trace {
        per_layer_metrics(&m, &setups.generate)
    } else {
        vec![
            Metric {
                name: "op_cpu_p50_ms",
                unit: "ms",
                value: median(&m.cpus) * 1e3,
            },
            Metric {
                name: "op_cpu_tail_ms",
                unit: "ms",
                value: nearest_rank(&sorted(&m.cpus), tail_level) * 1e3,
            },
            Metric {
                name: "input_mpts_per_cpu_s",
                unit: "Mpts/cpu-s",
                value: points / loop_cpu / 1e6,
            },
            Metric {
                name: "replicated_objects",
                unit: "count",
                value: m.replicated as f64,
            },
            Metric {
                name: "shuffle_remote_mib",
                unit: "MiB",
                value: m.remote_bytes as f64 / MIB,
            },
            Metric {
                name: "peak_rss_mib",
                unit: "MiB",
                value: m.rss_mib,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: median(&setups.cpu),
            },
        ]
    };

    let correct = m.tally.failed == 0;
    let stamp = Json::obj([
        ("workload", Json::str(w.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(report::nproc() as u64)),
        ("threads", Json::Int(setup.cluster.threads() as u64)),
        ("nodes", Json::Int(setup.cluster.nodes() as u64)),
        (
            "partitions",
            Json::Int(if w == Workload::ServeDurable {
                24
            } else {
                PARTITIONS as u64
            }),
        ),
        ("git_rev", Json::str(report::git_rev())),
        (
            "input_digest",
            Json::str(format!("{:016x}", setup.digest())),
        ),
        ("params", Json::obj(m.params.clone())),
    ]);
    let base = format!(
        "{}-seed{}-trace{}-{}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let mut file = vec![
        ("stamp", stamp),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(m.tally.attempted)),
        ("failed", Json::Int(m.tally.failed)),
        ("failed_share", Json::Num(m.tally.failed_share())),
        (
            "problems",
            Json::Arr(m.problems.iter().map(|p| Json::str(p.clone())).collect()),
        ),
        (
            "warnings",
            Json::Arr(m.warnings.iter().map(|w| Json::str(w.clone())).collect()),
        ),
        ("metrics", report::metrics_json(&metrics)),
        ("wall", report::metrics_json(&wall)),
        ("results", Json::Int(m.results)),
        (
            "durable_bytes_per_job",
            Json::Num(m.durable_bytes as f64 / w.jobs_per_op() as f64),
        ),
        (
            "op_wall_samples_s",
            Json::Arr(m.walls.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "tail",
            Json::obj([
                ("level", Json::Num(tail_level)),
                ("samples", Json::Int(n as u64)),
                ("beyond", Json::Int(stats::beyond(n, tail_level) as u64)),
            ]),
        ),
        ("steal_share", m.steal_share.map_or(Json::Null, Json::Num)),
        (
            "op_cpu_samples_s",
            Json::Arr(m.cpus.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "setup_cpu_samples_s",
            Json::Arr(setups.cpu.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "setup_wall_samples_s",
            Json::Arr(setups.wall.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ];
    let mut trace_path = None;
    if args.trace {
        file.push((
            "bench_spans",
            Json::Arr(
                tracer
                    .spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("op", Json::Int(s.op)),
                            ("name", Json::str(s.name)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                            ),
                            ("start_ns", Json::Int(s.start_ns)),
                            ("end_ns", Json::Int(s.end_ns)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(trace) = &m.last_trace {
            let path = results_dir.join(format!("{base}.recorder.json"));
            trace
                .write_to(&path, asj_engine::TraceFormat::Chrome)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            file.push(("recorder_trace", Json::str(path.display().to_string())));
            trace_path = Some(path);
        }
    }
    let path: PathBuf = results_dir.join(format!("{base}.json"));
    fs::write(&path, Json::obj(file).render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    println!(
        "workload {} seed {} ({} s, trace {}): nproc {}, threads {}, {} nodes",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::nproc(),
        setup.cluster.threads(),
        setup.cluster.nodes()
    );
    println!(
        "  operations {} timed ({} attempted, {} failed, failed_share {:.4}); results {}",
        n,
        m.tally.attempted,
        m.tally.failed,
        m.tally.failed_share(),
        m.results
    );
    if let Some(steal) = m.steal_share {
        println!("  host CPU steal during the loop {:.2}%", steal * 100.0);
    }
    println!(
        "  tail: p{tail_level} over {n} samples ({} beyond; the rule gives p{})",
        stats::beyond(n, tail_level),
        rule_level.map_or("-".to_string(), |l| l.to_string())
    );
    if n >= 2 {
        println!(
            "  op spread (IQR / median): CPU {:.4}, wall {:.4}",
            stats::spread(&m.cpus),
            stats::spread(&m.walls)
        );
    }
    for p in &m.problems {
        println!("  problem: {p}");
    }
    for w in &m.warnings {
        println!("  warning: {w}");
    }
    report::print_table(
        if args.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        },
        &metrics,
    );
    report::print_table("wall clock on this host (not gated)", &wall);
    println!("  result file {}", path.display());
    if let Some(p) = trace_path {
        println!("  recorder trace {}", p.display());
    }
    println!(
        "{}",
        report::result_line(correct, m.tally.attempted, m.tally.failed, &metrics)
    );
    Ok(correct)
}

fn per_layer_metrics(m: &Measured, generate_times: &[f64]) -> Vec<Metric> {
    let l = &m.layers;
    let mut values: BTreeMap<&str, f64> = l.counts.iter().map(|(&k, &v)| (k, v)).collect();
    for (&k, v) in &l.times {
        values.insert(k, median(v));
    }
    values.insert("data.generate_ms", median(generate_times) * 1e3);
    values.insert("engine.sim_p50_s", median(&m.sims));
    if !m.traced_walls.is_empty() {
        values.insert(
            "trace.overhead_ms",
            (median(&m.traced_walls) - median(&m.walls)) * 1e3,
        );
    }
    values.insert("trace.rounds", m.traced_walls.len() as f64);
    let unknown: Vec<&&str> = values
        .keys()
        .filter(|k| !PER_LAYER.iter().any(|(name, _)| name == *k))
        .collect();
    assert!(unknown.is_empty(), "unlisted per-layer metrics {unknown:?}");
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}
