//! The traced run's layer measurements: the benchmark's own spans around
//! its calls into each layer's public functions, micro-drivers that repeat a
//! join's steps one layer at a time, and the phase spans of the program's
//! `Recorder`.

use crate::workload::{JoinParams, JoinPrint, PARTITIONS};
use asj_core::{AgreementGraph, AgreementPolicy, GridSample, SetLabel};
use asj_engine::obs::{Lane, Span};
use asj_engine::{Cluster, Dataset, HashPartitioner, KeyedDataset, ShuffleStats, Trace};
use asj_grid::{CellCoord, Grid, GridSpec};
use asj_index::{kernels, PointBatch};
use asj_join::{Algorithm, Record};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One span the benchmark recorded around a call into the program.
#[derive(Debug, Clone)]
pub struct BenchSpan {
    /// Operation (round) the span belongs to; shared by all its spans.
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<BenchSpan>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, op: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(BenchSpan {
            op,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn end(&mut self, id: usize) -> Duration {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        Duration::from_nanos(end_ns - span.start_ns)
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration.
    pub fn time<R>(
        &mut self,
        op: u64,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.begin(op, name, Some(parent));
        let out = f();
        (out, self.end(id))
    }
}

/// Per-layer samples, one value per traced round.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// Timings: the run reports their median.
    pub times: BTreeMap<&'static str, Vec<f64>>,
    /// Exact counts: every round must repeat the first round's value.
    pub counts: BTreeMap<&'static str, f64>,
    /// Counts that differed between rounds (a determinism failure).
    pub unstable: Vec<&'static str>,
}

impl LayerSamples {
    pub fn time(&mut self, name: &'static str, value: f64) {
        self.times.entry(name).or_default().push(value);
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if let Some(&prev) = self.counts.get(name) {
            if prev != value && !self.unstable.contains(&name) {
                self.unstable.push(name);
            }
        }
        self.counts.insert(name, value);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repeats one join's steps layer by layer on the workload's inputs:
/// sampling and the agreement graph (LPiB), the per-point assignment, the
/// shuffle, the columnar batch build and the local-join kernel. Returns a
/// description of every count that disagrees with the program's own join
/// (`program`): the drivers no longer mirror the program's steps, so their
/// timings stop describing it. That is a warning, not a failed operation.
#[allow(clippy::too_many_arguments)]
pub fn join_layers(
    tracer: &mut Tracer,
    op: u64,
    parent: usize,
    cluster: &Cluster,
    params: &JoinParams,
    r: &[Record],
    s: &[Record],
    program: &JoinPrint,
    samples: &mut LayerSamples,
) -> Vec<String> {
    let spec = params.spec();
    let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
    let rdd_r = Dataset::from_vec(r.to_vec(), spec.input_partitions);
    let rdd_s = Dataset::from_vec(s.to_vec(), spec.input_partitions);

    // The agreement graph, built the way LPiB builds it; UNI(R) has none.
    let graph = if params.algorithm == Algorithm::Lpib {
        let ((sample_r, sample_s), took) = tracer.time(op, "engine.sample", parent, || {
            let (a, _) = rdd_r.sample(cluster, spec.sample_fraction, spec.seed);
            let (b, _) = rdd_s.sample(cluster, spec.sample_fraction, spec.seed ^ 0x5151);
            (a, b)
        });
        samples.time("engine.sample_ms", ms(took));
        let (graph, took) = tracer.time(op, "core.graph_build", parent, || {
            let sample = GridSample::from_points(
                &grid,
                sample_r.iter().map(|rec| rec.point),
                sample_s.iter().map(|rec| rec.point),
            );
            AgreementGraph::build(&grid, &sample, AgreementPolicy::Lpib)
        });
        samples.time("core.graph_build_ms", ms(took));
        samples.count("core.graph_cells", grid.num_cells() as f64);
        samples.count("core.marked_edges", graph.marked_edge_count() as f64);
        samples.count("core.locked_edges", graph.locked_edge_count() as f64);
        Some(graph)
    } else {
        for name in ["engine.sample_ms", "core.graph_build_ms"] {
            samples.time(name, 0.0);
        }
        for name in ["core.graph_cells", "core.marked_edges", "core.locked_edges"] {
            samples.count(name, 0.0);
        }
        None
    };

    // Assignment of every R and S point to its cells: the agreement graph's
    // Figure-9 dispatch for LPiB, universal replication of R for UNI(R).
    let assign = |p: asj_geom::Point, label: SetLabel, out: &mut Vec<CellCoord>| match &graph {
        Some(g) => g.assign(p, label, out),
        None => {
            out.clear();
            out.push(grid.cell_of(p));
            if label == SetLabel::R {
                grid.push_cells_within_eps(p, out);
            }
        }
    };
    let inputs = [(&rdd_r, SetLabel::R), (&rdd_s, SetLabel::S)];
    let (cells, took) = tracer.time(op, "core.assign", parent, || {
        // Per side: each record's cell indices, flattened, plus offsets.
        let mut scratch = Vec::with_capacity(4);
        inputs.map(|(rdd, label)| {
            let mut flat: Vec<u64> = Vec::with_capacity(rdd.len() * 2);
            let mut ends: Vec<u32> = Vec::with_capacity(rdd.len());
            for rec in rdd.iter() {
                assign(rec.point, label, &mut scratch);
                flat.extend(scratch.iter().map(|&c| grid.cell_index(c) as u64));
                ends.push(flat.len() as u32);
            }
            (flat, ends)
        })
    });
    let points = (r.len() + s.len()) as f64;
    samples.time("core.assign_ns_per_point", took.as_nanos() as f64 / points);
    let keyed_records = cells[0].0.len() + cells[1].0.len();
    samples.count("core.replicas_per_input", keyed_records as f64 / points);

    let mut mismatches = Vec::new();
    let mut expect = |what: &str, layer: u64, prog: u64| {
        if layer != prog {
            mismatches.push(format!("{what}: layer drivers {layer}, program {prog}"));
        }
    };
    expect(
        "replicated objects",
        keyed_records as u64 - r.len() as u64 - s.len() as u64,
        program.replicated,
    );

    // Keyed partitions in the input partitioning, as the mapping stage
    // emits them (replicas first, the native cell last).
    let keyed: [KeyedDataset<u64, Record>; 2] = std::array::from_fn(|side| {
        let (rdd, (flat, ends)) = (inputs[side].0, &cells[side]);
        let mut ends = ends.iter().map(|&e| e as usize);
        let mut start = 0;
        let parts = rdd
            .partitions()
            .iter()
            .map(|part| {
                let mut out = Vec::with_capacity(part.len());
                for rec in part {
                    let end = ends.next().expect("one cell range per record");
                    let mine = &flat[start..end];
                    start = end;
                    for &c in &mine[1..] {
                        out.push((c, rec.clone()));
                    }
                    out.push((mine[0], rec.clone()));
                }
                out
            })
            .collect();
        KeyedDataset::from_partitions(parts)
    });

    let partitioner = HashPartitioner::new(PARTITIONS);
    let ([shuffled_r, shuffled_s], took) = tracer.time(op, "engine.shuffle", parent, || {
        keyed.map(|k| k.shuffle(cluster, &partitioner))
    });
    samples.time("engine.shuffle_ms", ms(took));
    let mut shuffle = ShuffleStats::default();
    shuffle.merge(&shuffled_r.1);
    shuffle.merge(&shuffled_s.1);
    expect(
        "shuffle remote bytes",
        shuffle.remote_bytes,
        program.remote_bytes,
    );
    expect(
        "shuffle local bytes",
        shuffle.local_bytes,
        program.local_bytes,
    );
    samples.count("engine.shuffle_total_bytes", shuffle.total_bytes() as f64);
    samples.count(
        "engine.peak_partition_bytes",
        shuffle.peak_partition_bytes() as f64,
    );

    let parts_r = shuffled_r.0.into_partitions();
    let parts_s = shuffled_s.0.into_partitions();
    let pos = |rec: &Record| rec.point;
    let id = |rec: &Record| rec.id;
    let (batches, took) = tracer.time(op, "index.batch_build", parent, || {
        parts_r
            .iter()
            .zip(&parts_s)
            .map(|(pr, ps)| {
                (
                    PointBatch::from_keyed(pr, pos, id),
                    PointBatch::from_keyed(ps, pos, id),
                )
            })
            .collect::<Vec<_>>()
    });
    samples.time("index.batch_build_ms", ms(took));

    let model = cluster.kernel_cost_model(kernels::calibrate_cost_model);
    let ((candidates, results), took) = tracer.time(op, "index.kernel", parent, || {
        let (mut candidates, mut results) = (0u64, 0u64);
        for (br, bs) in &batches {
            let (mut gi, mut gj) = (0, 0);
            while gi < br.num_groups() && gj < bs.num_groups() {
                match br.keys()[gi].cmp(&bs.keys()[gj]) {
                    std::cmp::Ordering::Less => gi += 1,
                    std::cmp::Ordering::Greater => gj += 1,
                    std::cmp::Ordering::Equal => {
                        let outcome = kernels::local_join_view(
                            spec.kernel,
                            &model,
                            spec.eps,
                            br.group(gi),
                            bs.group(gj),
                            |i, j| {
                                black_box((i, j));
                            },
                        );
                        candidates += outcome.stats.candidates;
                        results += outcome.stats.results;
                        gi += 1;
                        gj += 1;
                    }
                }
            }
        }
        (candidates, results)
    });
    samples.time("index.kernel_ms", ms(took));
    samples.time(
        "index.ns_per_candidate",
        took.as_nanos() as f64 / candidates.max(1) as f64,
    );
    samples.count("index.candidates", candidates as f64);
    samples.count("index.results", results as f64);
    samples.count(
        "index.refine_ratio",
        results as f64 / candidates.max(1) as f64,
    );
    expect("candidates", candidates, program.candidates);
    expect("results", results, program.results);
    mismatches
}

/// The program's join phases, as its `Recorder` names their driver-lane
/// spans.
pub const PHASES: [&str; 5] = [
    "sampling",
    "agreement_graph",
    "marking",
    "shuffle",
    "local_join",
];

/// Wall and self time in ms of each of [`PHASES`], summed over the trace's
/// driver-lane phase spans. A phase's self time is its duration minus the
/// part of it that the spans nested inside it (its tasks on the node lanes
/// and any inner driver phases) cover: the driver's own share. A phase the
/// join never entered reads 0.
pub fn phase_times(trace: &Trace) -> BTreeMap<&'static str, (f64, f64)> {
    let interval = |s: &Span| (s.wall_start_ns, s.wall_start_ns + s.wall_dur_ns);
    let mut out: BTreeMap<&'static str, (f64, f64)> =
        PHASES.iter().map(|&p| (p, (0.0, 0.0))).collect();
    for (i, span) in trace.spans.iter().enumerate() {
        let Some(phase) = PHASES
            .iter()
            .find(|&&p| p == span.stage && span.lane == Lane::Driver)
        else {
            continue;
        };
        let (start, end) = interval(span);
        let mut inner: Vec<(u64, u64)> = trace
            .spans
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, s)| interval(s))
            .filter(|&(s, e)| s >= start && e <= end)
            .collect();
        inner.sort_unstable();
        let (mut covered, mut reach) = (0u64, start);
        for (s, e) in inner {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        let entry = out.get_mut(phase).expect("every phase has an entry");
        entry.0 += (end - start) as f64 / 1e6;
        entry.1 += (end - start - covered) as f64 / 1e6;
    }
    out
}

/// Sum of the recorder counter `name` over every stage (and every job's
/// stage prefix).
pub fn counter_total(trace: &Trace, name: &str) -> u64 {
    trace
        .metrics
        .counters
        .iter()
        .filter(|((_, counter), _)| counter == name)
        .map(|(_, &v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asj_engine::obs::Attrs;

    fn driver_span(stage: &str, start: u64, dur: u64) -> Span {
        Span {
            stage: stage.to_string(),
            lane: Lane::Driver,
            partition: None,
            attrs: Attrs::new(),
            wall_start_ns: start,
            wall_dur_ns: dur,
            sim_start_ns: start,
            sim_dur_ns: dur,
        }
    }

    #[test]
    fn self_time_excludes_nested_driver_spans() {
        let trace = Trace {
            nodes: 1,
            spans: vec![
                driver_span("shuffle", 0, 10_000_000),
                driver_span("stitch", 2_000_000, 3_000_000),
                driver_span("stitch", 4_000_000, 2_000_000),
                Span {
                    lane: Lane::Node(3),
                    ..driver_span("shuffle.R", 8_000_000, 1_000_000)
                },
                driver_span("local_join", 10_000_000, 5_000_000),
                driver_span("local_join", 20_000_000, 1_000_000),
            ],
            ..Trace::default()
        };
        let phases = phase_times(&trace);
        assert_eq!(
            phases["shuffle"],
            (10.0, 5.0),
            "overlapping children count once, node-lane tasks count"
        );
        assert_eq!(phases["local_join"], (6.0, 6.0), "repeated phases add up");
        assert_eq!(phases["agreement_graph"], (0.0, 0.0));
    }

    #[test]
    fn spans_close_with_their_duration() {
        let mut tracer = Tracer::new();
        let root = tracer.begin(3, "round", None);
        let ((), took) = tracer.time(3, "child", root, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.end(root);
        assert!(took >= Duration::from_millis(2));
        let [r, c] = [&tracer.spans[0], &tracer.spans[1]];
        assert_eq!((c.parent, c.op), (Some(root), 3));
        assert!(r.start_ns <= c.start_ns && c.end_ns <= r.end_ns);
    }
}
