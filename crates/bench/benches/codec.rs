//! Micro-benchmarks of the data-movement hot paths the radix shuffle leans
//! on: `Wire` encode/decode of join records and the columnar
//! [`PointBatch`](asj_index::PointBatch) builds the join kernels consume
//! (one side alone, and both sides co-grouped as the local join runs it).

use asj_data::{DatasetSpec, GenKind, PAPER_BBOX};
use asj_engine::Wire;
use asj_index::PointBatch;
use asj_join::{to_records, Record};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn records(n: usize, payload: usize) -> Vec<Record> {
    let points = DatasetSpec {
        name: "codec",
        kind: GenKind::Uniform,
        cardinality: n,
        seed: 7,
        bbox: PAPER_BBOX,
        sigma_scale: 1.0,
    }
    .points();
    to_records(&points, payload)
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec_100k_records");
    for payload in [0usize, 64] {
        let recs = records(100_000, payload);
        group.bench_with_input(BenchmarkId::new("encode", payload), &recs, |b, recs| {
            b.iter(|| {
                let size: usize = recs.iter().map(Wire::encoded_size).sum();
                let mut buf = Vec::with_capacity(size);
                for r in recs {
                    r.encode(&mut buf);
                }
                black_box(buf)
            })
        });
        let size: usize = recs.iter().map(Wire::encoded_size).sum();
        let mut encoded = Vec::with_capacity(size);
        for r in &recs {
            r.encode(&mut encoded);
        }
        group.bench_with_input(
            BenchmarkId::new("decode", payload),
            &encoded,
            |b, encoded| {
                b.iter(|| {
                    let mut buf: &[u8] = encoded;
                    let mut out = Vec::with_capacity(recs.len());
                    while !buf.is_empty() {
                        out.push(Record::decode(&mut buf));
                    }
                    black_box(out)
                })
            },
        );
    }
    group.finish();

    // The shuffle-receive step the columnar kernels depend on: keyed tuples
    // in, sorted SoA group lanes out.
    let mut group = c.benchmark_group("point_batch_build_100k");
    for groups in [16u64, 1024] {
        let keyed: Vec<(u64, Record)> = records(100_000, 0)
            .into_iter()
            .map(|r| (r.id % groups, r))
            .collect();
        group.bench_with_input(BenchmarkId::new("groups", groups), &keyed, |b, keyed| {
            b.iter(|| black_box(PointBatch::from_keyed(keyed, |r| r.point, |r| r.id)))
        });
    }
    // The local join's build: 50K records per side, co-grouped at once. S
    // spreads over twice R's keys, so half of its cells have no R partner
    // and are never gathered.
    for groups in [16u64, 1024] {
        let side = |seed_groups: u64| -> Vec<(u64, Record)> {
            records(50_000, 0)
                .into_iter()
                .map(|r| (r.id % seed_groups, r))
                .collect()
        };
        let pair = (side(groups), side(2 * groups));
        group.bench_with_input(
            BenchmarkId::new("co_grouped", groups),
            &pair,
            |b, (r, s)| b.iter(|| black_box(PointBatch::co_grouped(r, s, |r| r.point, |r| r.id))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
