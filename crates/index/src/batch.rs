//! Columnar (SoA) record batches for the local-join kernels.
//!
//! The shuffle delivers partitions as `(cell_id, record)` tuples. The
//! kernels, however, only ever touch three fields — `x`, `y` and the record
//! id — so walking the tuple array makes every comparison a pointer chase
//! through a 40-plus-byte stride. A [`PointBatch`] is built **once per
//! partition at shuffle-receive time**: records are grouped by cell and
//! their coordinates gathered into flat `xs`/`ys`/`ids` arrays, with one
//! `(key, range)` entry per cell group. The plane-sweep and ε-bucket
//! kernels then stream contiguous `f64` lanes ([`PointsView`]) instead of
//! re-extracting positions per group.
//!
//! The build radix-sorts light `(key, position)` entries on the key (a
//! stable LSD sort whose passes cover only the key digits that differ),
//! splits them into runs of equal key, and gathers each run's lanes in
//! ascending-`x` order — the precondition the sweep kernel needs, paid per
//! run instead of in one comparison sort over the whole partition.
//! [`PointBatch::co_grouped`] builds both sides of a join at once and
//! gathers only the runs whose key both sides hold (Algorithm 5 joins no
//! other cell), so points without a partner are never materialised.

use asj_geom::Point;
use std::cmp::Ordering;
use std::ops::Range;

/// A borrowed SoA slice of points: parallel `x` and `y` lanes.
///
/// Views produced by [`PointBatch::group`] are in ascending-`x` order.
#[derive(Debug, Clone, Copy)]
pub struct PointsView<'a> {
    pub xs: &'a [f64],
    pub ys: &'a [f64],
}

impl<'a> PointsView<'a> {
    pub fn new(xs: &'a [f64], ys: &'a [f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "SoA lanes must be parallel");
        PointsView { xs, ys }
    }

    pub fn empty() -> PointsView<'static> {
        PointsView { xs: &[], ys: &[] }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// A partition's records in columnar form, grouped by cell key.
///
/// Invariants: `keys` is strictly ascending; group `g` occupies
/// `starts[g]..starts[g + 1]` of the `xs`/`ys`/`ids` lanes; within a group
/// the lanes are sorted by `x` (`f64::total_cmp`), records with equal `x`
/// in their input order. A batch addresses at most `u32::MAX` records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointBatch {
    keys: Vec<u64>,
    starts: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u64>,
}

impl PointBatch {
    /// Builds a batch holding every cell group of one shuffled partition.
    /// `pos`/`id` extract the coordinate and identity of a record; the
    /// records themselves are not kept.
    pub fn from_keyed<T>(
        part: &[(u64, T)],
        pos: impl Fn(&T) -> Point,
        id: impl Fn(&T) -> u64,
    ) -> PointBatch {
        let sorted = sort_by_key(part);
        gather(part, &sorted, key_runs(&sorted), part.len(), &pos, &id)
    }

    /// Builds the two sides of a partition-local join at once, keeping only
    /// the cell keys both `r` and `s` hold: group `g` has the same key in
    /// both batches. Points in a cell the other side does not
    /// occupy are never gathered, and each batch's group is exactly what
    /// [`PointBatch::from_keyed`] would hold under that key.
    pub fn co_grouped<T>(
        r: &[(u64, T)],
        s: &[(u64, T)],
        pos: impl Fn(&T) -> Point,
        id: impl Fn(&T) -> u64,
    ) -> (PointBatch, PointBatch) {
        let (sorted_r, sorted_s) = (sort_by_key(r), sort_by_key(s));
        let mut common: Vec<(u64, Range<usize>, Range<usize>)> = Vec::new();
        let (mut points_r, mut points_s) = (0, 0);
        let (mut iter_r, mut iter_s) = (key_runs(&sorted_r), key_runs(&sorted_s));
        let (mut next_r, mut next_s) = (iter_r.next(), iter_s.next());
        while let (Some((kr, run_r)), Some((ks, run_s))) = (next_r.clone(), next_s.clone()) {
            match kr.cmp(&ks) {
                Ordering::Less => next_r = iter_r.next(),
                Ordering::Greater => next_s = iter_s.next(),
                Ordering::Equal => {
                    points_r += run_r.len();
                    points_s += run_s.len();
                    common.push((kr, run_r, run_s));
                    next_r = iter_r.next();
                    next_s = iter_s.next();
                }
            }
        }
        let runs_r = common.iter().map(|(k, run, _)| (*k, run.clone()));
        let runs_s = common.iter().map(|(k, _, run)| (*k, run.clone()));
        (
            gather(r, &sorted_r, runs_r, points_r, &pos, &id),
            gather(s, &sorted_s, runs_s, points_s, &pos, &id),
        )
    }

    /// Distinct cell keys, ascending.
    #[inline]
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Number of cell groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }

    /// Total points across groups.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.xs.len()
    }

    #[inline]
    fn range(&self, g: usize) -> Range<usize> {
        self.starts[g] as usize..self.starts[g + 1] as usize
    }

    /// The SoA view of group `g`, sorted by `x`.
    #[inline]
    pub fn group(&self, g: usize) -> PointsView<'_> {
        let r = self.range(g);
        PointsView {
            xs: &self.xs[r.clone()],
            ys: &self.ys[r],
        }
    }

    /// The record ids of group `g`, parallel to [`PointBatch::group`].
    #[inline]
    pub fn group_ids(&self, g: usize) -> &[u64] {
        &self.ids[self.range(g)]
    }
}

/// Key bits per radix pass: two passes cover the cell keys of grids with
/// fewer than 2²² cells, and the 16 KiB count table stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX_MASK: u64 = (1 << RADIX_BITS) - 1;

/// A partition's `(key, position)` entries, sorted on the key by a stable
/// LSD radix sort: records with equal keys keep their input order. Digits
/// on which every key agrees get no pass.
fn sort_by_key<T>(part: &[(u64, T)]) -> Vec<(u64, u32)> {
    assert!(
        u32::try_from(part.len()).is_ok(),
        "a PointBatch addresses at most u32::MAX records, got {}",
        part.len()
    );
    let mut entries = Vec::with_capacity(part.len());
    let (mut all, mut any) = (u64::MAX, 0u64);
    for ((key, _), i) in part.iter().zip(0u32..) {
        all &= key;
        any |= key;
        entries.push((*key, i));
    }
    let differing = all ^ any;
    let mut scratch = Vec::new();
    for shift in (0..u64::BITS).step_by(RADIX_BITS as usize) {
        if (differing >> shift) & RADIX_MASK == 0 {
            continue;
        }
        let digit = |key: u64| ((key >> shift) & RADIX_MASK) as usize;
        let mut offsets = [0usize; 1 << RADIX_BITS];
        for &(key, _) in &entries {
            offsets[digit(key)] += 1;
        }
        let mut next = 0;
        for slot in offsets.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
        scratch.resize(entries.len(), (0, 0));
        for &entry in &entries {
            let slot = &mut offsets[digit(entry.0)];
            scratch[*slot] = entry;
            *slot += 1;
        }
        std::mem::swap(&mut entries, &mut scratch);
    }
    entries
}

/// `x` as an unsigned key whose order is `f64::total_cmp`'s: the sign bit
/// set for non-negative values, every bit flipped for negative ones.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    let negative = (bits as i64 >> 63) as u64;
    bits ^ (negative | 1 << 63)
}

/// The runs of equal key in key-sorted entries, as `(key, range)`.
fn key_runs(sorted: &[(u64, u32)]) -> impl Iterator<Item = (u64, Range<usize>)> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let &(key, _) = sorted.get(start)?;
        let len = sorted[start..].iter().take_while(|e| e.0 == key).count();
        start += len;
        Some((key, start - len..start))
    })
}

/// Gathers one group per `(key, run)` of `sorted`, each run ordered by `x`
/// with ties in input order. `points`, the runs' total length, sizes the
/// lanes exactly.
fn gather<T>(
    part: &[(u64, T)],
    sorted: &[(u64, u32)],
    runs: impl Iterator<Item = (u64, Range<usize>)>,
    points: usize,
    pos: &impl Fn(&T) -> Point,
    id: &impl Fn(&T) -> u64,
) -> PointBatch {
    let mut batch = PointBatch {
        keys: Vec::new(),
        starts: vec![0],
        xs: Vec::with_capacity(points),
        ys: Vec::with_capacity(points),
        ids: Vec::with_capacity(points),
    };
    let mut by_x: Vec<(u64, u32)> = Vec::new();
    for (key, run) in runs {
        by_x.clear();
        by_x.extend(
            sorted[run]
                .iter()
                .map(|&(_, i)| (total_order_key(pos(&part[i as usize].1).x), i)),
        );
        // The run is in input order, so breaking `x` ties on the position
        // keeps equal-`x` records in input order.
        by_x.sort_unstable();
        for &(_, i) in &by_x {
            let rec = &part[i as usize].1;
            let p = pos(rec);
            batch.xs.push(p.x);
            batch.ys.push(p.y);
            batch.ids.push(id(rec));
        }
        batch.keys.push(key);
        // `sort_by_key` bounded the partition, so every offset fits.
        batch
            .starts
            .push(u32::try_from(batch.xs.len()).expect("PointBatch offsets fit in u32"));
    }
    debug_assert_eq!(batch.xs.len(), points);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keyed(rows: &[(u64, f64, f64, u64)]) -> Vec<(u64, (Point, u64))> {
        rows.iter()
            .map(|&(k, x, y, id)| (k, (Point::new(x, y), id)))
            .collect()
    }

    fn build(part: &[(u64, (Point, u64))]) -> PointBatch {
        PointBatch::from_keyed(part, |v| v.0, |v| v.1)
    }

    #[test]
    fn groups_by_key_and_sorts_by_x() {
        let part = keyed(&[
            (2, 5.0, 1.0, 100),
            (1, 9.0, 2.0, 101),
            (2, 3.0, 4.0, 102),
            (1, 0.5, 8.0, 103),
            (2, 4.0, 0.0, 104),
        ]);
        let b = build(&part);
        assert_eq!(b.keys(), &[1, 2]);
        assert_eq!(b.num_groups(), 2);
        assert_eq!(b.num_points(), 5);
        let g1 = b.group(0);
        assert_eq!(g1.xs, &[0.5, 9.0]);
        assert_eq!(g1.ys, &[8.0, 2.0]);
        assert_eq!(b.group_ids(0), &[103, 101]);
        let g2 = b.group(1);
        assert_eq!(g2.xs, &[3.0, 4.0, 5.0]);
        assert_eq!(g2.ys, &[4.0, 0.0, 1.0]);
        assert_eq!(b.group_ids(1), &[102, 104, 100]);
    }

    #[test]
    fn empty_partition_yields_empty_batch() {
        let b = build(&[]);
        assert_eq!(b.num_groups(), 0);
        assert_eq!(b.num_points(), 0);
        assert!(b.keys().is_empty());
    }

    #[test]
    fn single_group_spans_everything() {
        let part = keyed(&[(7, 2.0, 0.0, 1), (7, 1.0, 0.0, 2)]);
        let b = build(&part);
        assert_eq!(b.keys(), &[7]);
        assert_eq!(b.group(0).len(), 2);
        assert_eq!(b.group_ids(0), &[2, 1]);
    }

    #[test]
    fn view_lanes_stay_parallel() {
        let part = keyed(&[(1, 1.0, 10.0, 5), (1, 2.0, 20.0, 6), (2, 3.0, 30.0, 7)]);
        let b = build(&part);
        for g in 0..b.num_groups() {
            let v = b.group(g);
            assert_eq!(v.xs.len(), v.ys.len());
            assert_eq!(v.len(), b.group_ids(g).len());
            assert!(v.xs.windows(2).all(|w| w[0] <= w[1]), "group {g} unsorted");
        }
    }

    #[test]
    #[should_panic(expected = "SoA lanes must be parallel")]
    fn mismatched_lanes_rejected() {
        let _ = PointsView::new(&[1.0, 2.0], &[1.0]);
    }

    /// Reference build: one stable comparison sort of `(key, x)` over the
    /// whole partition, so equal-`x` records of a cell keep their input
    /// order.
    fn comparison_build(part: &[(u64, (Point, u64))]) -> PointBatch {
        let mut order: Vec<usize> = (0..part.len()).collect();
        order.sort_by(|&a, &b| {
            let (ka, kb) = (part[a].0, part[b].0);
            ka.cmp(&kb)
                .then_with(|| part[a].1 .0.x.total_cmp(&part[b].1 .0.x))
        });
        let mut batch = PointBatch {
            starts: vec![0],
            ..PointBatch::default()
        };
        for i in order {
            let (k, (p, id)) = part[i];
            if batch.keys.last() != Some(&k) {
                if !batch.keys.is_empty() {
                    batch.starts.push(batch.xs.len() as u32);
                }
                batch.keys.push(k);
            }
            batch.xs.push(p.x);
            batch.ys.push(p.y);
            batch.ids.push(id);
        }
        if !batch.keys.is_empty() {
            batch.starts.push(batch.xs.len() as u32);
        }
        batch
    }

    /// `batch` with only the groups whose key is in `keep`.
    fn restrict(batch: &PointBatch, keep: &[u64]) -> PointBatch {
        let mut out = PointBatch {
            starts: vec![0],
            ..PointBatch::default()
        };
        for g in 0..batch.num_groups() {
            if keep.binary_search(&batch.keys[g]).is_ok() {
                let r = batch.range(g);
                out.keys.push(batch.keys[g]);
                out.xs.extend_from_slice(&batch.xs[r.clone()]);
                out.ys.extend_from_slice(&batch.ys[r.clone()]);
                out.ids.extend_from_slice(&batch.ids[r]);
                out.starts.push(out.xs.len() as u32);
            }
        }
        out
    }

    /// Every field, floats by bit pattern, so `-0.0` and `0.0` differ.
    type Bits = (Vec<u64>, Vec<u32>, Vec<u64>, Vec<u64>, Vec<u64>);

    fn bits(b: &PointBatch) -> Bits {
        let f = |lane: &[f64]| lane.iter().map(|v| v.to_bits()).collect();
        (
            b.keys.clone(),
            b.starts.clone(),
            f(&b.xs),
            f(&b.ys),
            b.ids.clone(),
        )
    }

    fn co_build(r: &[(u64, (Point, u64))], s: &[(u64, (Point, u64))]) -> (PointBatch, PointBatch) {
        PointBatch::co_grouped(r, s, |v| v.0, |v| v.1)
    }

    /// The co-grouped build against the comparison-sort reference
    /// restricted to the keys both sides hold.
    fn check_co_grouped(r: &[(u64, (Point, u64))], s: &[(u64, (Point, u64))]) {
        let (want_r, want_s) = (comparison_build(r), comparison_build(s));
        let common: Vec<u64> = want_r
            .keys()
            .iter()
            .copied()
            .filter(|k| want_s.keys().binary_search(k).is_ok())
            .collect();
        let (got_r, got_s) = co_build(r, s);
        assert_eq!(got_r.keys(), &common[..]);
        assert_eq!(bits(&got_r), bits(&restrict(&want_r, &common)));
        assert_eq!(bits(&got_s), bits(&restrict(&want_s, &common)));
        assert_eq!(bits(&build(r)), bits(&want_r));
    }

    #[test]
    fn co_grouped_keeps_only_common_keys() {
        let r = keyed(&[
            (5, 1.0, 0.0, 1),
            (2, 3.0, 0.0, 2),
            (9, 0.0, 0.0, 3),
            (2, 1.0, 0.0, 4),
        ]);
        let s = keyed(&[(2, 7.0, 1.0, 10), (7, 0.0, 0.0, 11), (9, 4.0, 2.0, 12)]);
        let (br, bs) = co_build(&r, &s);
        assert_eq!(br.keys(), &[2, 9]);
        assert_eq!(bs.keys(), &[2, 9]);
        assert_eq!(br.group_ids(0), &[4, 2]);
        assert_eq!(br.group_ids(1), &[3]);
        assert_eq!(bs.group_ids(0), &[10]);
        assert_eq!((br.num_points(), bs.num_points()), (3, 2));
        check_co_grouped(&r, &s);
    }

    #[test]
    fn co_grouped_edge_shapes() {
        let one = keyed(&[(3, 1.0, 1.0, 1)]);
        let other = keyed(&[(4, 1.0, 1.0, 2)]);
        for (r, s) in [(&[][..], &one[..]), (&one[..], &[][..]), (&[][..], &[][..])] {
            let (br, bs) = co_build(r, s);
            assert_eq!((br.num_groups(), bs.num_groups()), (0, 0));
            assert_eq!((br.num_points(), bs.num_points()), (0, 0));
        }
        // No common key: nothing is gathered.
        let (br, bs) = co_build(&one, &other);
        assert_eq!((br.num_points(), bs.num_points()), (0, 0));
        // A single shared key.
        let (br, bs) = co_build(&one, &one);
        assert_eq!((br.keys(), bs.keys()), (&[3u64][..], &[3u64][..]));
    }

    #[test]
    fn equal_x_keeps_input_order_and_negative_zero_sorts_first() {
        let part = keyed(&[
            (1, 2.0, 0.0, 10),
            (1, 0.0, 0.0, 11),
            (1, 2.0, 1.0, 12),
            (1, -0.0, 0.0, 13),
            (1, 2.0, 2.0, 14),
            (1, 0.0, 1.0, 15),
        ]);
        let b = build(&part);
        assert_eq!(b.group_ids(0), &[13, 11, 15, 10, 12, 14]);
        let (br, _) = co_build(&part, &part);
        assert_eq!(br.group_ids(0), b.group_ids(0));
    }

    #[test]
    fn wide_keys_sort_across_every_byte() {
        let keys = [
            u64::MAX,
            1 << 32,
            0,
            u64::MAX - 1,
            (1 << 32) + 1,
            1 << 56,
            7,
        ];
        let part: Vec<(u64, (Point, u64))> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, (Point::new(i as f64, 0.0), i as u64)))
            .collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(build(&part).keys(), &want[..]);
        check_co_grouped(&part, &part[2..]);
    }

    fn key() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..6,
            (1u64 << 32)..(1u64 << 32) + 3,
            (u64::MAX - 2)..=u64::MAX,
        ]
    }

    fn coord() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(-0.0), Just(1.5), Just(-2.0), -4.0f64..4.0]
    }

    fn side(ids_from: u64) -> impl Strategy<Value = Vec<(u64, (Point, u64))>> {
        prop::collection::vec((key(), coord(), coord()), 0..40).prop_map(move |rows| {
            rows.into_iter()
                .zip(ids_from..)
                .map(|((k, x, y), id)| (k, (Point::new(x, y), id)))
                .collect()
        })
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn total_order_key_is_monotone(a in any::<f64>(), b in any::<f64>()) {
            prop_assert_eq!(total_order_key(a).cmp(&total_order_key(b)), a.total_cmp(&b));
        }

        #[test]
        fn radix_builds_match_the_comparison_sort(r in side(0), s in side(1000)) {
            check_co_grouped(&r, &s);
        }
    }
}
