//! Streaming, associatively-mergeable campaign statistics.
//!
//! A fleet campaign never retains per-node traces: each simulated day
//! collapses into a [`crate::campaign::NodeSummary`] that is folded into a
//! [`FleetAggregate`] and dropped. Aggregates from different workers merge
//! into the same result as a sequential fold — *bit for bit* — because
//! every accumulator here is exactly associative and commutative:
//!
//! * sums are `i128` fixed-point at 10⁻¹² resolution (picojoules for
//!   energies, picoseconds for durations) — integer addition, no
//!   floating-point reassociation error;
//! * histograms are `u64` bin counters;
//! * extrema are `f64` folded with `total_cmp`, which is associative and
//!   commutative for any input ordering.
//!
//! The merge-order independence is pinned by the crate's determinism test
//! suite, and the campaign runner relies on it to give identical
//! [`crate::report::FleetReport`]s at any worker count.

use solarml_trace::bytes::{ByteReader, ByteWriter, CodecError};

use crate::campaign::NodeSummary;

/// Scale of the fixed-point accumulators: 10¹² counts per unit, i.e.
/// picojoule / picosecond resolution over an `i128` range that holds
/// ~10¹⁷ unit-years without overflow.
const FIXED_SCALE: f64 = 1e12;

/// 2⁶³, the magnitude of `i64::MIN`: whole numbers of smaller magnitude
/// are exact `i64` values.
const I64_BOUND: f64 = -(i64::MIN as f64);

/// Ledger-residual tolerance per node-day, in nanojoules.
pub const RESIDUAL_TOLERANCE_NJ: f64 = 1.0;

/// An exact fixed-point sum: `i128` counts of 10⁻¹² units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FixedPoint(i128);

impl FixedPoint {
    /// Zero.
    pub const ZERO: Self = Self(0);

    /// Quantizes `value` (in units) to the nearest 10⁻¹² count, as
    /// `(value * FIXED_SCALE).round() as i128` does. A whole number below
    /// 2⁶³ in magnitude converts through `i64`, one instruction where the
    /// `i128` cast is a library call on x86-64; larger magnitudes, ±∞ and
    /// NaN take the `i128` cast, which saturates and maps NaN to zero.
    pub fn from_units(value: f64) -> Self {
        let counts = (value * FIXED_SCALE).round();
        if counts.abs() < I64_BOUND {
            Self(i128::from(counts as i64))
        } else {
            Self(counts as i128)
        }
    }

    /// Exact integer addition.
    pub fn add(self, other: Self) -> Self {
        Self(self.0 + other.0)
    }

    /// Converts back to units (lossless up to f64 precision of the total).
    pub fn to_units(self) -> f64 {
        self.0 as f64 / FIXED_SCALE
    }

    /// Appends the raw `i128` count to a checkpoint payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_i128(self.0);
    }

    /// Reads a count written by [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self(r.read_i128()?))
    }
}

/// Count / exact sum / extrema of one scalar across the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStat {
    /// Samples recorded.
    pub count: u64,
    /// Exact fixed-point sum of the samples.
    pub sum: FixedPoint,
    /// Smallest sample (`+∞` while empty).
    pub min: f64,
    /// Largest sample (`-∞` while empty).
    pub max: f64,
}

impl Default for StreamStat {
    fn default() -> Self {
        Self {
            count: 0,
            sum: FixedPoint::ZERO,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StreamStat {
    /// Folds one sample in.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum = self.sum.add(FixedPoint::from_units(value));
        if value.total_cmp(&self.min).is_lt() {
            self.min = value;
        }
        if value.total_cmp(&self.max).is_gt() {
            self.max = value;
        }
    }

    /// Folds another stat in. Associative and commutative, bit for bit.
    pub fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum = self.sum.add(other.sum);
        if other.min.total_cmp(&self.min).is_lt() {
            self.min = other.min;
        }
        if other.max.total_cmp(&self.max).is_gt() {
            self.max = other.max;
        }
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum.to_units() / self.count as f64
        }
    }

    /// Smallest sample, or 0 when empty (keeps reports finite).
    pub fn min_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Appends the stat to a checkpoint payload. Extrema travel as IEEE-754
    /// bit patterns, so the empty sentinels (`±∞`), `-0.0`, and every other
    /// value round-trip bit-exactly.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_u64(self.count);
        self.sum.encode_into(w);
        w.push_f64_bits(self.min.to_bits());
        w.push_f64_bits(self.max.to_bits());
    }

    /// Reads a stat written by [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            count: r.read_u64()?,
            sum: FixedPoint::decode_from(r)?,
            min: f64::from_bits(r.read_f64_bits()?),
            max: f64::from_bits(r.read_f64_bits()?),
        })
    }
}

/// A fixed-range histogram with `u64` bins plus under/overflow counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive lower edge of bin 0.
    lo: f64,
    /// Exclusive upper edge of the last bin.
    hi: f64,
    /// Per-bin counts.
    bins: Vec<u64>,
    /// Samples below `lo`.
    underflow: u64,
    /// Samples at or above `hi`, and NaN samples.
    overflow: u64,
}

impl Histogram {
    /// An empty histogram over `[lo, hi)` with `bins` equal-width bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be nonempty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Folds one sample in.
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi || value.is_nan() {
            self.overflow += 1;
        } else {
            let frac = (value - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Folds another histogram in. Both must share the same shape; merging
    /// is then pure `u64` addition — associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            self.bins.len() == other.bins.len()
                && self.lo.total_cmp(&other.lo).is_eq()
                && self.hi.total_cmp(&other.hi).is_eq(),
            "cannot merge histograms with different shapes"
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Total samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.bins.iter().sum::<u64>()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the *upper edge* of the bin the
    /// rank lands in — a deterministic integer walk, conservative by at
    /// most one bin width. Underflow counts resolve to `lo`, overflow to
    /// `hi`. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cumulative = self.underflow;
        if cumulative >= target {
            return self.lo;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &n) in self.bins.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return self.lo + width * (i + 1) as f64;
            }
        }
        self.hi
    }

    /// Per-bin counts (without under/overflow).
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Samples that fell below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples that fell at or above the range. A NaN sample counts here
    /// too: it fails both range tests, and no bin holds it.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Appends the histogram (shape and counts) to a checkpoint payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_f64_bits(self.lo.to_bits());
        w.push_f64_bits(self.hi.to_bits());
        w.push_u64(self.bins.len() as u64);
        for &b in &self.bins {
            w.push_u64(b);
        }
        w.push_u64(self.underflow);
        w.push_u64(self.overflow);
    }

    /// Reads a histogram written by [`Self::encode_into`]. The declared
    /// bin count is bounded by the bytes that remain, so a corrupted
    /// length cannot trigger an oversized allocation.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let lo = f64::from_bits(r.read_f64_bits()?);
        let hi = f64::from_bits(r.read_f64_bits()?);
        let declared = r.read_u64()?;
        let remaining = r.remaining();
        let n = usize::try_from(declared)
            .ok()
            .filter(|&n| n <= remaining / 8)
            .ok_or(CodecError::BadLength {
                offset: r.position().saturating_sub(8),
                declared,
                remaining,
            })?;
        let mut bins = Vec::with_capacity(n);
        for _ in 0..n {
            bins.push(r.read_u64()?);
        }
        Ok(Self {
            lo,
            hi,
            bins,
            underflow: r.read_u64()?,
            overflow: r.read_u64()?,
        })
    }
}

/// The campaign-wide rollup: everything the fleet report publishes,
/// nothing per-node. `record` folds one node in; `merge` combines two
/// rollups and is exactly associative and commutative, so any chunking of
/// the fleet across workers produces the same aggregate bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAggregate {
    /// Nodes folded in.
    pub nodes: u64,
    /// Total interaction cycles attempted across the fleet.
    pub attempted: u64,
    /// Total cycles completed (any rung).
    pub completed: u64,
    /// Total cycles abandoned after retries ran out.
    pub abandoned: u64,
    /// Total completions below the full rung.
    pub degraded: u64,
    /// Total brownout events.
    pub brownouts: u64,
    /// Nodes per environment: `[outdoor, office, home]`.
    pub env_counts: [u64; 3],
    /// Nodes per checkpoint policy: `[retained, volatile, none]`.
    pub policy_counts: [u64; 3],
    /// Nodes whose ledger residual exceeded [`RESIDUAL_TOLERANCE_NJ`].
    pub residual_violations: u64,
    /// Per-node completion rate (completed / attempted).
    pub completion_rate: Histogram,
    /// Per-node dead-window time, in hours.
    pub dead_window_h: Histogram,
    /// Per-node energy wasted on lost progress, in millijoules.
    pub wasted_mj: Histogram,
    /// Per-node absolute ledger residual, in nanojoules.
    pub residual_nj: Histogram,
    /// Per-node completion rate, exact-sum stats.
    pub completion_rate_stat: StreamStat,
    /// Per-node dead-window seconds, exact-sum stats.
    pub dead_window_s: StreamStat,
    /// Per-node harvested energy (joules), exact-sum stats.
    pub harvested_j: StreamStat,
    /// Per-node consumed energy (joules), exact-sum stats.
    pub consumed_j: StreamStat,
    /// Per-node wasted energy (joules), exact-sum stats.
    pub wasted_j: StreamStat,
    /// Per-node absolute ledger residual (nanojoules), exact-sum stats.
    pub residual_nj_stat: StreamStat,
    /// Per-node mean accuracy proxy, exact-sum stats.
    pub accuracy: StreamStat,
}

impl Default for FleetAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetAggregate {
    /// An empty rollup.
    pub fn new() -> Self {
        Self {
            nodes: 0,
            attempted: 0,
            completed: 0,
            abandoned: 0,
            degraded: 0,
            brownouts: 0,
            env_counts: [0; 3],
            policy_counts: [0; 3],
            residual_violations: 0,
            completion_rate: Histogram::new(0.0, 1.0001, 20),
            dead_window_h: Histogram::new(0.0, 24.0, 24),
            wasted_mj: Histogram::new(0.0, 100.0, 25),
            residual_nj: Histogram::new(0.0, 2.0, 20),
            completion_rate_stat: StreamStat::default(),
            dead_window_s: StreamStat::default(),
            harvested_j: StreamStat::default(),
            consumed_j: StreamStat::default(),
            wasted_j: StreamStat::default(),
            residual_nj_stat: StreamStat::default(),
            accuracy: StreamStat::default(),
        }
    }

    /// Folds one node's day in.
    pub fn record(&mut self, node: &NodeSummary) {
        self.nodes += 1;
        self.attempted += node.attempted as u64;
        self.completed += node.completed as u64;
        self.abandoned += node.abandoned as u64;
        self.degraded += node.degraded as u64;
        self.brownouts += node.brownouts as u64;
        self.env_counts[node.env_index.min(2)] += 1;
        self.policy_counts[node.policy_index.min(2)] += 1;

        let rate = if node.attempted == 0 {
            1.0
        } else {
            node.completed as f64 / node.attempted as f64
        };
        let residual_nj = node.residual_j.abs() * 1e9;
        // A NaN residual is a ledger that never closed.
        if residual_nj.is_nan() || residual_nj > RESIDUAL_TOLERANCE_NJ {
            self.residual_violations += 1;
        }
        self.completion_rate.record(rate);
        self.dead_window_h.record(node.dead_window_s / 3600.0);
        self.wasted_mj.record(node.wasted_j * 1e3);
        self.residual_nj.record(residual_nj);
        self.completion_rate_stat.record(rate);
        self.dead_window_s.record(node.dead_window_s);
        self.harvested_j.record(node.harvested_j);
        self.consumed_j.record(node.consumed_j);
        self.wasted_j.record(node.wasted_j);
        self.residual_nj_stat.record(residual_nj);
        self.accuracy.record(node.mean_accuracy);
    }

    /// Folds another rollup in. Exactly associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        self.nodes += other.nodes;
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.abandoned += other.abandoned;
        self.degraded += other.degraded;
        self.brownouts += other.brownouts;
        for (mine, theirs) in self.env_counts.iter_mut().zip(&other.env_counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.policy_counts.iter_mut().zip(&other.policy_counts) {
            *mine += theirs;
        }
        self.residual_violations += other.residual_violations;
        self.completion_rate.merge(&other.completion_rate);
        self.dead_window_h.merge(&other.dead_window_h);
        self.wasted_mj.merge(&other.wasted_mj);
        self.residual_nj.merge(&other.residual_nj);
        self.completion_rate_stat.merge(&other.completion_rate_stat);
        self.dead_window_s.merge(&other.dead_window_s);
        self.harvested_j.merge(&other.harvested_j);
        self.consumed_j.merge(&other.consumed_j);
        self.wasted_j.merge(&other.wasted_j);
        self.residual_nj_stat.merge(&other.residual_nj_stat);
        self.accuracy.merge(&other.accuracy);
    }

    /// Appends the whole rollup to a checkpoint payload, every field in
    /// declaration order. Encoding the same rollup twice yields identical
    /// bytes, which is what lets checkpoint parity be checked with `cmp`.
    ///
    /// The histogram shapes are compile-time constants of [`Self::new`];
    /// changing them is a checkpoint format break and must bump
    /// [`crate::checkpoint::CHECKPOINT_VERSION`].
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_u64(self.nodes);
        w.push_u64(self.attempted);
        w.push_u64(self.completed);
        w.push_u64(self.abandoned);
        w.push_u64(self.degraded);
        w.push_u64(self.brownouts);
        for &c in &self.env_counts {
            w.push_u64(c);
        }
        for &c in &self.policy_counts {
            w.push_u64(c);
        }
        w.push_u64(self.residual_violations);
        self.completion_rate.encode_into(w);
        self.dead_window_h.encode_into(w);
        self.wasted_mj.encode_into(w);
        self.residual_nj.encode_into(w);
        self.completion_rate_stat.encode_into(w);
        self.dead_window_s.encode_into(w);
        self.harvested_j.encode_into(w);
        self.consumed_j.encode_into(w);
        self.wasted_j.encode_into(w);
        self.residual_nj_stat.encode_into(w);
        self.accuracy.encode_into(w);
    }

    /// Reads a rollup written by [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let nodes = r.read_u64()?;
        let attempted = r.read_u64()?;
        let completed = r.read_u64()?;
        let abandoned = r.read_u64()?;
        let degraded = r.read_u64()?;
        let brownouts = r.read_u64()?;
        let mut env_counts = [0u64; 3];
        for c in &mut env_counts {
            *c = r.read_u64()?;
        }
        let mut policy_counts = [0u64; 3];
        for c in &mut policy_counts {
            *c = r.read_u64()?;
        }
        Ok(Self {
            nodes,
            attempted,
            completed,
            abandoned,
            degraded,
            brownouts,
            env_counts,
            policy_counts,
            residual_violations: r.read_u64()?,
            completion_rate: Histogram::decode_from(r)?,
            dead_window_h: Histogram::decode_from(r)?,
            wasted_mj: Histogram::decode_from(r)?,
            residual_nj: Histogram::decode_from(r)?,
            completion_rate_stat: StreamStat::decode_from(r)?,
            dead_window_s: StreamStat::decode_from(r)?,
            harvested_j: StreamStat::decode_from(r)?,
            consumed_j: StreamStat::decode_from(r)?,
            wasted_j: StreamStat::decode_from(r)?,
            residual_nj_stat: StreamStat::decode_from(r)?,
            accuracy: StreamStat::decode_from(r)?,
        })
    }
}

/// A binary-counter fold of partial aggregates: O(log n) live memory for
/// an n-partial stream, bit-identical to the sequential left-to-right
/// fold.
///
/// Level `k` holds (at most) one aggregate covering `2^k` consecutive
/// partials; pushing a new partial ripples like binary addition, always
/// merging an *earlier* span with the *immediately following* one. Every
/// merge therefore combines adjacent spans in stream order, and because
/// [`FleetAggregate::merge`] is exactly associative, any such
/// parenthesization — including [`Self::finish`]'s final sweep — equals
/// the flat fold bit for bit. This is what lets a million-node campaign
/// hold ~20 partial aggregates instead of a million node summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergeTree {
    /// `levels[k]` covers `2^k` partials when occupied; earlier spans live
    /// at higher levels.
    levels: Vec<Option<FleetAggregate>>,
}

impl MergeTree {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds the next partial in stream order into the tree.
    pub fn push(&mut self, partial: FleetAggregate) {
        let mut carry = partial;
        for level in &mut self.levels {
            match level.take() {
                None => {
                    *level = Some(carry);
                    return;
                }
                Some(mut earlier) => {
                    // `earlier` covers the span just before `carry`:
                    // merging earlier←carry preserves stream order.
                    earlier.merge(&carry);
                    carry = earlier;
                }
            }
        }
        self.levels.push(Some(carry));
    }

    /// Number of levels — the live-memory bound, ⌈log₂(partials)⌉ + 1.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Collapses the tree into the full-stream aggregate (earliest span
    /// first; merge-with-empty is the pinned bit-exact identity, so the
    /// empty accumulator is free).
    pub fn finish(&self) -> FleetAggregate {
        let mut acc = FleetAggregate::new();
        for level in self.levels.iter().rev().flatten() {
            acc.merge(level);
        }
        acc
    }

    /// Appends the tree to a checkpoint payload.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_u64(self.levels.len() as u64);
        for level in &self.levels {
            match level {
                None => w.push_u8(0),
                Some(agg) => {
                    w.push_u8(1);
                    agg.encode_into(w);
                }
            }
        }
    }

    /// Reads a tree written by [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let declared = r.read_u64()?;
        let remaining = r.remaining();
        // Each level costs at least one occupancy byte, which bounds a
        // corrupted count before any allocation happens.
        let n = usize::try_from(declared)
            .ok()
            .filter(|&n| n <= remaining)
            .ok_or(CodecError::BadLength {
                offset: r.position().saturating_sub(8),
                declared,
                remaining,
            })?;
        let mut levels = Vec::with_capacity(n);
        for _ in 0..n {
            levels.push(match r.read_u8()? {
                0 => None,
                _ => Some(FleetAggregate::decode_from(r)?),
            });
        }
        Ok(Self { levels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_node(i: u64) -> NodeSummary {
        NodeSummary {
            node: i as usize,
            seed: i.wrapping_mul(0x9E37),
            env_index: (i % 3) as usize,
            policy_index: ((i / 3) % 3) as usize,
            attempted: 10 + (i % 5) as usize,
            completed: (i % 9) as usize,
            abandoned: 1,
            degraded: (i % 2) as usize,
            brownouts: (i % 4) as usize,
            dead_window_s: 13.7 * i as f64,
            harvested_j: 0.01 * i as f64 + 0.003,
            consumed_j: 0.009 * i as f64,
            wasted_j: 0.0001 * i as f64,
            residual_j: 1.3e-10 * (i % 7) as f64,
            mean_accuracy: 0.8 + 0.01 * (i % 10) as f64,
        }
    }

    #[test]
    fn fixed_point_sums_are_exact_and_associative() {
        // A sum that reassociates badly in f64 is exact in fixed point.
        let xs = [1e6, 1e-9, -1e6, 1e-9];
        let mut left = FixedPoint::ZERO;
        for &x in &xs {
            left = left.add(FixedPoint::from_units(x));
        }
        let mut right = FixedPoint::ZERO;
        for &x in xs.iter().rev() {
            right = right.add(FixedPoint::from_units(x));
        }
        assert_eq!(left, right);
        assert!((left.to_units() - 2e-9).abs() < 1e-13);
    }

    #[test]
    fn histogram_quantiles_walk_the_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..100 {
            h.record(i as f64 / 10.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.quantile(0.5) - 5.0).abs() < 1e-12);
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-12, "first nonempty bin");
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-12);
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_routes_out_of_range_samples() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0);
        h.record(0.5);
        h.record(f64::NAN);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins(), &[0, 0, 1, 0]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn merge_equals_sequential_fold_for_any_split() {
        let nodes: Vec<NodeSummary> = (0..50).map(sample_node).collect();
        let mut sequential = FleetAggregate::new();
        for n in &nodes {
            sequential.record(n);
        }
        for split in [1usize, 3, 7, 25, 49] {
            let mut merged = FleetAggregate::new();
            for chunk in nodes.chunks(split) {
                let mut partial = FleetAggregate::new();
                for n in chunk {
                    partial.record(n);
                }
                merged.merge(&partial);
            }
            assert_eq!(merged, sequential, "split {split}");
        }
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = FleetAggregate::new();
        let mut b = FleetAggregate::new();
        for i in 0..20 {
            a.record(&sample_node(i));
        }
        for i in 20..45 {
            b.record(&sample_node(i));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn residuals_past_tolerance_or_nan_are_violations() {
        let mut agg = FleetAggregate::new();
        for residual_j in [0.5e-9, 2e-9, f64::NAN] {
            agg.record(&NodeSummary {
                residual_j,
                ..sample_node(1)
            });
        }
        assert_eq!(agg.residual_violations, 2);
    }

    #[test]
    fn empty_stat_renders_finite_values() {
        let s = StreamStat::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min_or_zero(), 0.0);
        assert_eq!(s.max_or_zero(), 0.0);
    }

    /// The aggregate's exact bytes, down to every extremum's sign bit —
    /// `assert_eq!` on the struct would let `-0.0 == 0.0` slip through.
    fn bits_of(agg: &FleetAggregate) -> Vec<u8> {
        let mut w = ByteWriter::new();
        agg.encode_into(&mut w);
        w.into_bytes()
    }

    #[test]
    fn merge_with_empty_is_the_identity_bit_for_bit() {
        let mut populated = FleetAggregate::new();
        for i in 0..17 {
            populated.record(&sample_node(i));
        }
        // A signed-zero extremum: the classic value struct equality would
        // conflate with +0.0 if merge replaced instead of kept it.
        let mut signed_zero = sample_node(99);
        signed_zero.dead_window_s = -0.0;
        populated.record(&signed_zero);
        assert_eq!(populated.dead_window_s.min.to_bits(), (-0.0f64).to_bits());
        let before = bits_of(&populated);

        // populated ∪ ∅ — the zero-node chunk at a stream's tail.
        let mut right = populated.clone();
        right.merge(&FleetAggregate::new());
        assert_eq!(bits_of(&right), before, "merging an empty partial in");

        // ∅ ∪ populated — the empty accumulator a streaming fold starts
        // from (MergeTree::finish leans on exactly this).
        let mut left = FleetAggregate::new();
        left.merge(&populated);
        assert_eq!(bits_of(&left), before, "merging into an empty rollup");

        // And the derived views the report publishes stay untouched.
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(
                right.wasted_mj.quantile(q).to_bits(),
                populated.wasted_mj.quantile(q).to_bits()
            );
        }
        assert_eq!(
            right.dead_window_s.min_or_zero().to_bits(),
            populated.dead_window_s.min_or_zero().to_bits()
        );
        assert_eq!(
            right.harvested_j.max_or_zero().to_bits(),
            populated.harvested_j.max_or_zero().to_bits()
        );
    }

    #[test]
    fn aggregate_codec_round_trips_bit_exactly() {
        let mut agg = FleetAggregate::new();
        for i in 0..23 {
            agg.record(&sample_node(i));
        }
        let bytes = bits_of(&agg);
        let mut r = ByteReader::new(&bytes);
        let back = FleetAggregate::decode_from(&mut r).expect("decode");
        assert_eq!(r.remaining(), 0, "decode must consume the payload");
        assert_eq!(bits_of(&back), bytes);
        // Empty aggregates (±∞ sentinels in every stat) round-trip too.
        let empty_bytes = bits_of(&FleetAggregate::new());
        let mut r = ByteReader::new(&empty_bytes);
        let back = FleetAggregate::decode_from(&mut r).expect("decode empty");
        assert_eq!(bits_of(&back), empty_bytes);
    }

    #[test]
    fn merge_tree_equals_sequential_fold_at_logarithmic_depth() {
        let mut sequential = FleetAggregate::new();
        let mut tree = MergeTree::new();
        for n in 0..1000 {
            // Deliberately non-uniform "chunks": 1 or 3 nodes per partial.
            let mut partial = FleetAggregate::new();
            for i in 0..(1 + 2 * (n % 2)) {
                let node = sample_node((n * 3 + i) as u64);
                sequential.record(&node);
                partial.record(&node);
            }
            tree.push(partial);
        }
        assert_eq!(bits_of(&tree.finish()), bits_of(&sequential));
        // 1000 partials fit in ⌈log₂ 1000⌉ = 10 levels.
        assert!(tree.depth() <= 10, "depth {} for 1000 pushes", tree.depth());
    }

    #[test]
    fn merge_tree_codec_round_trips_and_resumes() {
        let mut tree = MergeTree::new();
        for n in 0..13u64 {
            let mut partial = FleetAggregate::new();
            partial.record(&sample_node(n));
            tree.push(partial);
        }
        let mut w = ByteWriter::new();
        tree.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut revived = MergeTree::decode_from(&mut r).expect("decode");
        assert_eq!(revived, tree);
        // Continuing to push after revival matches the uninterrupted tree.
        let mut uninterrupted = tree.clone();
        for n in 13..20u64 {
            let mut partial = FleetAggregate::new();
            partial.record(&sample_node(n));
            uninterrupted.push(partial.clone());
            revived.push(partial);
        }
        assert_eq!(bits_of(&revived.finish()), bits_of(&uninterrupted.finish()));
    }

    /// The `from_units` specification: the `i128` cast of the rounded
    /// product, bit for bit.
    fn reference_counts(value: f64) -> i128 {
        (value * FIXED_SCALE).round() as i128
    }

    proptest::proptest! {
        /// Any `f64` bit pattern, NaN payloads and infinities included.
        #[test]
        fn from_units_matches_the_i128_cast_on_any_bits(bits in 0u64..=u64::MAX) {
            let value = f64::from_bits(bits);
            proptest::prop_assert_eq!(FixedPoint::from_units(value).0, reference_counts(value));
        }

        /// Values of the size node-day quantities take.
        #[test]
        fn from_units_matches_the_i128_cast_on_unit_values(value in -1.0e7f64..1.0e7) {
            proptest::prop_assert_eq!(FixedPoint::from_units(value).0, reference_counts(value));
        }
    }

    #[test]
    fn from_units_matches_the_i128_cast_at_the_edges() {
        let mut edges = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            0.5e-12,
            1.5e-12,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Walk across the point where the product reaches 2⁶³ counts.
        let mut up = I64_BOUND / FIXED_SCALE;
        let mut down = up;
        for _ in 0..64 {
            edges.extend([up, down]);
            up = up.next_up();
            down = down.next_down();
        }
        for value in edges
            .clone()
            .into_iter()
            .chain(edges.into_iter().map(|v| -v))
        {
            assert_eq!(
                FixedPoint::from_units(value).0,
                reference_counts(value),
                "{value:e} ({:#018x})",
                value.to_bits()
            );
        }
    }
}
