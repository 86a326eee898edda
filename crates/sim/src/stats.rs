//! Measurement infrastructure: bandwidth meters, latency statistics and
//! per-window recorders.
//!
//! All statistics are computed online with O(1) memory (the latency
//! histogram uses fixed log-linear buckets, HDR-style), so they can stay
//! attached to every master for arbitrarily long runs.

use crate::time::{Bandwidth, Cycle, Freq};
use fgqos_snap::StateWalker;
use std::ops::Range;

/// Accumulates transferred bytes over an interval and converts the count
/// into a [`Bandwidth`].
///
/// ```
/// use fgqos_sim::stats::BandwidthMeter;
/// use fgqos_sim::time::{Cycle, Freq};
///
/// let mut m = BandwidthMeter::new(Cycle::ZERO);
/// m.record(1_600);
/// let bw = m.bandwidth(Cycle::new(100), Freq::ghz(1));
/// assert_eq!(bw.bytes_per_s(), 16e9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BandwidthMeter {
    bytes: u64,
    txns: u64,
    start: Cycle,
}

impl BandwidthMeter {
    /// Creates a meter whose interval starts at `start`.
    pub fn new(start: Cycle) -> Self {
        BandwidthMeter {
            bytes: 0,
            txns: 0,
            start,
        }
    }

    /// Records one completed transfer of `bytes` bytes.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.txns += 1;
    }

    /// Total bytes recorded since the interval start.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total transactions recorded since the interval start.
    #[inline]
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// Average throughput over `[start, now]` at clock `freq`.
    pub fn bandwidth(&self, now: Cycle, freq: Freq) -> Bandwidth {
        Bandwidth::from_bytes_over(self.bytes, now.saturating_since(self.start), freq)
    }

    /// Resets the counters and restarts the interval at `now`.
    pub fn reset(&mut self, now: Cycle) {
        self.bytes = 0;
        self.txns = 0;
        self.start = now;
    }

    /// Walks the meter's state (see [`StateWalker`]).
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("meter");
        w.counter(&mut self.bytes);
        w.counter(&mut self.txns);
        w.cycle(&mut self.start);
    }
}

/// Number of log2 magnitude groups in [`LatencyStats`].
const GROUPS: usize = 40;
/// Linear sub-buckets per magnitude group (higher = finer percentiles).
const SUBS: usize = 16;

/// Online latency distribution with HDR-style log-linear buckets.
///
/// Tracks count/mean/min/max exactly and percentiles to within ~6 %
/// relative error (one part in the per-group sub-bucket count).
///
/// ```
/// use fgqos_sim::stats::LatencyStats;
/// let mut s = LatencyStats::new();
/// for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 10);
/// assert_eq!(s.max(), 100);
/// assert!(s.percentile(0.5) >= 40 && s.percentile(0.5) <= 70);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyStats {
    // Counts of buckets `first..first + bins.len()`, which is always
    // exactly the live range `bucket_index(min)..=bucket_index(max)`
    // (empty with no samples): plain owned storage, so a sample bumps a
    // bucket with no shared-ownership check, and a clone (every fork)
    // copies only the occupied buckets.
    bins: Vec<u64>,
    first: usize,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        LatencyStats {
            bins: Vec::new(),
            first: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        // Values below SUBS land in the first group with exact resolution.
        if value < SUBS as u64 {
            return value as usize;
        }
        let group = 64 - value.leading_zeros() as usize - SUBS.trailing_zeros() as usize;
        let group = group.min(GROUPS - 1);
        let shift = group - 1;
        let sub = ((value >> shift) as usize) - SUBS;
        group * SUBS + sub.min(SUBS - 1)
    }

    fn bucket_value(index: usize) -> u64 {
        let group = index / SUBS;
        let sub = (index % SUBS) as u64;
        if group == 0 {
            return sub;
        }
        let shift = group - 1;
        (SUBS as u64 + sub) << shift
    }

    /// The count of bucket `index`, widening the stored range to cover
    /// it first when it lies outside.
    #[inline]
    fn bin_mut(&mut self, index: usize) -> &mut u64 {
        let k = index.wrapping_sub(self.first);
        if k < self.bins.len() {
            return &mut self.bins[k];
        }
        self.widen(index)
    }

    #[cold]
    fn widen(&mut self, index: usize) -> &mut u64 {
        if self.bins.is_empty() {
            self.first = index;
        } else if index < self.first {
            let grow = self.first - index;
            self.bins.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = index;
        }
        let k = index - self.first;
        if k >= self.bins.len() {
            self.bins.resize(k + 1, 0);
        }
        &mut self.bins[k]
    }

    /// The stored buckets as `(bucket_index, count)`, ascending.
    fn indexed_bins(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        let first = self.first;
        self.bins
            .iter()
            .enumerate()
            .map(move |(k, &c)| (first + k, c))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        *self.bin_mut(Self::bucket_index(value)) += 1;
    }

    /// Number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `q`-quantile (`0.0..=1.0`), e.g. `percentile(0.99)`.
    ///
    /// Returns the lower bound of the bucket containing the quantile;
    /// 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be within 0..=1");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.indexed_bins() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Iterates the non-empty histogram buckets as
    /// `(bucket_lower_bound, count)`, in ascending value order — the raw
    /// distribution for export or plotting.
    ///
    /// ```
    /// use fgqos_sim::stats::LatencyStats;
    /// let mut s = LatencyStats::new();
    /// s.record(3);
    /// s.record(3);
    /// s.record(100);
    /// let buckets: Vec<(u64, u64)> = s.nonzero_buckets().collect();
    /// assert_eq!(buckets[0], (3, 2));
    /// assert_eq!(buckets.len(), 2);
    /// ```
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.indexed_bins()
            .filter(|&(_, c)| c > 0)
            .map(|(i, c)| (Self::bucket_value(i), c))
    }

    /// Resets the distribution in place without freeing the bucket
    /// storage (used by per-window latency recording, which reuses one
    /// scratch histogram per window).
    pub fn clear(&mut self) {
        self.bins.clear();
        self.first = 0;
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        for (i, c) in other.indexed_bins() {
            *self.bin_mut(i) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The bucket range holding every sample: `bucket_index(min)..=
    /// bucket_index(max)`, empty when there are none.
    fn live_buckets(&self) -> Range<usize> {
        if self.count == 0 || self.min > self.max {
            return 0..0;
        }
        Self::bucket_index(self.min)..Self::bucket_index(self.max) + 1
    }

    /// Walks the distribution's state (see [`StateWalker`]): summary
    /// fields, then the non-empty buckets as index/count pairs (only the
    /// buckets between min and max are stored). The pairs carry no length
    /// prefix; a loader reads them until their counts sum to the
    /// recorded total, with strictly increasing indices inside the
    /// min/max range — any deviation, or a min above the max of a
    /// non-empty distribution, is a diagnostic error.
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("latency");
        w.counter(&mut self.count);
        w.counter(&mut self.sum);
        w.plain(&mut self.min);
        w.plain(&mut self.max);
        if self.count > 0 && self.min > self.max {
            w.bad(format!(
                "latency min {} above max {} with {} sample(s)",
                self.min, self.max, self.count
            ));
        }
        // The stored range is the live range; a loader rebuilds it there.
        let live = self.live_buckets();
        self.first = live.start;
        w.histogram(&mut self.bins, self.count, live);
    }
}

/// Records a per-window time series of a counter (e.g. bytes completed per
/// window), for timeline figures.
///
/// ```
/// use fgqos_sim::stats::WindowRecorder;
/// use fgqos_sim::time::Cycle;
/// let mut r = WindowRecorder::new(100);
/// r.add(Cycle::new(10), 5);
/// r.add(Cycle::new(150), 7);
/// r.finish(Cycle::new(200));
/// assert_eq!(r.windows(), &[5, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct WindowRecorder {
    window_cycles: u64,
    current_window: u64,
    current_value: u64,
    windows: Vec<u64>,
    /// Scratch histogram for the current window; `Some` enables per-window
    /// latency summaries (see [`WindowRecorder::with_latency`]).
    lat_scratch: Option<LatencyStats>,
    lat_windows: Vec<WindowLatency>,
}

/// Per-window latency summary produced by a [`WindowRecorder`] in latency
/// mode (one entry per closed window, aligned with
/// [`WindowRecorder::windows`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowLatency {
    /// Samples recorded within the window.
    pub count: u64,
    /// Approximate median latency within the window (0 if idle).
    pub p50: u64,
    /// Approximate 99th-percentile latency within the window (0 if idle).
    pub p99: u64,
}

impl WindowRecorder {
    /// Creates a recorder with windows of `window_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window length must be non-zero");
        WindowRecorder {
            window_cycles,
            current_window: 0,
            current_value: 0,
            windows: Vec::new(),
            lat_scratch: None,
            lat_windows: Vec::new(),
        }
    }

    /// Enables per-window latency summaries: each closed window also
    /// records a [`WindowLatency`] (p50/p99/count) computed from the
    /// samples passed to [`WindowRecorder::add_with_latency`]. Costs one
    /// reusable scratch histogram; byte recording is unaffected.
    pub fn with_latency(mut self) -> Self {
        self.lat_scratch = Some(LatencyStats::new());
        self
    }

    /// `true` when per-window latency summaries are enabled.
    pub fn records_latency(&self) -> bool {
        self.lat_scratch.is_some()
    }

    /// Window length in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    fn roll_to(&mut self, target_window: u64) {
        while self.current_window < target_window {
            self.windows.push(self.current_value);
            self.current_value = 0;
            if let Some(scratch) = &mut self.lat_scratch {
                self.lat_windows.push(WindowLatency {
                    count: scratch.count(),
                    p50: scratch.percentile(0.50),
                    p99: scratch.percentile(0.99),
                });
                scratch.clear();
            }
            self.current_window += 1;
        }
    }

    /// Adds `value` at time `now`, closing any windows that elapsed since
    /// the previous call (they record their accumulated value; fully idle
    /// windows record zero).
    pub fn add(&mut self, now: Cycle, value: u64) {
        self.roll_to(now.get() / self.window_cycles);
        self.current_value += value;
    }

    /// Like [`WindowRecorder::add`], additionally feeding one `latency`
    /// sample into the current window's summary when latency mode is
    /// enabled (the sample is ignored otherwise).
    pub fn add_with_latency(&mut self, now: Cycle, value: u64, latency: u64) {
        self.roll_to(now.get() / self.window_cycles);
        self.current_value += value;
        if let Some(scratch) = &mut self.lat_scratch {
            scratch.record(latency);
        }
    }

    /// Flushes all windows up to (but not including) the one containing
    /// `now`.
    pub fn finish(&mut self, now: Cycle) {
        self.add(now, 0);
    }

    /// The closed windows recorded so far.
    pub fn windows(&self) -> &[u64] {
        &self.windows
    }

    /// Per-window latency summaries (empty unless latency mode is on;
    /// otherwise aligned one-to-one with [`WindowRecorder::windows`]).
    pub fn latency_windows(&self) -> &[WindowLatency] {
        &self.lat_windows
    }

    /// Largest closed-window value, or 0 if none.
    pub fn max_window(&self) -> u64 {
        self.windows.iter().copied().max().unwrap_or(0)
    }

    /// Walks the recorder's state (see [`StateWalker`]); the stream
    /// carries everything, including the window length. A recorder
    /// declares no leaping: it materializes one entry per window, which
    /// an algebraic leap cannot reproduce.
    pub fn visit_state(&mut self, w: &mut StateWalker<'_>) {
        w.section("window-recorder");
        w.no_leap();
        w.plain(&mut self.window_cycles);
        if self.window_cycles == 0 {
            w.bad("window-recorder window_cycles must be non-zero");
            self.window_cycles = 1;
        }
        w.plain(&mut self.current_window);
        w.plain(&mut self.current_value);
        let n = w.len(self.windows.len());
        self.windows.resize(n, 0);
        for v in &mut self.windows {
            w.plain(v);
        }
        if let Some(s) = w.option(&mut self.lat_scratch) {
            s.visit_state(w);
        }
        let n = w.len(self.lat_windows.len());
        self.lat_windows.resize(n, WindowLatency::default());
        for lw in &mut self.lat_windows {
            w.plain(&mut lw.count);
            w.plain(&mut lw.p50);
            w.plain(&mut lw.p99);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference walk: the summary fields, then every bucket of the
    /// whole array scanned for non-empty ones.
    fn full_scan(s: &mut LatencyStats, w: &mut StateWalker<'_>) {
        w.section("latency");
        w.counter(&mut s.count);
        w.counter(&mut s.sum);
        w.plain(&mut s.min);
        w.plain(&mut s.max);
        let mut buckets = vec![0; GROUPS * SUBS];
        buckets[s.first..s.first + s.bins.len()].copy_from_slice(&s.bins);
        for (i, &c) in buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
            w.plain(&mut { i });
            w.counter(&mut { c });
        }
    }

    /// The ranged walk of `values` writes the full scan's bytes, digest
    /// and typed span map.
    fn ranged_walk_matches_full_scan(values: &[u64]) -> Result<(), TestCaseError> {
        let mut s = LatencyStats::new();
        for &v in values {
            s.record(v);
        }
        let (mut ranged, mut full) = (StateWalker::recording(), StateWalker::recording());
        s.visit_state(&mut ranged);
        full_scan(&mut s, &mut full);
        prop_assert_eq!(ranged.finish(), full.finish());
        prop_assert_eq!(ranged.take_bytes(), full.take_bytes());
        let (mut ranged, mut full) = (StateWalker::hasher(), StateWalker::hasher());
        s.visit_state(&mut ranged);
        full_scan(&mut s, &mut full);
        prop_assert_eq!(ranged.finish(), full.finish());
        prop_assert_eq!(ranged.bytes_written(), full.bytes_written());
        let (mut ranged, mut full) = (
            StateWalker::typed_recording(1_000),
            StateWalker::typed_recording(1_000),
        );
        s.visit_state(&mut ranged);
        full_scan(&mut s, &mut full);
        prop_assert_eq!(ranged.take_typed(), full.take_typed());
        Ok(())
    }

    #[test]
    fn ranged_walk_edge_cases() {
        for values in [
            &[][..],
            &[0],
            &[37],
            &[u64::MAX],
            &[u64::MAX, u64::MAX - 1, 1 << 63],
            &[0, u64::MAX],
            &[15, 16, 17],
        ] {
            ranged_walk_matches_full_scan(values).unwrap();
        }
    }

    /// Samples from exact small values up to the clamped top group.
    fn samples() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(
            (0..4u8, 0..=u64::MAX).prop_map(|(kind, v)| match kind {
                0 => v % 64,
                1 => v % 100_000,
                2 => v,
                _ => u64::MAX - v % 4,
            }),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn ranged_walk_writes_the_full_scan_bytes(values in samples()) {
            ranged_walk_matches_full_scan(&values)?;
        }
    }

    /// The recorded walk bytes of `s`.
    fn walk_bytes(s: &mut LatencyStats) -> Vec<u8> {
        let mut w = StateWalker::recording();
        s.visit_state(&mut w);
        w.take_bytes()
    }

    /// Count, a spread of percentiles and the walk bytes.
    fn summary(s: &mut LatencyStats) -> (u64, Vec<u64>, Vec<u8>) {
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0].map(|q| s.percentile(q));
        (s.count(), qs.to_vec(), walk_bytes(s))
    }

    fn recorded(values: &[u64]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn clone_records_independently_of_its_source() {
        let warm = [40, 41, 300, 7, 5_000];
        let (src_tail, clone_tail) = ([2, 90_000, 41], [1 << 40, 0, 65, 65]);
        let mut src = recorded(&warm);
        let mut copy = src.clone();
        for v in src_tail {
            src.record(v);
        }
        for v in clone_tail {
            copy.record(v);
        }
        // Each equals a cold histogram of its own sample sequence.
        let mut want_src = recorded(&[&warm[..], &src_tail[..]].concat());
        let mut want_copy = recorded(&[&warm[..], &clone_tail[..]].concat());
        assert_eq!(summary(&mut src), summary(&mut want_src));
        assert_eq!(summary(&mut copy), summary(&mut want_copy));
        assert_ne!(walk_bytes(&mut src), walk_bytes(&mut copy));
    }

    #[test]
    fn clone_stores_only_the_live_buckets() {
        let s = recorded(&[100, 120, 130]);
        let copy = s.clone();
        assert_eq!(copy.bins.len(), copy.live_buckets().len());
        assert!(
            copy.bins.len() < GROUPS * SUBS / 32,
            "{} buckets copied",
            copy.bins.len()
        );
        assert!(LatencyStats::new().clone().bins.is_empty());
    }

    #[test]
    fn bins_reaching_the_top_bucket_load() {
        for values in [
            &[u64::MAX][..],
            &[3, u64::MAX, 1 << 62, 900],
            &[0, u64::MAX],
        ] {
            let mut s = recorded(values);
            assert_eq!(s.live_buckets().end, GROUPS * SUBS);
            let bytes = walk_bytes(&mut s);
            let mut loaded = LatencyStats::new();
            let mut w = StateWalker::loader(&bytes);
            loaded.visit_state(&mut w);
            w.finish_load().expect("a top-bucket histogram loads");
            assert_eq!(summary(&mut loaded), summary(&mut s));
            // The loaded copy keeps recording like the original.
            for t in [&mut loaded, &mut s] {
                t.record(12);
            }
            assert_eq!(summary(&mut loaded), summary(&mut s));
        }
    }

    #[test]
    fn merge_and_clear_keep_the_stored_range_live() {
        let mut a = recorded(&[500, 600]);
        let b = recorded(&[3, 1 << 30]);
        a.merge(&b);
        assert_eq!(a.first..a.first + a.bins.len(), a.live_buckets());
        let mut want = recorded(&[500, 600, 3, 1 << 30]);
        assert_eq!(summary(&mut a), summary(&mut want));
        a.clear();
        assert!(a.bins.is_empty());
        a.record(9);
        assert_eq!(summary(&mut a), summary(&mut recorded(&[9])));
    }

    #[test]
    fn meter_basic() {
        let mut m = BandwidthMeter::new(Cycle::new(100));
        m.record(64);
        m.record(64);
        assert_eq!(m.bytes(), 128);
        assert_eq!(m.txns(), 2);
        let bw = m.bandwidth(Cycle::new(228), Freq::ghz(1));
        assert_eq!(bw.bytes_per_s(), 1e9);
        m.reset(Cycle::new(228));
        assert_eq!(m.bytes(), 0);
        assert_eq!(m.bandwidth(Cycle::new(300), Freq::ghz(1)), Bandwidth::ZERO);
    }

    #[test]
    fn meter_zero_interval() {
        let m = BandwidthMeter::new(Cycle::new(5));
        assert_eq!(m.bandwidth(Cycle::new(5), Freq::ghz(1)), Bandwidth::ZERO);
    }

    #[test]
    fn latency_exact_small_values() {
        let mut s = LatencyStats::new();
        for v in 0..16u64 {
            s.record(v);
        }
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 15);
        assert_eq!(s.count(), 16);
        assert!((s.mean() - 7.5).abs() < 1e-9);
        // Small values are stored exactly.
        assert_eq!(s.percentile(1.0), 15);
    }

    #[test]
    fn latency_bucket_roundtrip_error_bounded() {
        // bucket_value(bucket_index(v)) must be within 1/SUBS of v.
        for v in [
            1u64,
            17,
            100,
            1000,
            4096,
            65_535,
            1 << 20,
            (1 << 33) + 12345,
        ] {
            let idx = LatencyStats::bucket_index(v);
            let lo = LatencyStats::bucket_value(idx);
            assert!(lo <= v, "lower bound {lo} above value {v}");
            let rel = (v - lo) as f64 / v as f64;
            assert!(
                rel <= 1.0 / SUBS as f64 + 1e-9,
                "error {rel} too large for {v}"
            );
        }
    }

    #[test]
    fn latency_percentiles_ordered() {
        let mut s = LatencyStats::new();
        for v in 1..=1000u64 {
            s.record(v);
        }
        let p50 = s.percentile(0.50);
        let p90 = s.percentile(0.90);
        let p99 = s.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        assert!((450..=560).contains(&p50), "p50 = {p50}");
        assert!((850..=1000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn latency_empty() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.percentile(0.5), 0);
    }

    #[test]
    fn nonzero_buckets_cover_all_samples() {
        let mut s = LatencyStats::new();
        for v in [1u64, 1, 5, 700, 700, 700, 12_345] {
            s.record(v);
        }
        let buckets: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        let total: u64 = buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, s.count());
        // Ascending and within range.
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(buckets[0], (1, 2));
    }

    #[test]
    fn latency_merge() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn window_recorder_gaps() {
        let mut r = WindowRecorder::new(10);
        r.add(Cycle::new(0), 1);
        r.add(Cycle::new(35), 2); // windows 0..3 close; 0 has value 1, 1-2 idle
        r.finish(Cycle::new(40));
        assert_eq!(r.windows(), &[1, 0, 0, 2]);
        assert_eq!(r.max_window(), 2);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn window_recorder_zero_window() {
        let _ = WindowRecorder::new(0);
    }

    #[test]
    fn latency_clear_resets_in_place() {
        let mut s = LatencyStats::new();
        for v in [5u64, 50, 500] {
            s.record(v);
        }
        s.clear();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.nonzero_buckets().count(), 0);
        s.record(7);
        assert_eq!(s.count(), 1);
        assert_eq!(s.percentile(1.0), 7);
    }

    #[test]
    fn window_recorder_latency_mode() {
        let mut r = WindowRecorder::new(10).with_latency();
        assert!(r.records_latency());
        r.add_with_latency(Cycle::new(1), 64, 100);
        r.add_with_latency(Cycle::new(2), 64, 200);
        r.add_with_latency(Cycle::new(15), 32, 9); // window 0 closes
        r.finish(Cycle::new(20)); // window 1 closes
        assert_eq!(r.windows(), &[128, 32]);
        let lw = r.latency_windows();
        assert_eq!(lw.len(), 2);
        assert_eq!(lw[0].count, 2);
        assert!(lw[0].p50 >= 100 && lw[0].p99 <= 200);
        assert_eq!(lw[1].count, 1);
        assert_eq!(lw[1].p99, 9);
    }

    #[test]
    fn window_recorder_latency_disabled_ignores_samples() {
        let mut r = WindowRecorder::new(10);
        r.add_with_latency(Cycle::new(0), 1, 999);
        r.finish(Cycle::new(20));
        assert_eq!(r.windows(), &[1, 0]);
        assert!(r.latency_windows().is_empty());
        assert!(!r.records_latency());
    }
}
