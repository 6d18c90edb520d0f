#![warn(missing_docs)]
//! `tintin-obs` — the observability substrate of the TINTIN stack.
//!
//! Hand-rolled and dependency-free (the build environment is offline), this
//! crate provides the measurement primitives every other layer instruments
//! itself with:
//!
//! * **[`Counter`]** — a monotonically increasing atomic `u64` (commits,
//!   rejects, bytes, connections served);
//! * **[`Gauge`]** — an atomic `i64` that can go up and down (live
//!   connections, open sessions, row versions awaiting GC);
//! * **[`Histogram`]** — a log2-bucketed latency histogram over
//!   nanosecond durations with p50/p95/p99.9 extraction. Recording is one
//!   `leading_zeros` plus three relaxed atomic adds — cheap enough for the
//!   commit hot path;
//! * **[`Registry`]** — a named collection of the above, cheap to clone
//!   (handles share state) and snapshottable ([`Registry::snapshot`]) into
//!   an immutable [`Snapshot`] that renders three ways: human-readable text
//!   ([`render_text`]), Prometheus text exposition ([`render_prometheus`]),
//!   and JSON ([`render_json`]) for bench artifacts;
//! * **[`Stopwatch`] / [`Timer`]** — lightweight timed spans. A disabled
//!   registry ([`Registry::noop`]) makes every handle — and every span —
//!   a no-op, so instrumentation overhead can be measured honestly
//!   (metrics on vs. off) without recompiling;
//! * **a leveled stderr [`logger`]** — env-configurable
//!   (`TINTIN_LOG=error|warn|info|debug`), used by the server front-end for
//!   accept/turn-away/shutdown/slow-commit lines.
//!
//! # Conventions
//!
//! Metric names are `snake_case` with the Prometheus unit suffixes:
//! counters end in `_total`, histograms are duration-valued and end in
//! `_seconds` (recorded in nanoseconds internally; the renderers convert).
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use tintin_obs::Registry;
//!
//! let registry = Registry::new();
//! let commits = registry.counter("tintin_commits_total");
//! let latency = registry.histogram("tintin_commit_seconds");
//! commits.inc();
//! latency.record(Duration::from_micros(17));
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("tintin_commits_total"), Some(1));
//! let hist = snapshot.histogram("tintin_commit_seconds").unwrap();
//! assert_eq!(hist.count, 1);
//! assert!(hist.quantile(0.5) >= Duration::from_micros(16));
//! ```

pub mod logger;

pub use logger::{log, log_enabled, set_log_level, Level};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- primitives

/// A monotonically increasing counter. Handles from a no-op registry ignore
/// every update and always read `0`.
#[derive(Debug, Default)]
pub struct Counter {
    enabled: bool,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: bool) -> Self {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the counter to an externally maintained cumulative total (used
    /// to export counters another subsystem already keeps — e.g. the
    /// engine's GC pass count — without double-counting). The counter never
    /// decreases.
    pub fn record_absolute(&self, total: u64) {
        if self.enabled {
            self.value.fetch_max(total, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (live connections, row versions).
#[derive(Debug, Default)]
pub struct Gauge {
    enabled: bool,
    value: AtomicI64,
}

impl Gauge {
    fn new(enabled: bool) -> Self {
        Gauge {
            enabled,
            value: AtomicI64::new(0),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        if self.enabled {
            self.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtract one.
    pub fn dec(&self) {
        if self.enabled {
            self.value.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Set to an absolute value (sampled gauges).
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket 0 holds zero-duration samples, bucket
/// `i >= 1` holds durations in `[2^(i-1), 2^i)` nanoseconds. 64 value
/// buckets cover every representable `u64` nanosecond count (585 years).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram over durations — or over plain counts.
///
/// Recording costs one `leading_zeros` and three relaxed atomic adds;
/// quantiles are extracted from a [`HistogramSnapshot`] by walking the
/// bucket counts and interpolating linearly inside the winning bucket —
/// exact to within a factor-of-two bucket, which is plenty for latency
/// percentiles spanning nanoseconds to seconds.
///
/// The buckets themselves are unit-free `u64`s. The unit is carried by the
/// metric's **name**, the Prometheus convention: a histogram named
/// `…_seconds` holds durations (recorded in nanoseconds, rendered as
/// time); any other histogram holds counts recorded with
/// [`Histogram::record_value`] — rows per transaction, records per fsync —
/// and is rendered as the plain numbers it holds.
#[derive(Debug)]
pub struct Histogram {
    enabled: bool,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket index for a nanosecond value: 0 for 0, else `64 - leading_zeros`
/// (so bucket `i` covers `[2^(i-1), 2^i)`).
fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        64 - nanos.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`, in nanoseconds.
fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Exclusive upper bound of bucket `i`, in nanoseconds (saturating at
/// `u64::MAX` for the last bucket).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        1
    } else if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

impl Histogram {
    fn new(enabled: bool) -> Self {
        Histogram {
            enabled,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one duration.
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one duration given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        self.record_value(nanos);
    }

    /// Record one sample of a count histogram (one whose name does not end
    /// in `_seconds`; see the type's documentation).
    pub fn record_value(&self, value: u64) {
        if !self.enabled {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A span that records its elapsed time into this histogram when
    /// dropped. On a no-op histogram the span never reads the clock.
    pub fn start_timer(self: &Arc<Self>) -> Timer {
        Timer {
            hist: self.clone(),
            start: self.enabled.then(Instant::now),
        }
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u8, c));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A span recording its elapsed time into a [`Histogram`] on drop.
#[derive(Debug)]
pub struct Timer {
    hist: Arc<Histogram>,
    start: Option<Instant>,
}

impl Timer {
    /// Stop the span early and record it (dropping does the same).
    pub fn stop(self) {}
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed());
        }
    }
}

/// A multi-lap stopwatch for phase timings: each [`Stopwatch::lap`] returns
/// the time since the previous lap (or start). Disabled stopwatches never
/// read the clock and return [`Duration::ZERO`] — the commit path's
/// instrumentation cost vanishes under a no-op registry.
#[derive(Debug)]
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Start (or, when `enabled` is false, construct a no-op stopwatch).
    pub fn start_if(enabled: bool) -> Self {
        Stopwatch {
            last: enabled.then(Instant::now),
        }
    }

    /// Time since the previous lap (or start); `ZERO` when disabled.
    pub fn lap(&mut self) -> Duration {
        match self.last {
            Some(prev) => {
                let now = Instant::now();
                self.last = Some(now);
                now - prev
            }
            None => Duration::ZERO,
        }
    }
}

// ------------------------------------------------------------------ registry

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Default)]
struct RegistryInner {
    enabled: bool,
    metrics: RwLock<BTreeMap<String, Metric>>,
}

/// A named collection of metrics. Cloning the registry (or a handle from
/// it) shares state; [`Registry::snapshot`] captures an immutable,
/// renderable copy. Handle lookup takes a lock — call sites are expected to
/// resolve their handles once (at construction) and keep the `Arc`s.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A fresh, enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: true,
                metrics: RwLock::new(BTreeMap::new()),
            }),
        }
    }

    /// A no-op registry: every handle it hands out ignores updates, and
    /// [`Registry::snapshot`] is empty. Used to measure instrumentation
    /// overhead (metrics on vs. off) without recompiling.
    pub fn noop() -> Self {
        Registry::default()
    }

    /// Does this registry record anything?
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || {
            Metric::Counter(Arc::new(Counter::new(self.inner.enabled)))
        }) {
            Metric::Counter(c) => c,
            _ => panic!("metric '{name}' is already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || {
            Metric::Gauge(Arc::new(Gauge::new(self.inner.enabled)))
        }) {
            Metric::Gauge(g) => g,
            _ => panic!("metric '{name}' is already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || {
            Metric::Histogram(Arc::new(Histogram::new(self.inner.enabled)))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric '{name}' is already registered with a different kind"),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        // Fast path: already registered.
        {
            let metrics = self
                .inner
                .metrics
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(m) = metrics.get(name) {
                return m.clone();
            }
        }
        let mut metrics = self
            .inner
            .metrics
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// An immutable snapshot of every registered metric, sorted by name.
    /// Empty for a no-op registry.
    pub fn snapshot(&self) -> Snapshot {
        if !self.inner.enabled {
            return Snapshot::default();
        }
        let metrics = self
            .inner
            .metrics
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        Snapshot {
            samples: metrics
                .iter()
                .map(|(name, m)| Sample {
                    name: name.clone(),
                    value: match m {
                        Metric::Counter(c) => SampleValue::Counter(c.get()),
                        Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                        Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

// ------------------------------------------------------------------ snapshot

/// One metric's captured value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter's cumulative total.
    Counter(u64),
    /// A gauge's current value.
    Gauge(i64),
    /// A histogram's captured state.
    Histogram(HistogramSnapshot),
}

/// One named metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// The metric's registered name.
    pub name: String,
    /// Its captured value.
    pub value: SampleValue,
}

/// An immutable capture of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The captured metrics.
    pub samples: Vec<Sample>,
}

/// An immutable capture of a [`Histogram`]: total count, nanosecond sum,
/// and the non-empty buckets as `(bucket index, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded durations, in nanoseconds.
    pub sum_nanos: u64,
    /// Non-empty buckets, ascending: `(index, count)`. Bucket `i` covers
    /// `[2^(i-1), 2^i)` nanoseconds (bucket 0 holds zero durations).
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`), linearly interpolated inside the
    /// winning log2 bucket. `ZERO` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            if seen + c >= rank {
                let lower = bucket_lower(i as usize) as f64;
                let upper = bucket_upper(i as usize) as f64;
                let frac = (rank - seen) as f64 / c as f64;
                return Duration::from_nanos((lower + frac * (upper - lower)) as u64);
            }
            seen += c;
        }
        Duration::from_nanos(bucket_upper(64))
    }

    /// Mean recorded duration (`ZERO` when empty).
    pub fn mean(&self) -> Duration {
        self.sum_nanos
            .checked_div(self.count)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

impl Snapshot {
    /// Look up a sample by name.
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.value)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(SampleValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` is a gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(SampleValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's captured state, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(SampleValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

// ----------------------------------------------------------------- rendering

fn nanos_to_secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Does the histogram `name` hold durations (as opposed to counts)? The
/// unit lives in the name; see [`Histogram`].
fn holds_durations(name: &str) -> bool {
    name.ends_with("_seconds")
}

/// A quantile of a count histogram, as the number it is.
fn count_quantile(h: &HistogramSnapshot, q: f64) -> u64 {
    h.quantile(q).as_nanos() as u64
}

fn count_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum_nanos as f64 / h.count as f64
    }
}

/// Render a snapshot as aligned human-readable text (the `.stats` /
/// `--stats` view). Histograms show count, mean and p50/p95/p99.9 — as
/// times for `…_seconds` histograms, as plain numbers for count
/// histograms.
pub fn render_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for s in &snapshot.samples {
        match &s.value {
            SampleValue::Counter(v) => out.push_str(&format!("{:<44} {v}\n", s.name)),
            SampleValue::Gauge(v) => out.push_str(&format!("{:<44} {v}\n", s.name)),
            SampleValue::Histogram(h) if holds_durations(&s.name) => out.push_str(&format!(
                "{:<44} count {}  mean {:?}  p50 {:?}  p95 {:?}  p99.9 {:?}\n",
                s.name,
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.999),
            )),
            SampleValue::Histogram(h) => out.push_str(&format!(
                "{:<44} count {}  mean {:.1}  p50 {}  p95 {}  p99.9 {}\n",
                s.name,
                h.count,
                count_mean(h),
                count_quantile(h, 0.50),
                count_quantile(h, 0.95),
                count_quantile(h, 0.999),
            )),
        }
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format (version
/// 0.0.4): `# TYPE` lines, cumulative `_bucket{le="…"}` series ending in
/// `+Inf`, and `_sum` / `_count` series. The bounds and sums of `…_seconds`
/// histograms are converted from the internal nanoseconds to seconds;
/// count histograms are exposed as recorded.
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for s in &snapshot.samples {
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("# TYPE {} counter\n{} {v}\n", s.name, s.name));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {} gauge\n{} {v}\n", s.name, s.name));
            }
            SampleValue::Histogram(h) => {
                let durations = holds_durations(&s.name);
                out.push_str(&format!("# TYPE {} histogram\n", s.name));
                let mut cumulative = 0u64;
                for &(i, c) in &h.buckets {
                    cumulative += c;
                    out.push_str(&format!(
                        "{}_bucket{{le=\"{}\"}} {cumulative}\n",
                        s.name,
                        format_le(bucket_upper(i as usize), durations),
                    ));
                }
                out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", s.name, h.count));
                let sum = if durations {
                    format_float(nanos_to_secs(h.sum_nanos))
                } else {
                    h.sum_nanos.to_string()
                };
                out.push_str(&format!(
                    "{}_sum {sum}\n{}_count {}\n",
                    s.name, s.name, h.count
                ));
            }
        }
    }
    out
}

/// An `le` bound — in seconds (with enough digits to stay exact and no
/// trailing-zero noise) for a duration histogram, as recorded for a count
/// histogram.
fn format_le(upper: u64, durations: bool) -> String {
    if upper == u64::MAX {
        "+Inf".into()
    } else if durations {
        format_float(nanos_to_secs(upper))
    } else {
        upper.to_string()
    }
}

fn format_float(v: f64) -> String {
    let s = format!("{v:.9}");
    let s = s.trim_end_matches('0');
    let s = s.trim_end_matches('.');
    if s.is_empty() {
        "0".into()
    } else {
        s.to_string()
    }
}

/// Render a snapshot as a JSON object keyed by metric name — counters and
/// gauges as numbers, `…_seconds` histograms as
/// `{"count", "sum_ns", "mean_us", "p50_us", "p95_us", "p999_us"}`, count
/// histograms as `{"count", "sum", "mean", "p50", "p95", "p999"}` — so
/// bench artifacts can embed the internal counters next to the timings.
pub fn render_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{");
    for (k, s) in snapshot.samples.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\": ", s.name));
        match &s.value {
            SampleValue::Counter(v) => out.push_str(&v.to_string()),
            SampleValue::Gauge(v) => out.push_str(&v.to_string()),
            SampleValue::Histogram(h) if !holds_durations(&s.name) => out.push_str(&format!(
                "{{\"count\": {}, \"sum\": {}, \"mean\": {:.1}, \
                 \"p50\": {}, \"p95\": {}, \"p999\": {}}}",
                h.count,
                h.sum_nanos,
                count_mean(h),
                count_quantile(h, 0.50),
                count_quantile(h, 0.95),
                count_quantile(h, 0.999),
            )),
            SampleValue::Histogram(h) => out.push_str(&format!(
                "{{\"count\": {}, \"sum_ns\": {}, \"mean_us\": {:.1}, \
                 \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p999_us\": {:.1}}}",
                h.count,
                h.sum_nanos,
                h.mean().as_secs_f64() * 1e6,
                h.quantile(0.50).as_secs_f64() * 1e6,
                h.quantile(0.95).as_secs_f64() * 1e6,
                h.quantile(0.999).as_secs_f64() * 1e6,
            )),
        }
    }
    out.push_str("\n  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.record_absolute(3); // never decreases
        assert_eq!(c.get(), 5);
        c.record_absolute(9);
        assert_eq!(c.get(), 9);
        let g = r.gauge("g");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("x_total").inc();
        r.counter("x_total").inc();
        assert_eq!(r.counter("x_total").get(), 2);
        // A clone of the registry sees the same metrics.
        assert_eq!(r.counter("x_total").get(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn bucket_math_is_exact() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64 {
            // Every bucket's bounds contain exactly its own indexes.
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i) - 1), i);
        }
    }

    #[test]
    fn histogram_quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("h_seconds");
        // 1000 samples spread over [1µs, 2µs): all in one bucket.
        for i in 0..1000u64 {
            h.record_nanos(1024 + i);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        let p50 = s.quantile(0.5).as_nanos() as u64;
        let p999 = s.quantile(0.999).as_nanos() as u64;
        // p50 lands mid-bucket, p99.9 near the top; ordering always holds.
        assert!((1024..2048).contains(&p50), "p50 {p50}");
        assert!((1024..=2048).contains(&p999), "p999 {p999}");
        assert!(p50 <= p999);
        assert_eq!(s.mean().as_nanos() as u64, 1024 + 999 / 2);
    }

    #[test]
    fn histogram_quantiles_cross_buckets() {
        let r = Registry::new();
        let h = r.histogram("h_seconds");
        for _ in 0..90 {
            h.record(Duration::from_nanos(100)); // bucket [64, 128)
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(100)); // bucket [65536, 131072)
        }
        let s = h.snapshot();
        assert!(s.quantile(0.5) < Duration::from_nanos(128));
        assert!(s.quantile(0.95) >= Duration::from_nanos(65536));
        assert_eq!(s.quantile(0.0), s.quantile(0.001)); // rank clamps to 1
    }

    #[test]
    fn empty_histogram_is_safe() {
        let s = HistogramSnapshot::default();
        assert_eq!(s.quantile(0.5), Duration::ZERO);
        assert_eq!(s.mean(), Duration::ZERO);
    }

    #[test]
    fn noop_registry_records_nothing() {
        let r = Registry::noop();
        assert!(!r.is_enabled());
        let c = r.counter("c_total");
        c.inc();
        c.record_absolute(10);
        assert_eq!(c.get(), 0);
        let g = r.gauge("g");
        g.inc();
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = r.histogram("h_seconds");
        h.record(Duration::from_secs(1));
        assert_eq!(h.count(), 0);
        // A timer from a no-op histogram never reads the clock.
        h.start_timer().stop();
        assert_eq!(h.count(), 0);
        assert!(r.snapshot().samples.is_empty());
    }

    #[test]
    fn stopwatch_laps_are_monotone_and_noop_is_zero() {
        let mut sw = Stopwatch::start_if(true);
        std::thread::sleep(Duration::from_millis(1));
        assert!(sw.lap() >= Duration::from_millis(1));
        let mut off = Stopwatch::start_if(false);
        assert_eq!(off.lap(), Duration::ZERO);
    }

    #[test]
    fn timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("h_seconds");
        {
            let _t = h.start_timer();
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.mean() >= Duration::from_millis(1));
    }

    #[test]
    fn snapshot_lookup_and_text_rendering() {
        let r = Registry::new();
        r.counter("tintin_commits_total").add(3);
        r.gauge("tintin_sessions_open").set(2);
        r.histogram("tintin_commit_seconds")
            .record(Duration::from_micros(10));
        let s = r.snapshot();
        assert_eq!(s.counter("tintin_commits_total"), Some(3));
        assert_eq!(s.gauge("tintin_sessions_open"), Some(2));
        assert_eq!(s.histogram("tintin_commit_seconds").unwrap().count, 1);
        assert_eq!(s.counter("tintin_sessions_open"), None); // kind-checked
        let text = render_text(&s);
        assert!(text.contains("tintin_commits_total"));
        assert!(text.contains("p99.9"));
    }

    #[test]
    fn prometheus_rendering_is_parseable() {
        let r = Registry::new();
        r.counter("tintin_commits_total").add(3);
        r.gauge("tintin_sessions_open").set(2);
        let h = r.histogram("tintin_commit_seconds");
        h.record(Duration::from_micros(10));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(1));
        let text = render_prometheus(&r.snapshot());
        // Every non-comment line is `name{labels}? value` with a numeric
        // value; bucket counts are cumulative and end with +Inf == count.
        let mut last_bucket = 0u64;
        let mut saw_inf = false;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            let v: f64 = value.parse().expect("numeric value");
            if name.contains("_bucket{le=") {
                assert!(v as u64 >= last_bucket, "buckets must be cumulative");
                last_bucket = v as u64;
                if name.contains("+Inf") {
                    saw_inf = true;
                    assert_eq!(v as u64, 3);
                }
            }
        }
        assert!(saw_inf, "histogram must end with an +Inf bucket");
        assert!(text.contains("# TYPE tintin_commits_total counter"));
        assert!(text.contains("# TYPE tintin_sessions_open gauge"));
        assert!(text.contains("# TYPE tintin_commit_seconds histogram"));
        assert!(text.contains("tintin_commit_seconds_count 3"));
    }

    #[test]
    fn le_bounds_render_in_seconds_without_noise() {
        assert_eq!(format_le(1024, true), "0.000001024");
        assert_eq!(format_le(1_000_000_000, true), "1");
        assert_eq!(format_le(u64::MAX, true), "+Inf");
        assert_eq!(format_le(1024, false), "1024");
        assert_eq!(format_float(0.0), "0");
    }

    #[test]
    fn count_histograms_render_as_plain_numbers() {
        let r = Registry::new();
        let h = r.histogram("tintin_commit_rows");
        for rows in [6, 6, 200] {
            h.record_value(rows);
        }
        let snap = r.snapshot();
        let text = render_text(&snap);
        assert!(
            text.contains("count 3  mean 70.7  p50 8  p95 256"),
            "no unit suffixes on a count histogram: {text}"
        );
        assert!(!text.contains("ns"), "{text}");
        let prom = render_prometheus(&snap);
        assert!(
            prom.contains("tintin_commit_rows_bucket{le=\"8\"} 2"),
            "{prom}"
        );
        assert!(
            prom.contains("tintin_commit_rows_bucket{le=\"256\"} 3"),
            "{prom}"
        );
        assert!(prom.contains("tintin_commit_rows_sum 212\n"), "{prom}");
        let json = render_json(&snap);
        assert!(
            json.contains("\"sum\": 212") && json.contains("\"p50\": 8"),
            "{json}"
        );
        assert!(!json.contains("_us"), "{json}");
    }

    #[test]
    fn json_rendering_is_structured() {
        let r = Registry::new();
        r.counter("a_total").add(1);
        r.histogram("b_seconds").record(Duration::from_micros(5));
        let json = render_json(&r.snapshot());
        assert!(json.contains("\"a_total\": 1"));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"p999_us\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
