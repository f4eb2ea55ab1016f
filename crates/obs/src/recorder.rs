//! The [`Recorder`]: a named-metric registry behind one on/off switch.
//!
//! Libraries record unconditionally — every instrumented call site goes
//! through a `Recorder` method, and when recording is disabled each call
//! costs exactly one atomic load before returning. There is one process
//! [`recorder()`] that instrumented crates use by default, but the handle is
//! overridable: anything that needs isolated counts (a registry server under
//! test, a bench run) constructs its own `Recorder` and threads it through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, DURATION_BUCKETS};

/// Counter bumped when a metric name is re-registered with a different
/// kind (see [`Recorder::counter`] and friends): the caller gets a
/// detached handle instead of a panic, and the conflict shows up here.
pub(crate) const REGISTRATION_CONFLICTS: &str = "mmlib_obs_registration_conflicts_total";

/// Pre-registers obs's own metric on `recorder`, so a conflict-free
/// exposition still shows the conflict counter at zero.
pub fn register_metrics(recorder: &Recorder) {
    recorder.counter(REGISTRATION_CONFLICTS, None);
}

/// A metric's identity: base name plus an optional single `key="value"`
/// label pair. `BTreeMap` ordering makes exposition output deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    name: String,
    label: Option<(String, String)>,
}

impl Key {
    fn new(name: &str, label: Option<(&str, &str)>) -> Key {
        Key {
            name: name.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
        }
    }
}

#[derive(Debug, Clone)]
enum Entry {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One metric's point-in-time value, for building JSON snapshots elsewhere
/// (this crate stays dependency-free, so it exposes plain data instead).
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Metric base name (e.g. `mmlib_net_requests_total`).
    pub name: String,
    /// Optional `(key, value)` label pair.
    pub label: Option<(String, String)>,
    /// The value.
    pub value: SnapshotValue,
}

/// A snapshot value per metric kind.
#[derive(Debug, Clone)]
pub enum SnapshotValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram: finite bucket bounds, cumulative counts per bound, total
    /// count, and sum.
    Histogram {
        /// Finite `le` bounds.
        bounds: Vec<f64>,
        /// Cumulative counts aligned with `bounds`.
        cumulative: Vec<u64>,
        /// Total observations (the `+Inf` cumulative count).
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

/// A metrics registry with a single enable switch.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: AtomicBool,
    metrics: RwLock<BTreeMap<Key, Entry>>,
}

impl Recorder {
    /// A fresh, enabled recorder.
    pub fn new() -> Recorder {
        let r = Recorder::default();
        r.enabled.store(true, Ordering::Relaxed);
        r
    }

    /// A fresh recorder with recording off (metrics can still be
    /// registered; recording calls return after one atomic load).
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// Whether recording is on. Every recording method checks this first,
    /// so a disabled recorder costs one atomic load per call site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    // ---- recording ------------------------------------------------------

    /// Adds `n` to the counter `name` (creating it on first use).
    #[inline]
    pub fn inc(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        self.counter(name, None).add(n);
    }

    /// Adds `n` to the counter `name{key="value"}`.
    #[inline]
    pub fn inc_labeled(&self, name: &str, label: (&str, &str), n: u64) {
        if !self.enabled() {
            return;
        }
        self.counter(name, Some(label)).add(n);
    }

    /// Sets the gauge `name` to `v`.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        self.gauge(name, None).set(v);
    }

    /// Adds `delta` to the gauge `name`.
    #[inline]
    pub fn gauge_add(&self, name: &str, delta: f64) {
        if !self.enabled() {
            return;
        }
        self.gauge(name, None).add(delta);
    }

    /// Observes `v` in the histogram `name` (default duration buckets on
    /// first use).
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if !self.enabled() {
            return;
        }
        self.histogram(name, None, &DURATION_BUCKETS).observe(v);
    }

    /// Observes `v` in the histogram `name{key="value"}`.
    #[inline]
    pub fn observe_labeled(&self, name: &str, label: (&str, &str), v: f64) {
        if !self.enabled() {
            return;
        }
        self.histogram(name, Some(label), &DURATION_BUCKETS).observe(v);
    }

    /// Observes a wall-time duration, in seconds, under `name{key="value"}`.
    #[inline]
    pub fn observe_duration(&self, name: &str, label: (&str, &str), d: std::time::Duration) {
        self.observe_labeled(name, label, d.as_secs_f64());
    }

    // ---- registration / handle lookup -----------------------------------

    /// Returns (creating if needed) the counter `name{label}`. Registration
    /// works even while disabled, so expositions can show zero-valued
    /// metrics before any traffic.
    ///
    /// If `name` is already registered as a different kind, the conflict is
    /// counted under [`REGISTRATION_CONFLICTS`] and the caller receives a
    /// detached handle (its updates are invisible to expositions) — a
    /// telemetry bug must not abort an instrumented caller.
    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> Arc<Counter> {
        if let Some(Entry::Counter(c)) = self.lookup(name, label) {
            return c;
        }
        self.insert_if_absent(name, label, || Entry::Counter(Arc::new(Counter::default())), |e| {
            match e {
                Entry::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            }
        })
        .unwrap_or_else(|| {
            self.note_conflict();
            Arc::new(Counter::default())
        })
    }

    /// Returns (creating if needed) the gauge `name{label}`. Kind conflicts
    /// behave as in [`Recorder::counter`].
    pub fn gauge(&self, name: &str, label: Option<(&str, &str)>) -> Arc<Gauge> {
        if let Some(Entry::Gauge(g)) = self.lookup(name, label) {
            return g;
        }
        self.insert_if_absent(name, label, || Entry::Gauge(Arc::new(Gauge::default())), |e| {
            match e {
                Entry::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            }
        })
        .unwrap_or_else(|| {
            self.note_conflict();
            Arc::new(Gauge::default())
        })
    }

    /// Returns (creating if needed) the histogram `name{label}` with the
    /// given bucket bounds (bounds apply only at creation). Kind conflicts
    /// behave as in [`Recorder::counter`].
    pub fn histogram(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        bounds: &[f64],
    ) -> Arc<Histogram> {
        if let Some(Entry::Histogram(h)) = self.lookup(name, label) {
            return h;
        }
        self.insert_if_absent(name, label, || Entry::Histogram(Arc::new(Histogram::new(bounds))), |e| {
            match e {
                Entry::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            }
        })
        .unwrap_or_else(|| {
            self.note_conflict();
            Arc::new(Histogram::new(bounds))
        })
    }

    fn lookup(&self, name: &str, label: Option<(&str, &str)>) -> Option<Entry> {
        let key = Key::new(name, label);
        self.read_map().get(&key).cloned()
    }

    /// Inserts the entry if the key is vacant and casts whatever occupies
    /// the slot to the requested handle type; `None` means the slot holds a
    /// different metric kind.
    fn insert_if_absent<T>(
        &self,
        name: &str,
        label: Option<(&str, &str)>,
        make: impl FnOnce() -> Entry,
        cast: impl Fn(&Entry) -> Option<T>,
    ) -> Option<T> {
        let key = Key::new(name, label);
        let mut map = self.write_map();
        let entry = map.entry(key).or_insert_with(make);
        cast(entry)
    }

    /// Records a kind-conflicting registration so the miswiring is visible
    /// in every exposition.
    fn note_conflict(&self) {
        let key = Key::new(REGISTRATION_CONFLICTS, None);
        let mut map = self.write_map();
        if let Entry::Counter(c) =
            map.entry(key).or_insert_with(|| Entry::Counter(Arc::new(Counter::default())))
        {
            c.add(1);
        }
    }

    /// Metrics are plain atomics, so a panic under the registry lock cannot
    /// leave them inconsistent — recover the poisoned guard instead of
    /// cascading the panic into every later instrumented call.
    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<Key, Entry>> {
        self.metrics.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<Key, Entry>> {
        self.metrics.write().unwrap_or_else(|e| e.into_inner())
    }

    // ---- reading --------------------------------------------------------

    /// Current value of a counter (0 when absent).
    pub fn counter_value(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        match self.lookup(name, label) {
            Some(Entry::Counter(c)) => c.value(),
            _ => 0,
        }
    }

    /// Current value of a gauge (0 when absent).
    pub fn gauge_value(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        match self.lookup(name, label) {
            Some(Entry::Gauge(g)) => g.value(),
            _ => 0.0,
        }
    }

    /// Observation count of a histogram (0 when absent).
    pub fn histogram_count(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        match self.lookup(name, label) {
            Some(Entry::Histogram(h)) => h.count(),
            _ => 0,
        }
    }

    /// Observation sum of a histogram (0 when absent).
    pub fn histogram_sum(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        match self.lookup(name, label) {
            Some(Entry::Histogram(h)) => h.sum(),
            _ => 0.0,
        }
    }

    /// Point-in-time values of every registered metric, in deterministic
    /// (name, label) order.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.read_map();
        map.iter()
            .map(|(key, entry)| MetricSnapshot {
                name: key.name.clone(),
                label: key.label.clone(),
                value: match entry {
                    Entry::Counter(c) => SnapshotValue::Counter(c.value()),
                    Entry::Gauge(g) => SnapshotValue::Gauge(g.value()),
                    Entry::Histogram(h) => SnapshotValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        cumulative: h.cumulative(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                },
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` headers, `_bucket`/`_sum`/`_count`
    /// histogram series with cumulative `le` labels.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        for snap in self.snapshot() {
            if last_name.as_deref() != Some(snap.name.as_str()) {
                let kind = match snap.value {
                    SnapshotValue::Counter(_) => "counter",
                    SnapshotValue::Gauge(_) => "gauge",
                    SnapshotValue::Histogram { .. } => "histogram",
                };
                // Writing into a String cannot fail; ignore the fmt Result.
                let _ = writeln!(out, "# TYPE {} {kind}", snap.name);
                last_name = Some(snap.name.clone());
            }
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut pairs = Vec::new();
                if let Some((k, v)) = &snap.label {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if let Some((k, v)) = extra {
                    pairs.push(format!("{k}=\"{v}\""));
                }
                if pairs.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", pairs.join(","))
                }
            };
            match &snap.value {
                SnapshotValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", snap.name, labels(None));
                }
                SnapshotValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", snap.name, labels(None), fmt_f64(*v));
                }
                SnapshotValue::Histogram { bounds, cumulative, count, sum } => {
                    for (bound, cum) in bounds.iter().zip(cumulative) {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            snap.name,
                            labels(Some(("le", fmt_f64(*bound))))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {count}",
                        snap.name,
                        labels(Some(("le", "+Inf".to_string())))
                    );
                    let _ = writeln!(out, "{}_sum{} {}", snap.name, labels(None), fmt_f64(*sum));
                    let _ = writeln!(out, "{}_count{} {count}", snap.name, labels(None));
                }
            }
        }
        out
    }

    /// Zeroes every registered metric (names and buckets stay registered).
    /// Bench/test plumbing — not meant for production paths.
    pub fn reset(&self) {
        let map = self.read_map();
        for entry in map.values() {
            match entry {
                Entry::Counter(c) => c.reset(),
                Entry::Gauge(g) => g.reset(),
                Entry::Histogram(h) => h.reset(),
            }
        }
    }
}

/// Formats an `f64` the way Prometheus expositions expect: Rust's `{}`
/// Display is the shortest round-trip form and never uses an exponent for
/// integral values, so it is already conformant.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// The process-wide default recorder, used by instrumented library code
/// unless a caller threads its own [`Recorder`] through. Enabled from the
/// start; set `MMLIB_OBS=0` in the environment to boot with recording off.
pub fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let r = Recorder::new();
        if std::env::var("MMLIB_OBS").is_ok_and(|v| v == "0") {
            r.set_enabled(false);
        }
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.inc("x_total", 5);
        r.observe("y_seconds", 0.5);
        assert_eq!(r.counter_value("x_total", None), 0);
        assert_eq!(r.histogram_count("y_seconds", None), 0);
        r.set_enabled(true);
        r.inc("x_total", 5);
        assert_eq!(r.counter_value("x_total", None), 5);
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let r = Recorder::new();
        r.inc_labeled("ops_total", ("op", "get"), 2);
        r.inc_labeled("ops_total", ("op", "put"), 3);
        assert_eq!(r.counter_value("ops_total", Some(("op", "get"))), 2);
        assert_eq!(r.counter_value("ops_total", Some(("op", "put"))), 3);
    }

    #[test]
    fn kind_collision_detaches_and_counts() {
        let r = Recorder::new();
        r.inc("m", 1);
        // Same name, different kind: the observation lands on a detached
        // histogram, the original counter is untouched, and the conflict
        // counter records the miswiring.
        r.observe("m", 1.0);
        assert_eq!(r.counter_value("m", None), 1);
        assert_eq!(r.histogram_count("m", None), 0);
        assert_eq!(r.counter_value(REGISTRATION_CONFLICTS, None), 1);
        r.observe("m", 2.0);
        assert_eq!(r.counter_value(REGISTRATION_CONFLICTS, None), 2);
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let r = Recorder::new();
        r.inc("a_total", 9);
        r.observe("b_seconds", 0.1);
        r.reset();
        assert_eq!(r.counter_value("a_total", None), 0);
        assert_eq!(r.histogram_count("b_seconds", None), 0);
        // Still present in the exposition.
        let text = r.render_text();
        assert!(text.contains("a_total 0"));
        assert!(text.contains("b_seconds_count 0"));
    }
}
