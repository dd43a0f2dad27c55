//! A registry of named counters, gauges and histograms with per-component
//! scopes.
//!
//! The registry separates *registration* (name lookup, allocation) from
//! *recording* (an index into a dense `Vec`). Components register their
//! instruments once per run and hold typed ids ([`CounterId`] etc.);
//! every increment on the hot path is then a bounds-checked array add —
//! no hashing, no string comparison, no allocation.
//!
//! A [`MetricsSnapshot`] freezes the registry into a sorted,
//! deterministic `scope.name → value` table; the `bce serve` daemon's
//! `/metrics` endpoint renders it.

use std::fmt::Write as _;

/// Handle to a monotone `u64` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to an `f64` gauge (last-write-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a fixed-bound histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Slot<T> {
    scope: &'static str,
    name: &'static str,
    value: T,
}

#[derive(Debug, Clone, Default)]
struct Hist {
    /// Upper bounds of the finite buckets; an implicit `+inf` bucket
    /// follows. Must be sorted ascending.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

/// The registry. Cheap to create (three empty vectors); intended
/// lifetime is one emulation run or one bench session.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<Slot<u64>>,
    gauges: Vec<Slot<f64>>,
    histograms: Vec<Slot<Hist>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-find) a counter. Names are `'static` by design:
    /// instrument names are part of the schema, not runtime data.
    pub fn counter(&mut self, scope: &'static str, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|s| s.scope == scope && s.name == name) {
            return CounterId(i);
        }
        self.counters.push(Slot { scope, name, value: 0 });
        CounterId(self.counters.len() - 1)
    }

    pub fn gauge(&mut self, scope: &'static str, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|s| s.scope == scope && s.name == name) {
            return GaugeId(i);
        }
        self.gauges.push(Slot { scope, name, value: 0.0 });
        GaugeId(self.gauges.len() - 1)
    }

    /// Register a histogram with the given ascending finite bucket upper
    /// bounds (an overflow bucket is implicit).
    pub fn histogram(
        &mut self,
        scope: &'static str,
        name: &'static str,
        bounds: &[f64],
    ) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|s| s.scope == scope && s.name == name) {
            return HistogramId(i);
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must ascend");
        self.histograms.push(Slot {
            scope,
            name,
            value: Hist {
                bounds: bounds.to_vec(),
                counts: vec![0; bounds.len() + 1],
                count: 0,
                sum: 0.0,
            },
        });
        HistogramId(self.histograms.len() - 1)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].value += 1;
    }

    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].value = v;
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        let h = &mut self.histograms[id.0].value;
        let bucket = h.bounds.iter().position(|b| v <= *b).unwrap_or(h.bounds.len());
        h.counts[bucket] += 1;
        h.count += 1;
        h.sum += v;
    }

    /// Freeze into a deterministic snapshot: entries sorted by
    /// `scope.name` regardless of registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> =
            self.counters.iter().map(|s| (format!("{}.{}", s.scope, s.name), s.value)).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> =
            self.gauges.iter().map(|s| (format!("{}.{}", s.scope, s.name), s.value)).collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .iter()
            .map(|s| {
                (
                    format!("{}.{}", s.scope, s.name),
                    HistogramSnapshot {
                        bounds: s.value.bounds.clone(),
                        counts: s.value.counts.clone(),
                        count: s.value.count,
                        sum: s.value.sum,
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct HistogramSnapshot {
    pub(crate) bounds: Vec<f64>,
    pub(crate) counts: Vec<u64>,
    pub(crate) count: u64,
    pub(crate) sum: f64,
}

impl HistogramSnapshot {
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A deterministic, sorted view of every instrument — the one schema the
/// CLI, bench harness and fleet study read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub(crate) counters: Vec<(String, u64)>,
    pub(crate) gauges: Vec<(String, f64)>,
    pub(crate) histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by full `scope.name`.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Render as an aligned `key  value` table.
    pub fn render(&self) -> String {
        let width = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:width$}  {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:width$}  {v:.6}");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(out, "{k:width$}  n={} mean={:.3}", h.count, h.mean());
        }
        out
    }

    /// Hand-rolled JSON object (the workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":{}", crate::export::json_f64(*v));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{k}\":{{\"count\":{},\"sum\":{},\"bounds\":[",
                h.count,
                crate::export::json_f64(h.sum)
            );
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&crate::export::json_f64(*b));
            }
            s.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_dedup_and_count() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("client", "rpcs");
        let b = r.counter("client", "rpcs");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 4);
        let snap = r.snapshot();
        assert_eq!(snap.counter("client.rpcs"), Some(5));
        assert_eq!(snap.counter("client.nope"), None);
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_registration_order() {
        let mut r = MetricsRegistry::new();
        let z = r.counter("z", "last");
        let a = r.counter("a", "first");
        r.inc(z);
        r.add(a, 2);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("merit", "idle_fraction");
        r.set(g, 0.5);
        r.set(g, 0.25);
        assert_eq!(r.snapshot().gauges, [("merit.idle_fraction".to_string(), 0.25)]);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("sched", "slice_secs", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0] {
            r.observe(h, v);
        }
        let snap = r.snapshot();
        let hs = &snap.histograms[0].1;
        assert_eq!(hs.counts, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert!((hs.mean() - 26.6).abs() < 1e-9);
    }

    #[test]
    fn json_renders_all_sections() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("s", "c");
        r.inc(c);
        let g = r.gauge("s", "g");
        r.set(g, 1.5);
        r.histogram("s", "h", &[1.0]);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"s.c\":1"));
        assert!(json.contains("\"s.g\":1.5"));
        assert!(json.contains("\"s.h\":{\"count\":0"));
    }
}
