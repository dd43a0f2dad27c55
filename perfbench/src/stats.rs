//! Small measurement helpers: order statistics, the seeded input RNG,
//! and the process's peak resident set.

use std::time::{Duration, Instant};

/// Wall time in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Time of one calibration unit on a 2-vCPU Xeon guest in its fast
/// periods (see README.md, "Noise control"). Normalised times are
/// expressed in seconds of that guest.
const CALIBRATION_REFERENCE_S: f64 = 1.2e-3;
/// The same for units run on two threads at once: on that guest two
/// units take longer together than one alone.
const PARALLEL_REFERENCE_S: f64 = 2.0e-3;

/// A fixed unit of floating-point division over a 32 KiB array: of the
/// kernels tried, the one whose speed best tracks the emulator's through
/// the host's slow and fast periods. It is the benchmark's own code, so
/// no change to the program moves it.
fn calibration_kernel() -> f64 {
    let n = std::hint::black_box(4096usize);
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.37).collect();
    let mut acc = 0.0;
    for _ in 0..120 {
        for j in 0..n {
            let (a, b) = (v[j], v[(j * 7 + 3) % n]);
            v[j] = (a / b + b / (a + 1.0)).min(1e6) + 0.5;
            acc += v[j];
        }
    }
    acc
}

/// Half-width, in seconds, of the window of calibration units that
/// gives the host's speed at one instant. The host's fast and slow
/// periods last 10–60 s, so a few seconds see one speed.
const SPEED_WINDOW_S: f64 = 1.5;
/// Fewest calibration units behind one speed estimate. When the window
/// holds fewer, the units nearest in time are used.
const SPEED_MIN_UNITS: usize = 8;

/// One timed interval: its wall time and its midpoint, in seconds since
/// the `HostSpeed` origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub raw_s: f64,
    mid_s: f64,
}

/// The host's speed over one invocation: every calibration unit run,
/// with the time it ran at. A timed interval is normalised by the median
/// unit within `SPEED_WINDOW_S` of its midpoint, which one disturbed
/// unit cannot move (see README.md, "Noise control").
#[derive(Debug)]
pub struct HostSpeed {
    origin: Instant,
    /// Threads each unit runs on at once; the unit's time is the wall
    /// time until all of them finish.
    threads: usize,
    /// A unit's time in a fast period; normalised times are expressed in
    /// seconds of that period.
    reference_s: f64,
    /// (midpoint in seconds since `origin`, unit wall time in seconds).
    units: Vec<(f64, f64)>,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::new()
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        HostSpeed::parallel(1)
    }

    /// Units run on `threads` threads at once, for work that keeps that
    /// many threads busy: a slowed vCPU slows such work, and shows in the
    /// slowest thread's unit.
    pub fn parallel(threads: usize) -> HostSpeed {
        let threads = threads.max(1);
        let reference_s = if threads == 1 { CALIBRATION_REFERENCE_S } else { PARALLEL_REFERENCE_S };
        HostSpeed { origin: Instant::now(), threads, reference_s, units: Vec::new() }
    }

    /// Run one calibration unit and record it.
    pub fn sample(&mut self) {
        let (_, span) = self.time(|| {
            std::thread::scope(|s| {
                for _ in 1..self.threads {
                    s.spawn(|| std::hint::black_box(calibration_kernel()));
                }
                std::hint::black_box(calibration_kernel());
            })
        });
        self.units.push((span.mid_s, span.raw_s));
    }

    /// Run `f`, returning its value and the interval it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = self.origin.elapsed().as_secs_f64();
        let t = Instant::now();
        let value = f();
        let raw_s = t.elapsed().as_secs_f64();
        (value, Span { raw_s, mid_s: start + raw_s / 2.0 })
    }

    /// `span`'s wall time in seconds of the reference machine.
    pub fn normalized(&self, span: Span) -> f64 {
        assert!(!self.units.is_empty(), "no calibration units to normalise by");
        let mut near: Vec<(f64, f64)> =
            self.units.iter().map(|&(at, unit)| ((at - span.mid_s).abs(), unit)).collect();
        near.sort_by(|a, b| a.0.total_cmp(&b.0));
        let within = near.iter().take_while(|(d, _)| *d <= SPEED_WINDOW_S).count();
        let units: Vec<f64> =
            near.iter().take(within.max(SPEED_MIN_UNITS)).map(|&(_, unit)| unit).collect();
        span.raw_s * self.reference_s / median(&units)
    }
}

/// Repetitions of a workload's set-up; `setup_s` is the median of their
/// normalised times. Each repetition is bracketed by calibration units.
/// The first repetition runs before the timed phase and its state is
/// the one used. The batch workloads spread the rest evenly over the
/// timed phase, between its repetitions and outside their timings, so
/// that the median samples the host's speed over the whole run as the
/// timed figures do (see README.md, "Noise control").
#[derive(Debug)]
pub struct SetupTimes {
    reps: usize,
    spans: Vec<Span>,
}

impl SetupTimes {
    pub fn new(reps: usize) -> SetupTimes {
        SetupTimes { reps, spans: Vec::new() }
    }

    /// Time one repetition of the set-up `f`.
    pub fn time<T>(&mut self, speed: &mut HostSpeed, f: impl FnOnce() -> T) -> T {
        speed.sample();
        let (value, span) = speed.time(f);
        speed.sample();
        self.spans.push(span);
        value
    }

    /// Whether another repetition is due `elapsed_s` into a timed phase
    /// of `budget_s`, the repetitions being spread evenly over it.
    pub fn due(&self, elapsed_s: f64, budget_s: f64) -> bool {
        let done = self.spans.len();
        done < self.reps && elapsed_s >= budget_s * done as f64 / self.reps as f64
    }

    /// Repetitions still missing after the timed phase.
    pub fn missing(&self) -> usize {
        self.reps.saturating_sub(self.spans.len())
    }

    pub fn median(&self, speed: &HostSpeed) -> f64 {
        median(&self.spans.iter().map(|s| speed.normalized(*s)).collect::<Vec<_>>())
    }
}

/// A latency distribution summarised the way the benchmark reports it:
/// the median and the 99th percentile (nearest rank), with the sample
/// count and how many samples lie strictly beyond the reported p99.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
    pub beyond_p99: usize,
}

impl Tail {
    pub fn of(xs: &[f64]) -> Tail {
        assert!(!xs.is_empty(), "percentiles of no samples");
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
        Tail { n, p50: median(&v), p99: v[rank - 1], beyond_p99: n - rank }
    }

    /// At least ten samples lie beyond the p99, so it is resolved.
    pub fn p99_resolved(&self) -> bool {
        self.beyond_p99 >= 10
    }

    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}: p50 {:.3} ms, p99 {:.3} ms over {} samples ({} beyond p99{})",
            self.p50,
            self.p99,
            self.n,
            self.beyond_p99,
            if self.p99_resolved() { "" } else { "; p99 unresolved, fewer than 10 beyond it" }
        )
    }
}

/// SplitMix64: the benchmark's own input generator. The program never
/// sees this stream, only the inputs drawn from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB. Each benchmark
/// invocation is a fresh process, so this is the workload's own peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p99_leaves_ten_beyond_at_one_thousand() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Tail::of(&xs);
        assert_eq!(t.p99, 990.0);
        assert_eq!(t.beyond_p99, 10);
        assert!(t.p99_resolved());
        assert_eq!(t.p50, 500.5);
        assert!(!Tail::of(&xs[..999]).p99_resolved());
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
