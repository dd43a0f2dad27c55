//! The repository's benchmark: three named workloads driven through the
//! workspace crates' public APIs, every output checked, every metric
//! printed by name with its unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The untraced pass (always run) gives the end-to-end metrics. The
//! traced pass (profiling spans on, public calls timed one by one) gives
//! the per-layer metrics and the layer table. `--trace 0` reports the
//! end-to-end metrics in the final JSON line, `--trace 1` the per-layer
//! ones. See `perfbench/README.md` for what each metric means and which
//! end-to-end metric each layer metric should move.

mod batch;
mod population;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics: name and unit, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_days_per_s", "days/s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rps", "1/s"),
];

/// Per-layer metrics: name and unit, in report order. A workload that
/// does not reach a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("scenarios.load_ms", "ms"),
    ("controller.manifest_expand_ms", "ms"),
    ("core.events", "count"),
    ("core.ns_per_event", "ns"),
    ("core.loop_self_ms", "ms"),
    ("core.run_ms.scenario1", "ms"),
    ("core.run_ms.scenario2", "ms"),
    ("core.run_ms.scenario3", "ms"),
    ("core.run_ms.scenario4", "ms"),
    ("core.profile_overhead_frac", "ratio"),
    ("client.advance_ms", "ms"),
    ("client.reschedule_ms", "ms"),
    ("client.rr_queries", "count"),
    ("client.rr_runs", "count"),
    ("client.rr_frozen", "count"),
    ("client.rr_hit_rate", "ratio"),
    ("client.peak_jobs", "count"),
    ("server.rpc_loop_ms", "ms"),
    ("server.rpcs", "count"),
    ("avail.flaps_coalesced", "count"),
    ("avail.resched_skipped", "count"),
    ("controller.emulate_ms", "ms"),
    ("controller.recv_wait_ms", "ms"),
    ("controller.reduce_ms", "ms"),
    ("controller.executor_overhead_frac", "ratio"),
    ("controller.ckpt_writes", "count"),
    ("controller.ckpt_bytes", "bytes"),
    ("controller.ckpt_encode_ms", "ms"),
    ("statefile.write_ms", "ms"),
    ("statefile.read_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.wait_mean_ms", "ms"),
    ("serve.accepted", "count"),
    ("serve.responses_2xx", "count"),
    ("serve.responses_5xx", "count"),
    ("serve.shed", "count"),
    ("serve.generator_late_p99_ms", "ms"),
    ("serve.emu_rr_runs", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.remainder_ms", "ms"),
];

/// The largest share of the traced wall time the layer table may leave
/// unexplained.
const MAX_REMAINDER_SHARE: f64 = 0.05;

/// What one workload invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked (runs, campaigns, requests).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// The traced pass's layer table: self time per layer, in ms, which
    /// together with the remainder adds up to the traced wall time.
    pub table: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unknown end-to-end metric {name}");
        self.e2e.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.insert(name, v);
    }

    /// Record one checked operation; a failed check is a failed
    /// operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Close the traced layer table against the traced wall time: the
    /// remainder is whatever the listed layers do not explain. A negative
    /// row (a residual such as `core.loop_self` below zero means its
    /// children were double-counted), a negative remainder, or a
    /// remainder above `MAX_REMAINDER_SHARE` of the wall fails the
    /// invocation.
    pub fn close_table(&mut self, wall_ms: f64) {
        let slack = 1e-6 * wall_ms;
        for (name, v) in self.table.clone() {
            self.check(v >= -slack, || format!("layer {name} has negative self time {v:.3} ms"));
        }
        let explained: f64 = self.table.iter().map(|(_, v)| v).sum();
        let remainder = wall_ms - explained;
        self.check(remainder >= -slack, || {
            format!("layer table explains {explained:.3} ms of a {wall_ms:.3} ms traced wall")
        });
        self.check(remainder <= MAX_REMAINDER_SHARE * wall_ms, || {
            format!(
                "layer table leaves {remainder:.3} ms of a {wall_ms:.3} ms traced wall \
                 unexplained, over the {:.0}% limit",
                MAX_REMAINDER_SHARE * 100.0
            )
        });
        self.layer("trace.wall_ms", wall_ms);
        self.layer("trace.remainder_ms", remainder);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Everything a workload needs from the invocation.
pub struct Ctx {
    pub seed: u64,
    pub measure: Duration,
    pub trace: bool,
    /// Worker threads for parallel layers: the machine's parallelism.
    pub nproc: usize,
    /// Scratch directory inside the checkout, removed on exit.
    pub work: PathBuf,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let work = PathBuf::from(target).join(format!("perfbench-work-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: work.clone(),
    };
    let result =
        std::fs::create_dir_all(&work).map_err(|e| e.to_string()).and_then(|()| {
            match args.workload.as_str() {
                "paper_sweep" => batch::paper_sweep(&ctx),
                "population_campaign" => population::run(&ctx),
                "serve_open_loop" => serve::run(&ctx),
                other => Err(format!(
                    "unknown workload {other:?} (have paper_sweep, population_campaign, \
                 serve_open_loop)"
                )),
            }
        });
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(outcome) => report(&args, &ctx, &outcome),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn report(args: &Args, ctx: &Ctx, o: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload, args.seed, args.seconds, args.trace as u8, ctx.nproc
    );
    for n in &o.notes {
        println!("  {n}");
    }
    for p in &o.problems {
        println!("  FAILED CHECK: {p}");
    }
    let metrics = |list: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>| {
        list.iter().map(|&(n, u)| (n, values.get(n).copied().unwrap_or(0.0), u)).collect::<Vec<_>>()
    };
    let e2e = metrics(END_TO_END, &o.e2e);
    println!("end-to-end (untraced):");
    for (n, v, u) in &e2e {
        println!("  {n:<34} {v:>16.6} {u}");
    }
    let layers = metrics(PER_LAYER, &o.layers);
    if args.trace {
        println!("per-layer (traced pass):");
        for (n, v, u) in &layers {
            println!("  {n:<34} {v:>16.6} {u}");
        }
        if !o.table.is_empty() {
            println!("traced layer table (self time):");
            for (n, v) in &o.table {
                println!("  layer {n:<30} {v:>12.3} ms");
            }
            let get = |k| o.layers.get(k).copied().unwrap_or(0.0);
            println!("  layer {:<30} {:>12.3} ms", "remainder", get("trace.remainder_ms"));
            println!("  traced_wall {:>37.3} ms", get("trace.wall_ms"));
        }
    }
    let chosen = if args.trace { &layers } else { &e2e };
    let broken: Vec<&str> = chosen.iter().filter(|(_, v, _)| !v.is_finite()).map(|m| m.0).collect();
    for n in &broken {
        println!("  FAILED CHECK: metric {n} is not a finite number");
    }
    let body: Vec<String> = chosen
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0 && broken.is_empty(),
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    );
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives. JSON has no NaN or infinity; those print as 0 and fail the run.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
