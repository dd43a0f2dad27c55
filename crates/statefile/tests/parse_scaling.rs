//! Scaling guard: JSON and `client_state.xml` parse time grows linearly
//! with document size.
//!
//! The inputs come from users (POSTed `/run` bodies, scenario specs,
//! campaign manifests, uploaded state files), so a parse that is quadratic
//! in size lets one request of `max_body_bytes` hold a worker for minutes.
//! Each shape is parsed at two sizes 8× apart; the best-of-three time must
//! grow by less than `MAX_RATIO`, which a linear parser meets with room to
//! spare in a debug build on a slow host and a quadratic one (≈64×) fails.

use bce_statefile::{parse_json, ClientStateDoc};
use bce_types::{AppClass, Hardware, Preferences, ProjectSpec, SimDuration};
use std::time::{Duration, Instant};

const SMALL: usize = 64 << 10;
const LARGE: usize = 512 << 10;
const MAX_RATIO: f64 = 24.0;

/// A JSON object holding one string of about `bytes` bytes, mixing 1- to
/// 4-byte UTF-8.
fn long_string(bytes: usize) -> String {
    let unit = "abcdefgh é中😀 ";
    format!("{{\"s\": \"{}\"}}", unit.repeat(bytes / unit.len()))
}

/// A JSON object of about `bytes` bytes with a distinct key per entry.
fn many_keys(bytes: usize) -> String {
    let mut out = String::from("{");
    let mut i = 0;
    while out.len() < bytes {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"key{i:06}\": {i}"));
        i += 1;
    }
    out.push('}');
    out
}

/// A `client_state.xml` of about `bytes` bytes: one project per app.
fn client_state(bytes: usize) -> String {
    let doc = |n: usize| ClientStateDoc {
        hardware: Hardware::cpu_only(4, 3e9),
        prefs: Preferences::default(),
        projects: (0..n)
            .map(|i| {
                let app = AppClass::cpu(
                    i as u32,
                    SimDuration::from_secs(3600.0),
                    SimDuration::from_secs(86400.0),
                );
                ProjectSpec::new(i as u32, format!("project{i}"), 100.0).with_app(app)
            })
            .collect(),
        initial_queue: Vec::new(),
        on_frac: 0.9,
        active_frac: 0.8,
        cycle_mean: SimDuration::from_secs(3600.0),
        seed: 1,
    };
    let per_project = doc(2).render().len() - doc(1).render().len();
    doc(bytes / per_project).render()
}

/// Best of three wall times of `f`.
fn best_of_three(mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("three samples")
}

#[test]
fn parse_time_grows_linearly_with_document_size() {
    type Shape = (&'static str, fn(usize) -> String, fn(&str));
    let shapes: [Shape; 3] = [
        ("json long string", long_string, |d| {
            parse_json(d).expect("valid document");
        }),
        ("json many keys", many_keys, |d| {
            parse_json(d).expect("valid document");
        }),
        ("client_state.xml", client_state, |d| {
            ClientStateDoc::parse_str(d).expect("valid document");
        }),
    ];
    for (name, make, parse) in shapes {
        let (small, large) = (make(SMALL), make(LARGE));
        let t_small = best_of_three(|| parse(std::hint::black_box(&small)));
        let t_large = best_of_three(|| parse(std::hint::black_box(&large)));
        let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
        assert!(
            ratio < MAX_RATIO,
            "{name}: {} B took {t_small:?}, {} B took {t_large:?} ({ratio:.1}x for {:.1}x the bytes)",
            small.len(),
            large.len(),
            large.len() as f64 / small.len() as f64,
        );
    }
}
