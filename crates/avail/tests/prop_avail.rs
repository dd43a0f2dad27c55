//! Property tests for availability modelling.

use bce_avail::{AvailSpec, Governor, OnOffSpec};
use bce_sim::Rng;
use bce_types::{Preferences, SimDuration, SimTime};
use proptest::prelude::*;

/// A governor whose host power follows `host`; the user is never active
/// and the network always up, so `can_compute` is exactly the host state.
fn host_governor(host: OnOffSpec, seed: u64) -> Governor {
    AvailSpec { host, ..AvailSpec::always_on() }.instantiate(&mut Rng::from_seed(seed))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// On/off processes alternate strictly and times are monotone.
    #[test]
    fn process_alternates(seed in any::<u64>(), up in 1.0f64..1e4, down in 1.0f64..1e4) {
        let spec = OnOffSpec::Exponential {
            up_mean: SimDuration::from_secs(up),
            down_mean: SimDuration::from_secs(down),
            start_on: true,
        };
        let prefs = Preferences::default();
        let mut g = host_governor(spec, seed);
        let mut prev_t = SimTime::ZERO;
        let mut prev_state = g.run_state(prev_t, &prefs).can_compute;
        for _ in 0..50 {
            let t = g.next_change_after(prev_t, &prefs);
            prop_assert!(t > prev_t);
            g.advance(t);
            let state = g.run_state(t, &prefs).can_compute;
            prop_assert_ne!(state, prev_state);
            prev_t = t;
            prev_state = state;
        }
    }

    /// Long-run on-fraction approaches the duty cycle.
    #[test]
    fn duty_cycle_converges(seed in any::<u64>(), frac in 0.1f64..0.9) {
        let spec = OnOffSpec::duty_cycle(frac, SimDuration::from_secs(1000.0));
        let prefs = Preferences::default();
        let mut g = host_governor(spec, seed);
        let horizon = 2e6;
        let mut on = 0.0;
        let mut now = SimTime::ZERO;
        while now.secs() < horizon {
            let next = g.next_change_after(now, &prefs).min(SimTime::from_secs(horizon));
            if g.run_state(now, &prefs).can_compute {
                on += (next - now).secs();
            }
            now = next;
            g.advance(now);
        }
        let measured = on / horizon;
        // 2000 expected cycles: generous tolerance.
        prop_assert!((measured - frac).abs() < 0.08, "measured {measured} vs {frac}");
    }
}
