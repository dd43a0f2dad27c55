//! Property tests for the simulation substrate.

use bce_sim::{Distribution, EventQueue, Exponential, Normal, Rng, TruncatedNormal};
use bce_types::SimTime;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// The event queue pops in (time, insertion) order — equivalent to a
    /// stable sort by time.
    #[test]
    fn queue_matches_stable_sort(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut expected: Vec<(f64, usize)> =
            times.iter().copied().enumerate().map(|(i, t)| (t, i)).collect();
        expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.secs(), i));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Distribution outputs respect their support.
    #[test]
    fn distribution_supports(seed in any::<u64>(), mean in 1.0f64..1e4) {
        let mut rng = Rng::from_seed(seed);
        let exp = Exponential::new(mean);
        for _ in 0..100 {
            prop_assert!(exp.sample(&mut rng) >= 0.0);
        }
        let tn = TruncatedNormal::positive(mean, mean * 0.5);
        for _ in 0..100 {
            prop_assert!(tn.sample(&mut rng) > 0.0);
        }
    }

    /// Named streams are reproducible and distinct.
    #[test]
    fn rng_streams(seed in any::<u64>()) {
        let mut a1 = Rng::stream(seed, "alpha");
        let mut a2 = Rng::stream(seed, "alpha");
        let mut b = Rng::stream(seed, "beta");
        let xs: Vec<u64> = (0..32).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| a2.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&xs, &ys);
        prop_assert_ne!(&xs, &zs);
    }

    /// pick_weighted never selects a zero-weight entry and always returns
    /// a valid index.
    #[test]
    fn weighted_pick_validity(
        seed in any::<u64>(),
        weights in proptest::collection::vec(0.0f64..10.0, 1..10),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = Rng::from_seed(seed);
        for _ in 0..50 {
            let i = rng.pick_weighted(weights.iter().copied());
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {i}");
        }
    }

    /// Normal sampling is symmetric-ish around its mean (loose bound).
    #[test]
    fn normal_centering(seed in any::<u64>(), mean in -100.0f64..100.0, sd in 0.1f64..10.0) {
        let mut rng = Rng::from_seed(seed);
        let n = 2000;
        let avg: f64 =
            (0..n).map(|_| mean + sd * Normal::std_sample(&mut rng)).sum::<f64>() / n as f64;
        prop_assert!((avg - mean).abs() < 5.0 * sd / (n as f64).sqrt() + 1e-9,
            "avg {avg} vs mean {mean}");
    }
}
