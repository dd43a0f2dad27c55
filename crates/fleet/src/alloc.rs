//! Deficit-proportional water-filling over an arbitrary device list.
//!
//! The cross-host strategy needs a fair allocation where the "devices" are
//! every (host, processor-type) pair in the volunteer's fleet — too many
//! for the exact 3-device polymatroid solver in `bce-types::share`. This
//! iterative scheme converges to (approximate) weighted max-min fairness:
//! each round, every device splits its remaining capacity among the
//! projects that can use it in proportion to their remaining *deficit*
//! (share-entitled FLOPS not yet covered); leftovers beyond everyone's
//! entitlement are handed out share-proportionally so no usable device
//! idles.

/// One capacity pool (a (host, type) pair in fleet use).
#[derive(Debug, Clone)]
pub struct Device {
    pub capacity: f64,
    /// Which consumers can draw from this device.
    pub usable_by: Vec<usize>,
}

/// A consumer (a project) with a relative share weight.
#[derive(Debug, Clone, Copy)]
pub struct Consumer {
    pub share: f64,
}

/// Result: `alloc[consumer][device]`; capacity nobody can use stays
/// unallocated.
#[derive(Debug, Clone)]
pub struct FairAlloc {
    pub(crate) alloc: Vec<Vec<f64>>,
}

impl FairAlloc {
    pub fn total_for(&self, consumer: usize) -> f64 {
        self.alloc[consumer].iter().sum()
    }
}

/// Compute the allocation. `rounds` bounds the water-filling iterations
/// (16 is plenty: the deficit shrinks geometrically).
///
/// ```
/// use bce_fleet::{fair_alloc, Consumer, Device};
/// // One device both consumers share, 3:1 weights.
/// let devices = [Device { capacity: 100.0, usable_by: vec![0, 1] }];
/// let consumers = [Consumer { share: 3.0 }, Consumer { share: 1.0 }];
/// let a = fair_alloc(&devices, &consumers, 16);
/// assert!((a.total_for(0) - 75.0).abs() < 1e-6);
/// assert!((a.total_for(1) - 25.0).abs() < 1e-6);
/// ```
pub fn fair_alloc(devices: &[Device], consumers: &[Consumer], rounds: usize) -> FairAlloc {
    let nd = devices.len();
    let nc = consumers.len();
    let mut alloc = vec![vec![0.0f64; nd]; nc];
    let mut remaining: Vec<f64> = devices.iter().map(|d| d.capacity).collect();

    let share_sum: f64 = consumers.iter().map(|c| c.share.max(0.0)).sum();
    let total_cap: f64 = devices.iter().map(|d| d.capacity).sum();
    let targets: Vec<f64> = consumers
        .iter()
        .map(|c| if share_sum > 0.0 { c.share.max(0.0) / share_sum * total_cap } else { 0.0 })
        .collect();

    // Phase 1: deficit-proportional filling toward the entitlement
    // targets. Devices are processed most-constrained first (fewest
    // usable consumers) and deficits update after *every* device, so a
    // consumer already satisfied by a dedicated device does not also
    // claim shared capacity that others need.
    let mut deficits: Vec<f64> = targets.clone();
    let mut order: Vec<usize> = (0..nd).collect();
    order.sort_by_key(|&d| devices[d].usable_by.len());
    for _ in 0..rounds {
        let mut moved = 0.0;
        for &d in &order {
            let dev = &devices[d];
            if remaining[d] <= 1e-9 {
                continue;
            }
            let dsum: f64 = dev.usable_by.iter().map(|&c| deficits[c]).sum();
            if dsum <= 1e-9 {
                continue;
            }
            // Cap each grant at the consumer's deficit; surplus stays on
            // the device for the next round.
            let mut given_total = 0.0;
            for &c in &dev.usable_by {
                let give = (remaining[d] * deficits[c] / dsum).min(deficits[c]);
                alloc[c][d] += give;
                deficits[c] -= give;
                given_total += give;
            }
            remaining[d] -= given_total;
            moved += given_total;
        }
        if moved <= 1e-9 * total_cap.max(1.0) {
            break;
        }
    }

    // Phase 2: leftovers beyond entitlements, share-proportional, so
    // usable capacity never idles.
    for (d, dev) in devices.iter().enumerate() {
        if remaining[d] <= 1e-9 {
            continue;
        }
        let wsum: f64 = dev.usable_by.iter().map(|&c| consumers[c].share.max(0.0)).sum();
        if wsum <= 0.0 {
            continue;
        }
        let cap = remaining[d];
        for &c in &dev.usable_by {
            alloc[c][d] += cap * consumers[c].share.max(0.0) / wsum;
        }
    }

    FairAlloc { alloc }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_device_splits_by_share() {
        let devices = [Device { capacity: 100.0, usable_by: vec![0, 1] }];
        let consumers = [Consumer { share: 3.0 }, Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 16);
        assert!((a.total_for(0) - 75.0).abs() < 1e-6);
        assert!((a.total_for(1) - 25.0).abs() < 1e-6);
        assert!((a.total_for(0) + a.total_for(1) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn figure1_shape_generalizes() {
        // CPU(10) usable by A; GPU(20) usable by A and B; equal shares.
        let devices = [
            Device { capacity: 10.0, usable_by: vec![0] },
            Device { capacity: 20.0, usable_by: vec![0, 1] },
        ];
        let consumers = [Consumer { share: 1.0 }, Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 32);
        assert!((a.total_for(0) - 15.0).abs() < 0.1, "A got {}", a.total_for(0));
        assert!((a.total_for(1) - 15.0).abs() < 0.1, "B got {}", a.total_for(1));
    }

    #[test]
    fn constrained_consumer_capped_leftover_flows() {
        // Consumer 0 can only use a small device; its unmet entitlement
        // flows to consumer 1 on the big device.
        let devices = [
            Device { capacity: 10.0, usable_by: vec![0] },
            Device { capacity: 90.0, usable_by: vec![1] },
        ];
        let consumers = [Consumer { share: 1.0 }, Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 16);
        assert!((a.total_for(0) - 10.0).abs() < 1e-6);
        assert!((a.total_for(1) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn unusable_capacity_reported() {
        let devices = [
            Device { capacity: 50.0, usable_by: vec![0] },
            Device { capacity: 30.0, usable_by: vec![] },
        ];
        let consumers = [Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 16);
        assert!((a.total_for(0) - 50.0).abs() < 1e-6);
        assert_eq!(a.alloc[0][1], 0.0);
    }

    #[test]
    fn conservation() {
        let devices = [
            Device { capacity: 13.0, usable_by: vec![0, 2] },
            Device { capacity: 7.0, usable_by: vec![1] },
            Device { capacity: 25.0, usable_by: vec![0, 1, 2] },
        ];
        let consumers = [Consumer { share: 2.0 }, Consumer { share: 5.0 }, Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 16);
        let total: f64 = (0..3).map(|c| a.total_for(c)).sum();
        assert!((total - 45.0).abs() < 1e-6);
        for (d, dev) in devices.iter().enumerate() {
            assert!(a.alloc.iter().map(|row| row[d]).sum::<f64>() <= dev.capacity + 1e-9);
        }
    }

    #[test]
    fn zero_share_consumer_starves() {
        let devices = [Device { capacity: 10.0, usable_by: vec![0, 1] }];
        let consumers = [Consumer { share: 0.0 }, Consumer { share: 1.0 }];
        let a = fair_alloc(&devices, &consumers, 16);
        assert!(a.total_for(0) < 1e-9);
        assert!((a.total_for(1) - 10.0).abs() < 1e-6);
    }
}
