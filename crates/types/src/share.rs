//! Ideal resource-share allocation across processor types (Figure 1).
//!
//! §2.1: "Resource share is intended to apply to a host's aggregate
//! processing resources, not to the processor types separately." Given a
//! host and the set of attached projects (with which processor types each
//! can use), this module computes the *ideal* steady-state allocation: each
//! project's FLOPS per device type such that
//!
//! 1. no device is overcommitted and no usable device idles,
//! 2. project totals follow resource shares as closely as feasibility
//!    allows (weighted max-min fairness up to each project's entitlement),
//! 3. leftover capacity beyond entitlements is still handed out
//!    share-proportionally to whoever can use it ("respects resource share
//!    as much as possible while still maximizing throughput", §5.2).
//!
//! The feasibility structure is a polymatroid: for any set of projects `S`,
//! their combined allocation cannot exceed the total capacity of the
//! devices at least one of them can use. With at most three device types
//! there are only 2³ distinct constraints, so exact progressive filling is
//! cheap. A tiny max-flow then produces a concrete per-device split, and
//! the emulator's share-violation metric uses the resulting totals as its
//! reference.

use crate::ids::ProjectId;
use crate::proc::{Hardware, ProcMap, ProcType};

/// Which processor types a project can use (derived from its app classes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsableTypes(pub ProcMap<bool>);

impl UsableTypes {
    pub(crate) fn none() -> Self {
        UsableTypes(ProcMap::from_fn(|_| false))
    }
    pub fn only(t: ProcType) -> Self {
        let mut u = Self::none();
        u.0[t] = true;
        u
    }
    pub fn of(types: &[ProcType]) -> Self {
        let mut u = Self::none();
        for &t in types {
            u.0[t] = true;
        }
        u
    }
    pub(crate) fn contains(&self, t: ProcType) -> bool {
        self.0[t]
    }
    /// Bitmask over `ProcType::ALL`, used to index device-subset tables.
    fn mask(&self) -> usize {
        ProcType::ALL
            .iter()
            .enumerate()
            .filter(|(_, &t)| self.0[t])
            .fold(0, |m, (i, _)| m | (1 << i))
    }
    pub(crate) fn is_empty(&self) -> bool {
        self.mask() == 0
    }
}

/// One project's demand description for the allocator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareDemand {
    pub id: ProjectId,
    pub share: f64,
    pub usable: UsableTypes,
}

/// The allocator's result.
#[derive(Debug, Clone, PartialEq)]
pub struct IdealAllocation {
    /// Per project: FLOPS allocated on each device type.
    pub(crate) per_project: Vec<(ProjectId, ProcMap<f64>)>,
}

impl IdealAllocation {
    pub fn total_for(&self, id: ProjectId) -> f64 {
        self.per_project.iter().find(|(p, _)| *p == id).map_or(0.0, |(_, m)| m.total())
    }

    pub fn device_split(&self, id: ProjectId) -> Option<&ProcMap<f64>> {
        self.per_project.iter().find(|(p, _)| *p == id).map(|(_, m)| m)
    }
}

const EPS: f64 = 1e-9;

/// Compute the ideal allocation. See the module docs for the definition.
///
/// ```
/// use bce_types::{ideal_allocation, Hardware, ProcType, ProjectId, ShareDemand, UsableTypes};
/// // Figure 1 of the paper: 10 GFLOPS CPU + 20 GFLOPS GPU; equal shares;
/// // A has CPU and GPU apps, B only GPU apps.
/// let hw = Hardware::cpu_only(1, 10e9).with_group(ProcType::NvidiaGpu, 1, 20e9);
/// let demands = [
///     ShareDemand { id: ProjectId(0), share: 1.0,
///                   usable: UsableTypes::of(&[ProcType::Cpu, ProcType::NvidiaGpu]) },
///     ShareDemand { id: ProjectId(1), share: 1.0,
///                   usable: UsableTypes::only(ProcType::NvidiaGpu) },
/// ];
/// let alloc = ideal_allocation(&hw, &demands);
/// assert!((alloc.total_for(ProjectId(0)) - 15e9).abs() < 1.0); // 15 GFLOPS each
/// assert!((alloc.total_for(ProjectId(1)) - 15e9).abs() < 1.0);
/// ```
pub fn ideal_allocation(hw: &Hardware, demands: &[ShareDemand]) -> IdealAllocation {
    let caps = ProcMap::from_fn(|t| hw.peak_flops(t));
    let total_cap = caps.total();
    let scale = total_cap.max(1.0);

    // Total capacity of each subset of device types (bitmask-indexed).
    let mut subset_cap = [0.0f64; 8];
    for (mask, slot) in subset_cap.iter_mut().enumerate() {
        for (i, &t) in ProcType::ALL.iter().enumerate() {
            if mask & (1 << i) != 0 {
                *slot += caps[t];
            }
        }
    }

    let share_total: f64 = demands.iter().map(|d| d.share).sum();
    let usable_demands: Vec<&ShareDemand> =
        demands.iter().filter(|d| !d.usable.is_empty() && d.share > 0.0).collect();

    // Phase 1: weighted progressive filling of totals, capped at each
    // project's entitlement (share fraction of total capacity).
    let n = usable_demands.len();
    let mut totals = vec![0.0f64; n];
    let entitlement: Vec<f64> = usable_demands
        .iter()
        .map(|d| if share_total > 0.0 { d.share / share_total * total_cap } else { 0.0 })
        .collect();
    let mut frozen = vec![false; n];
    let mut level = 0.0f64; // common fraction of entitlement reached

    while level < 1.0 && frozen.iter().any(|f| !f) {
        // For every device subset D, the projects confined to D (usable ⊆ D)
        // jointly may not exceed cap(D). Find the level at which the first
        // such constraint binds.
        let mut next_level = 1.0f64;
        let mut binding: Option<usize> = None;
        // `mask` is a device-subset bitmask, not a plain index; iterating
        // `subset_cap` directly would hide that.
        #[allow(clippy::needless_range_loop)]
        for mask in 1..8usize {
            let mut fixed = 0.0;
            let mut growth = 0.0;
            for (i, d) in usable_demands.iter().enumerate() {
                if d.usable.mask() & !mask == 0 {
                    if frozen[i] {
                        fixed += totals[i];
                    } else {
                        growth += entitlement[i];
                    }
                }
            }
            if growth <= EPS * scale {
                continue;
            }
            let lam = (subset_cap[mask] - fixed) / growth;
            // `lam` is the absolute level at which subset `mask` saturates.
            if lam < next_level - 1e-12 {
                next_level = lam;
                binding = Some(mask);
            }
        }
        let new_level = next_level.clamp(level, 1.0);
        for i in 0..n {
            if !frozen[i] {
                totals[i] = new_level * entitlement[i];
            }
        }
        level = new_level;
        match binding {
            Some(mask) if level < 1.0 => {
                for (i, d) in usable_demands.iter().enumerate() {
                    if d.usable.mask() & !mask == 0 {
                        frozen[i] = true;
                    }
                }
            }
            _ => break,
        }
    }

    // Concrete per-device split of the totals via max-flow
    // (projects → devices). Feasible by construction of phase 1.
    let mut alloc: Vec<ProcMap<f64>> = vec![ProcMap::zero(); n];
    let mut dev_used = ProcMap::zero();
    max_flow_split(&usable_demands, &totals, &caps, &mut alloc, &mut dev_used, scale);

    // Phase 2: hand out leftover device capacity share-proportionally to
    // projects that can use it, so no usable device idles. One pass per
    // device suffices because beyond-entitlement allocation is uncapped.
    for t in ProcType::ALL {
        let leftover = caps[t] - dev_used[t];
        if leftover <= EPS * scale {
            continue;
        }
        let users: Vec<usize> = (0..n).filter(|&i| usable_demands[i].usable.contains(t)).collect();
        let wsum: f64 = users.iter().map(|&i| usable_demands[i].share).sum();
        if wsum <= 0.0 {
            continue;
        }
        for &i in &users {
            let give = leftover * usable_demands[i].share / wsum;
            alloc[i][t] += give;
            dev_used[t] += give;
        }
    }

    IdealAllocation {
        per_project: usable_demands.iter().zip(alloc).map(|(d, m)| (d.id, m)).collect(),
    }
}

/// Ford–Fulkerson on the tiny bipartite graph projects → device types, with
/// supplies `totals` and capacities `caps`. Writes the realized flows into
/// `alloc`/`dev_used`.
fn max_flow_split(
    demands: &[&ShareDemand],
    totals: &[f64],
    caps: &ProcMap<f64>,
    alloc: &mut [ProcMap<f64>],
    dev_used: &mut ProcMap<f64>,
    scale: f64,
) {
    let eps = EPS * scale;
    // Process least-flexible projects first; augment along single edges,
    // then fall back to 3-step augmenting paths (project→dev→project→dev).
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order
        .sort_by_key(|&i| ProcType::ALL.iter().filter(|&&t| demands[i].usable.contains(t)).count());

    for &i in &order {
        let mut need = totals[i];
        // Direct edges.
        for t in ProcType::ALL {
            if need <= eps {
                break;
            }
            if demands[i].usable.contains(t) {
                let room = caps[t] - dev_used[t];
                let f = room.min(need).max(0.0);
                alloc[i][t] += f;
                dev_used[t] += f;
                need -= f;
            }
        }
        // Augmenting paths: move some other project j off device t onto a
        // device u with room, freeing t for i.
        while need > eps {
            let mut augmented = false;
            'outer: for t in ProcType::ALL {
                if !demands[i].usable.contains(t) {
                    continue;
                }
                for (j, dj) in demands.iter().enumerate() {
                    if j == i || alloc[j][t] <= eps {
                        continue;
                    }
                    for u in ProcType::ALL {
                        if u == t || !dj.usable.contains(u) {
                            continue;
                        }
                        let room = caps[u] - dev_used[u];
                        if room <= eps {
                            continue;
                        }
                        let f = need.min(alloc[j][t]).min(room);
                        // shift j from t to u, give t capacity to i
                        alloc[j][t] -= f;
                        alloc[j][u] += f;
                        dev_used[u] += f;
                        alloc[i][t] += f;
                        need -= f;
                        augmented = true;
                        if need <= eps {
                            break 'outer;
                        }
                    }
                }
            }
            if !augmented {
                break; // infeasible remainder (shouldn't happen after phase 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity that no attached project was allocated (idles by
    /// necessity).
    fn unusable_flops(hw: &Hardware, a: &IdealAllocation) -> f64 {
        ProcType::ALL
            .iter()
            .map(|&t| {
                let used: f64 = a.per_project.iter().map(|(_, m)| m[t]).sum();
                (hw.peak_flops(t) - used).max(0.0)
            })
            .sum()
    }

    fn fig1_hardware() -> Hardware {
        Hardware::cpu_only(1, 10e9).with_group(ProcType::NvidiaGpu, 1, 20e9)
    }

    #[test]
    fn figure1_example() {
        // Project A has CPU and GPU apps; project B only GPU apps; equal
        // shares. Paper: A gets 100% of CPU + 25% of GPU, B gets 75% of
        // GPU; 15 GFLOPS each.
        let hw = fig1_hardware();
        let demands = [
            ShareDemand {
                id: ProjectId(0),
                share: 1.0,
                usable: UsableTypes::of(&[ProcType::Cpu, ProcType::NvidiaGpu]),
            },
            ShareDemand {
                id: ProjectId(1),
                share: 1.0,
                usable: UsableTypes::only(ProcType::NvidiaGpu),
            },
        ];
        let a = ideal_allocation(&hw, &demands);
        assert!((a.total_for(ProjectId(0)) - 15e9).abs() < 1e-3);
        assert!((a.total_for(ProjectId(1)) - 15e9).abs() < 1e-3);
        let split_a = a.device_split(ProjectId(0)).unwrap();
        let split_b = a.device_split(ProjectId(1)).unwrap();
        assert!((split_a[ProcType::Cpu] - 10e9).abs() < 1e-3);
        assert!((split_a[ProcType::NvidiaGpu] - 5e9).abs() < 1e-3);
        assert!((split_b[ProcType::NvidiaGpu] - 15e9).abs() < 1e-3);
        assert!(unusable_flops(&hw, &a) < 1e-3);
    }

    #[test]
    fn scenario2_reference() {
        // 4 CPUs (1 GF each) + 1 GPU (10 GF). P1 CPU-only, P2 CPU+GPU,
        // equal shares. Entitlement 7 GF each, but P1 can only reach 4 GF
        // (all CPUs); P2 gets the GPU plus leftover nothing => 10.
        let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 10e9);
        let demands = [
            ShareDemand { id: ProjectId(0), share: 1.0, usable: UsableTypes::only(ProcType::Cpu) },
            ShareDemand {
                id: ProjectId(1),
                share: 1.0,
                usable: UsableTypes::of(&[ProcType::Cpu, ProcType::NvidiaGpu]),
            },
        ];
        let a = ideal_allocation(&hw, &demands);
        assert!((a.total_for(ProjectId(0)) - 4e9).abs() < 1e-3);
        assert!((a.total_for(ProjectId(1)) - 10e9).abs() < 1e-3);
        // P1 should own the whole CPU; P2's CPU share should be zero.
        let split2 = a.device_split(ProjectId(1)).unwrap();
        assert!(split2[ProcType::Cpu].abs() < 1e-3);
    }

    #[test]
    fn unequal_shares() {
        let hw = Hardware::cpu_only(2, 5e9);
        let demands = [
            ShareDemand { id: ProjectId(0), share: 3.0, usable: UsableTypes::only(ProcType::Cpu) },
            ShareDemand { id: ProjectId(1), share: 1.0, usable: UsableTypes::only(ProcType::Cpu) },
        ];
        let a = ideal_allocation(&hw, &demands);
        assert!((a.total_for(ProjectId(0)) - 7.5e9).abs() < 1e-3);
        assert!((a.total_for(ProjectId(1)) - 2.5e9).abs() < 1e-3);
    }

    #[test]
    fn no_usable_device_idles_unless_unusable() {
        // GPU present but no project can use it: counted as unusable.
        let hw = Hardware::cpu_only(1, 1e9).with_group(ProcType::AtiGpu, 1, 4e9);
        let demands = [ShareDemand {
            id: ProjectId(0),
            share: 1.0,
            usable: UsableTypes::only(ProcType::Cpu),
        }];
        let a = ideal_allocation(&hw, &demands);
        assert!((a.total_for(ProjectId(0)) - 1e9).abs() < 1e-3);
        assert!((unusable_flops(&hw, &a) - 4e9).abs() < 1e-3);
    }

    #[test]
    fn conservation_and_no_overcommit() {
        let hw = Hardware::cpu_only(4, 2e9).with_group(ProcType::NvidiaGpu, 2, 8e9).with_group(
            ProcType::AtiGpu,
            1,
            6e9,
        );
        let demands = [
            ShareDemand { id: ProjectId(0), share: 5.0, usable: UsableTypes::only(ProcType::Cpu) },
            ShareDemand {
                id: ProjectId(1),
                share: 2.0,
                usable: UsableTypes::of(&[ProcType::Cpu, ProcType::NvidiaGpu]),
            },
            ShareDemand {
                id: ProjectId(2),
                share: 1.0,
                usable: UsableTypes::of(&[ProcType::NvidiaGpu, ProcType::AtiGpu]),
            },
        ];
        let a = ideal_allocation(&hw, &demands);
        // Per-device totals must not exceed capacity; everything usable is
        // allocated.
        for t in ProcType::ALL {
            let used: f64 = a.per_project.iter().map(|(_, m)| m[t]).sum();
            assert!(used <= hw.peak_flops(t) + 1.0);
        }
        let total: f64 = a.per_project.iter().map(|(_, m)| m.total()).sum();
        assert!((total + unusable_flops(&hw, &a) - hw.total_peak_flops()).abs() < 1.0);
    }

    #[test]
    fn zero_share_project_gets_nothing() {
        let hw = Hardware::cpu_only(1, 1e9);
        let demands = [
            ShareDemand { id: ProjectId(0), share: 0.0, usable: UsableTypes::only(ProcType::Cpu) },
            ShareDemand { id: ProjectId(1), share: 1.0, usable: UsableTypes::only(ProcType::Cpu) },
        ];
        let a = ideal_allocation(&hw, &demands);
        assert_eq!(a.total_for(ProjectId(0)), 0.0);
        assert!((a.total_for(ProjectId(1)) - 1e9).abs() < 1e-3);
    }

    #[test]
    fn empty_demands() {
        let hw = Hardware::cpu_only(2, 1e9);
        let a = ideal_allocation(&hw, &[]);
        assert!(a.per_project.is_empty());
        assert!((unusable_flops(&hw, &a) - 2e9).abs() < 1e-3);
    }
}
