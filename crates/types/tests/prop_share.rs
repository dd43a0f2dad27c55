//! Property tests for the ideal share allocator (Figure 1 math): whatever
//! the hardware and demand structure, conservation and fairness invariants
//! must hold.

use bce_types::{ideal_allocation, Hardware, ProcType, ProjectId, ShareDemand, UsableTypes};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct AllocCase {
    cpu: (u32, f64),
    nvidia: (u32, f64),
    ati: (u32, f64),
    demands: Vec<(f64, [bool; 3])>,
}

fn case() -> impl Strategy<Value = AllocCase> {
    (
        (1u32..=8, 5e8f64..5e9),
        (0u32..=2, 5e9f64..5e10),
        (0u32..=2, 5e9f64..5e10),
        proptest::collection::vec(
            (0.0f64..500.0, [any::<bool>(), any::<bool>(), any::<bool>()]),
            1..6,
        ),
    )
        .prop_map(|(cpu, nvidia, ati, demands)| AllocCase { cpu, nvidia, ati, demands })
}

fn build(case: &AllocCase) -> (Hardware, Vec<ShareDemand>) {
    let hw = Hardware::cpu_only(case.cpu.0, case.cpu.1)
        .with_group(ProcType::NvidiaGpu, case.nvidia.0, case.nvidia.1)
        .with_group(ProcType::AtiGpu, case.ati.0, case.ati.1);
    let demands = case
        .demands
        .iter()
        .enumerate()
        .map(|(i, (share, usable))| {
            let mut u = UsableTypes::of(&[]);
            // Only mark types the host actually has.
            if usable[0] {
                u.0[ProcType::Cpu] = true;
            }
            if usable[1] && case.nvidia.0 > 0 {
                u.0[ProcType::NvidiaGpu] = true;
            }
            if usable[2] && case.ati.0 > 0 {
                u.0[ProcType::AtiGpu] = true;
            }
            ShareDemand { id: ProjectId(i as u32), share: *share, usable: u }
        })
        .collect();
    (hw, demands)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn conservation_and_feasibility(case in case()) {
        let (hw, demands) = build(&case);
        let alloc = ideal_allocation(&hw, &demands);
        let scale = hw.total_peak_flops().max(1.0);

        let splits: Vec<_> = demands.iter().filter_map(|d| alloc.device_split(d.id)).collect();

        // 1. No device overcommitted.
        for t in ProcType::ALL {
            let used: f64 = splits.iter().map(|m| m[t]).sum();
            prop_assert!(used <= hw.peak_flops(t) + 1e-6 * scale,
                "{t:?}: used {used} > cap {}", hw.peak_flops(t));
        }

        // 2. Total allocated + unusable = total capacity, where unusable
        //    is the capacity of devices no positive-share project can use.
        let total: f64 = demands.iter().map(|d| alloc.total_for(d.id)).sum();
        let unusable: f64 = ProcType::ALL
            .iter()
            .filter(|&&t| !demands.iter().any(|d| d.share > 0.0 && d.usable.0[t]))
            .map(|&t| hw.peak_flops(t))
            .sum();
        prop_assert!((total + unusable - hw.total_peak_flops()).abs() < 1e-6 * scale);

        // 3. Nothing allocated on a type a project can't use, and no
        //    negative allocations. (Zero-share / nothing-usable demands
        //    are filtered from the result entirely.)
        for d in &demands {
            let pid = d.id;
            let Some(m) = alloc.device_split(pid) else {
                prop_assert!(d.share == 0.0 || ProcType::ALL.iter().all(|&t| !d.usable.0[t]),
                    "{} missing from allocation", d.id);
                continue;
            };
            for t in ProcType::ALL {
                prop_assert!(m[t] >= -1e-9 * scale);
                if !d.usable.0[t] {
                    prop_assert!(m[t].abs() < 1e-9 * scale,
                        "{pid} allocated {t:?} it cannot use");
                }
            }
            // 4. A positive-share project with a usable present device
            //    must receive something.
            let host_has_usable = ProcType::ALL
                .iter()
                .any(|&t| d.usable.0[t] && hw.ninstances(t) > 0);
            if d.share > 0.0 && host_has_usable {
                prop_assert!(alloc.total_for(pid) > 0.0, "{} starved despite positive share", d.id);
            }
        }
    }

    #[test]
    fn share_monotonicity(share_a in 1.0f64..100.0, share_b in 1.0f64..100.0) {
        // Two CPU-only projects: totals must order like their shares.
        let hw = Hardware::cpu_only(4, 1e9);
        let demands = [
            ShareDemand { id: ProjectId(0), share: share_a, usable: UsableTypes::only(ProcType::Cpu) },
            ShareDemand { id: ProjectId(1), share: share_b, usable: UsableTypes::only(ProcType::Cpu) },
        ];
        let alloc = ideal_allocation(&hw, &demands);
        let (a, b) = (alloc.total_for(ProjectId(0)), alloc.total_for(ProjectId(1)));
        if share_a > share_b {
            prop_assert!(a >= b - 1e-3);
        } else {
            prop_assert!(b >= a - 1e-3);
        }
        // Exact proportionality on a single device type.
        prop_assert!((a / (a + b) - share_a / (share_a + share_b)).abs() < 1e-9);
    }
}
