//! Processor types and host hardware.
//!
//! BOINC distinguishes *processor types* — CPU, NVIDIA GPU, ATI GPU — and a
//! host owns zero or more *instances* of each type (§2.1 of the paper). Jobs
//! may use several CPUs, a fractional GPU, or combinations.

use std::fmt;
use std::ops::{Index, IndexMut};

/// One of BOINC's processor types. The set is closed (as of the paper:
/// CPU, NVIDIA, ATI), which lets us key per-type state with a fixed-size
/// array ([`ProcMap`]) instead of hash maps on hot paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcType {
    Cpu,
    NvidiaGpu,
    AtiGpu,
}

impl ProcType {
    pub const COUNT: usize = 3;
    pub const ALL: [ProcType; 3] = [ProcType::Cpu, ProcType::NvidiaGpu, ProcType::AtiGpu];

    #[inline]
    pub fn index(self) -> usize {
        match self {
            ProcType::Cpu => 0,
            ProcType::NvidiaGpu => 1,
            ProcType::AtiGpu => 2,
        }
    }

    #[inline]
    pub fn is_gpu(self) -> bool {
        !matches!(self, ProcType::Cpu)
    }

    pub fn short_name(self) -> &'static str {
        match self {
            ProcType::Cpu => "CPU",
            ProcType::NvidiaGpu => "NV",
            ProcType::AtiGpu => "ATI",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ProcType::Cpu => "CPU",
            ProcType::NvidiaGpu => "NVIDIA GPU",
            ProcType::AtiGpu => "ATI GPU",
        }
    }
}

impl fmt::Display for ProcType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fixed-size map keyed by [`ProcType`]. Dense, copyable when `T: Copy`,
/// and free of hashing — per-type bookkeeping appears in every inner loop of
/// the round-robin simulator and the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcMap<T>(pub [T; ProcType::COUNT]);

impl<T> ProcMap<T> {
    pub fn from_fn(mut f: impl FnMut(ProcType) -> T) -> Self {
        ProcMap([f(ProcType::Cpu), f(ProcType::NvidiaGpu), f(ProcType::AtiGpu)])
    }

    pub fn iter(&self) -> impl Iterator<Item = (ProcType, &T)> {
        ProcType::ALL.iter().map(move |&t| (t, &self.0[t.index()]))
    }
}

impl ProcMap<f64> {
    pub fn zero() -> Self {
        ProcMap([0.0; ProcType::COUNT])
    }
    pub(crate) fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

impl<T> Index<ProcType> for ProcMap<T> {
    type Output = T;
    #[inline]
    fn index(&self, t: ProcType) -> &T {
        &self.0[t.index()]
    }
}

impl<T> IndexMut<ProcType> for ProcMap<T> {
    #[inline]
    fn index_mut(&mut self, t: ProcType) -> &mut T {
        &mut self.0[t.index()]
    }
}

/// The instances of a single processor type on a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ProcGroup {
    /// Number of instances (CPU cores or GPU boards).
    pub(crate) count: u32,
    /// Peak FLOPS of one instance.
    pub(crate) flops_per_inst: f64,
}

impl ProcGroup {
    pub(crate) fn peak_flops(&self) -> f64 {
        self.count as f64 * self.flops_per_inst
    }
}

/// The host's measured hardware characteristics (§2.2): processing
/// resources plus memory sizes. FLOPS figures are *peak* speeds, the unit
/// the paper's figures of merit are expressed in.
#[derive(Debug, Clone, PartialEq)]
pub struct Hardware {
    groups: ProcMap<Option<ProcGroup>>,
    /// Main memory, bytes.
    pub mem_bytes: f64,
    /// Video memory, bytes (shared across GPU types for simplicity).
    pub vram_bytes: f64,
}

impl Hardware {
    /// A host with only CPUs.
    pub fn cpu_only(ncpus: u32, flops_per_cpu: f64) -> Self {
        let mut groups = ProcMap::from_fn(|_| None);
        groups[ProcType::Cpu] = Some(ProcGroup { count: ncpus, flops_per_inst: flops_per_cpu });
        Hardware { groups, mem_bytes: 8e9, vram_bytes: 0.0 }
    }

    /// Add (or replace) a processor group.
    pub fn with_group(mut self, t: ProcType, count: u32, flops_per_inst: f64) -> Self {
        self.groups[t] = if count == 0 { None } else { Some(ProcGroup { count, flops_per_inst }) };
        self
    }

    pub fn with_mem(mut self, mem_bytes: f64) -> Self {
        self.mem_bytes = mem_bytes;
        self
    }

    pub fn with_vram(mut self, vram_bytes: f64) -> Self {
        self.vram_bytes = vram_bytes;
        self
    }

    /// Number of instances of `t` (zero if the host lacks that type).
    pub fn ninstances(&self, t: ProcType) -> u32 {
        self.groups[t].map_or(0, |g| g.count)
    }

    /// Peak FLOPS of a single instance of `t` (zero if absent).
    pub fn flops_per_inst(&self, t: ProcType) -> f64 {
        self.groups[t].map_or(0.0, |g| g.flops_per_inst)
    }

    /// Aggregate peak FLOPS of all instances of `t`.
    pub fn peak_flops(&self, t: ProcType) -> f64 {
        self.groups[t].map_or(0.0, |g| g.peak_flops())
    }

    /// Aggregate peak FLOPS of the whole host — the denominator of the
    /// paper's idle/wasted fractions.
    pub fn total_peak_flops(&self) -> f64 {
        ProcType::ALL.iter().map(|&t| self.peak_flops(t)).sum()
    }

    /// Processor types present on this host.
    pub fn present_types(&self) -> impl Iterator<Item = ProcType> + '_ {
        ProcType::ALL.into_iter().filter(|&t| self.ninstances(t) > 0)
    }

    pub fn has_gpu(&self) -> bool {
        self.present_types().any(|t| t.is_gpu())
    }
}

impl Default for Hardware {
    /// A plain modern desktop: 4 CPUs at 3 GFLOPS, 8 GB RAM.
    fn default() -> Self {
        Hardware::cpu_only(4, 3e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_type_round_trip() {
        // `index` is the type's position in `ALL`, the order every
        // `ProcMap` is laid out in.
        for (i, t) in ProcType::ALL.into_iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn gpu_classification() {
        assert!(!ProcType::Cpu.is_gpu());
        assert!(ProcType::NvidiaGpu.is_gpu());
        assert!(ProcType::AtiGpu.is_gpu());
    }

    #[test]
    fn procmap_indexing() {
        let mut m = ProcMap::zero();
        m[ProcType::NvidiaGpu] = 2.5;
        assert_eq!(m[ProcType::NvidiaGpu], 2.5);
        assert_eq!(m[ProcType::Cpu], 0.0);
        assert_eq!(m.total(), 2.5);
    }

    #[test]
    fn procmap_from_fn_and_map() {
        let m = ProcMap::from_fn(|t| t.index() as f64);
        assert_eq!(m[ProcType::AtiGpu], 2.0);
    }

    #[test]
    fn hardware_scenario2_shape() {
        // Scenario 2 of the paper: 4 CPUs and 1 GPU 10x faster than a CPU.
        let hw = Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10);
        assert_eq!(hw.ninstances(ProcType::Cpu), 4);
        assert_eq!(hw.ninstances(ProcType::NvidiaGpu), 1);
        assert_eq!(hw.total_peak_flops(), 4e9 + 1e10);
        assert!(hw.has_gpu());
        assert_eq!(hw.present_types().count(), 2);
    }

    #[test]
    fn zero_count_group_is_absent() {
        let hw = Hardware::default().with_group(ProcType::AtiGpu, 0, 1e9);
        assert_eq!(hw.ninstances(ProcType::AtiGpu), 0);
        assert_eq!(hw.ninstances(ProcType::AtiGpu), 0);
    }

    #[test]
    fn fig1_hardware() {
        // Figure 1: 10 GFLOPS CPU and 20 GFLOPS GPU.
        let hw = Hardware::cpu_only(1, 10e9).with_group(ProcType::NvidiaGpu, 1, 20e9);
        assert_eq!(hw.total_peak_flops(), 30e9);
    }
}
