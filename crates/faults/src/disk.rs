//! Deterministic disk-fault streams for the durable checkpoint store.
//!
//! Volunteer hosts lose checkpoints to every storage failure mode there
//! is: interrupted writes, full disks, flaky media, renames torn by a
//! power cut before the metadata journal commits. The checkpoint store
//! (`bce-statefile`) is built to survive all of them; this module
//! supplies the *seeded* fault schedule its chaos tests and the
//! `bce chaos` CLI run under, following the same discipline as the
//! emulation-level fault processes in the `plan` module:
//!
//! * **Determinism** — every decision draws from one named RNG stream
//!   (`fault-disk`) derived from a chaos seed, so a failing schedule is
//!   replayable bit-for-bit from its seed alone.
//! * **Zero-fault identity** — with [`DiskFaultConfig::OFF`] no stream
//!   is created or sampled; the fault-injecting I/O backend behaves
//!   exactly like the real one.

use bce_sim::Rng;

/// Probabilities for each injected disk-fault class, drawn independently
/// per I/O operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultConfig {
    /// A write fails with `EIO` after a uniformly random prefix of the
    /// bytes has reached the file.
    pub write_eio_prob: f64,
    /// A write fails with `ENOSPC` (disk full) after a random prefix.
    pub write_enospc_prob: f64,
    /// Power-cut truncation: the write *reports success* but only a
    /// random prefix survives — the firmware acknowledged data it never
    /// persisted. Corruption detection, not error handling, must catch
    /// this one.
    pub power_cut_prob: f64,
    /// Torn rename: the rename *reports success* but the destination is
    /// left holding a truncated prefix of the source — a non-atomic
    /// metadata journal replayed halfway.
    pub torn_rename_prob: f64,
    /// A read fails with `EIO` (flaky media; transient).
    pub read_eio_prob: f64,
}

impl DiskFaultConfig {
    /// Everything disabled: the fault-injecting backend is inert.
    pub(crate) const OFF: DiskFaultConfig = DiskFaultConfig {
        write_eio_prob: 0.0,
        write_enospc_prob: 0.0,
        power_cut_prob: 0.0,
        torn_rename_prob: 0.0,
        read_eio_prob: 0.0,
    };

    pub(crate) fn enabled(&self) -> bool {
        self.write_eio_prob > 0.0
            || self.write_enospc_prob > 0.0
            || self.power_cut_prob > 0.0
            || self.torn_rename_prob > 0.0
            || self.read_eio_prob > 0.0
    }

    fn validate(&self) {
        for (name, p) in [
            ("write_eio_prob", self.write_eio_prob),
            ("write_enospc_prob", self.write_enospc_prob),
            ("power_cut_prob", self.power_cut_prob),
            ("torn_rename_prob", self.torn_rename_prob),
            ("read_eio_prob", self.read_eio_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0, 1], got {p}");
        }
    }
}

impl Default for DiskFaultConfig {
    fn default() -> Self {
        DiskFaultConfig::OFF
    }
}

/// Outcome of one planned write attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The write completes normally.
    Ok,
    /// Fail with `EIO` after `surviving` bytes reached the file.
    Eio { surviving: usize },
    /// Fail with `ENOSPC` after `surviving` bytes reached the file.
    Enospc { surviving: usize },
    /// Report success, but only `surviving` bytes actually persist.
    PowerCut { surviving: usize },
}

/// Outcome of one planned rename attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameFault {
    /// The rename is atomic, as promised.
    Ok,
    /// Report success, but the destination holds only `surviving` bytes
    /// of the source.
    Torn { surviving: usize },
}

/// Outcome of one planned read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    Ok,
    Eio,
}

/// Count of faults actually injected, by class — the chaos harness
/// reports these so "survived N injected faults" is a checkable claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskFaultStats {
    pub(crate) write_eio: u64,
    pub(crate) write_enospc: u64,
    pub(crate) power_cuts: u64,
    pub(crate) torn_renames: u64,
    pub(crate) read_eio: u64,
}

impl std::fmt::Display for DiskFaultStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "write-eio {} enospc {} power-cuts {} torn-renames {} read-eio {}",
            self.write_eio, self.write_enospc, self.power_cuts, self.torn_renames, self.read_eio
        )
    }
}

/// A seeded schedule of disk faults: one decision per I/O operation, in
/// operation order, drawn from the `fault-disk` stream.
#[derive(Debug, Clone)]
pub struct DiskFaultPlan {
    cfg: DiskFaultConfig,
    rng: Rng,
    stats: DiskFaultStats,
}

impl DiskFaultPlan {
    pub fn new(seed: u64, cfg: DiskFaultConfig) -> Self {
        cfg.validate();
        DiskFaultPlan {
            cfg,
            rng: Rng::stream(seed, "fault-disk"),
            stats: DiskFaultStats::default(),
        }
    }

    /// Plan one write of `len` bytes. Fault classes are tried in a fixed
    /// order (EIO, ENOSPC, power cut) so a given seed yields a stable
    /// schedule.
    pub fn plan_write(&mut self, len: usize) -> WriteFault {
        if !self.cfg.enabled() {
            return WriteFault::Ok;
        }
        if self.cfg.write_eio_prob > 0.0 && self.rng.chance(self.cfg.write_eio_prob) {
            self.stats.write_eio += 1;
            return WriteFault::Eio { surviving: self.cut_point(len) };
        }
        if self.cfg.write_enospc_prob > 0.0 && self.rng.chance(self.cfg.write_enospc_prob) {
            self.stats.write_enospc += 1;
            return WriteFault::Enospc { surviving: self.cut_point(len) };
        }
        if self.cfg.power_cut_prob > 0.0 && self.rng.chance(self.cfg.power_cut_prob) {
            self.stats.power_cuts += 1;
            return WriteFault::PowerCut { surviving: self.cut_point(len) };
        }
        WriteFault::Ok
    }

    /// Plan one rename of a file holding `len` bytes.
    pub fn plan_rename(&mut self, len: usize) -> RenameFault {
        if self.cfg.torn_rename_prob > 0.0 && self.rng.chance(self.cfg.torn_rename_prob) {
            self.stats.torn_renames += 1;
            return RenameFault::Torn { surviving: self.cut_point(len) };
        }
        RenameFault::Ok
    }

    /// Plan one read.
    pub fn plan_read(&mut self) -> ReadFault {
        if self.cfg.read_eio_prob > 0.0 && self.rng.chance(self.cfg.read_eio_prob) {
            self.stats.read_eio += 1;
            return ReadFault::Eio;
        }
        ReadFault::Ok
    }

    /// How many bytes survive a cut: uniform over `0..len` (strictly
    /// short — a cut that preserves everything would be no fault).
    fn cut_point(&mut self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        ((self.rng.uniform() * len as f64) as usize).min(len - 1)
    }

    /// Faults injected so far.
    pub fn stats(&self) -> DiskFaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_is_inert_and_never_draws() {
        let mut plan = DiskFaultPlan::new(1, DiskFaultConfig::OFF);
        let mut before = plan.rng.clone();
        for _ in 0..100 {
            assert_eq!(plan.plan_write(100), WriteFault::Ok);
            assert_eq!(plan.plan_rename(100), RenameFault::Ok);
            assert_eq!(plan.plan_read(), ReadFault::Ok);
        }
        assert_eq!(plan.rng.next_u64(), before.next_u64(), "OFF plan must not advance its stream");
        assert_eq!(plan.stats(), DiskFaultStats::default());
    }

    #[test]
    fn schedules_are_seed_deterministic() {
        let cfg = DiskFaultConfig {
            write_eio_prob: 0.2,
            write_enospc_prob: 0.2,
            power_cut_prob: 0.1,
            torn_rename_prob: 0.3,
            read_eio_prob: 0.1,
        };
        let drive = |seed| {
            let mut plan = DiskFaultPlan::new(seed, cfg);
            let mut seq = Vec::new();
            for i in 0..200 {
                seq.push((plan.plan_write(1000 + i), plan.plan_rename(500), plan.plan_read()));
            }
            (seq, plan.stats())
        };
        assert_eq!(drive(7), drive(7));
        assert_ne!(drive(7).0, drive(8).0, "different seeds must differ somewhere");
        let (_, stats) = drive(7);
        assert!(stats.write_eio > 0 && stats.torn_renames > 0, "{stats}");
    }

    #[test]
    fn cut_points_are_strictly_short() {
        let cfg = DiskFaultConfig { power_cut_prob: 1.0, ..DiskFaultConfig::OFF };
        let mut plan = DiskFaultPlan::new(3, cfg);
        for _ in 0..200 {
            match plan.plan_write(64) {
                WriteFault::PowerCut { surviving } => assert!(surviving < 64),
                other => panic!("expected a power cut, got {other:?}"),
            }
        }
        assert_eq!(plan.plan_write(0), WriteFault::PowerCut { surviving: 0 });
    }

    #[test]
    #[should_panic(expected = "write_eio_prob")]
    fn bad_probability_is_rejected() {
        DiskFaultPlan::new(1, DiskFaultConfig { write_eio_prob: 1.5, ..DiskFaultConfig::OFF });
    }
}
