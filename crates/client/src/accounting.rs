//! Resource-share accounting (§3.1).
//!
//! The client must decide whether each project has used too much or too
//! little resource relative to its share. Two approaches, compared in §5.2
//! and §5.4:
//!
//! * **Local accounting** (JS-LOCAL): per (project, processor type) *debts*
//!   `D(P,T)`, incremented in proportion to the project's share and
//!   decremented as it uses instances of that type.
//!   `PRIO_sched(P,T) = D(P,T)`; `PRIO_fetch(P)` is the peak-FLOPS-weighted
//!   sum of the per-type debts.
//! * **Global accounting** (JS-GLOBAL): `REC(P)`, an exponentially-weighted
//!   recent average of the peak FLOPS used by the project *across all
//!   processor types*; priority compares share fraction against REC
//!   fraction. The averaging half-life `A` is the parameter swept in §5.4
//!   (Figure 6).

use bce_types::{Hardware, ProcMap, ProcType, ProjectId, SimDuration, SimTime};

/// Which accounting scheme is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountingKind {
    Local,
    Global,
}

/// Debt magnitude clamp (seconds of instance time), mirroring the BOINC
/// client's debt limits so one starved project cannot build unbounded
/// claim on the host.
const MAX_DEBT: f64 = 86_400.0;

/// A set of project slots (see [`Accounting`]) that remembers insertion
/// order and answers membership in O(1).
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotSet {
    order: Vec<usize>,
    member: Vec<bool>,
}

impl SlotSet {
    fn reset(&mut self, nslots: usize) {
        self.order.clear();
        self.member.clear();
        self.member.resize(nslots, false);
    }

    fn clear(&mut self) {
        for &s in &self.order {
            self.member[s] = false;
        }
        self.order.clear();
    }

    /// Add `slot` unless present; the first insertion fixes its position.
    fn insert(&mut self, slot: usize) -> bool {
        let fresh = !self.member[slot];
        if fresh {
            self.member[slot] = true;
            self.order.push(slot);
        }
        fresh
    }

    fn contains(&self, slot: usize) -> bool {
        self.member[slot]
    }

    /// Members in first-insertion order.
    fn slots(&self) -> &[usize] {
        &self.order
    }
}

/// Per-interval usage report fed to [`Accounting::update`], keyed by
/// project slot.
///
/// A pure function of the running and runnable task sets and the task
/// order, so the client refills it only when its running-set generation
/// moved, clearing the containers without reallocating. Membership lists
/// keep first-appearance order: it fixes the summation order of the debt
/// update.
#[derive(Debug, Clone, Default)]
pub(crate) struct UsageSample {
    /// Instances of each type in use by each slot over the interval;
    /// meaningful only for slots in `running`.
    used: Vec<ProcMap<f64>>,
    /// Slots with anything running.
    running: SlotSet,
    /// Projects with runnable/queued work of each type. Short-term
    /// (scheduling) debt accrues only while a project can actually use the
    /// resource; §2.1 leaves this unspecified and we follow the BOINC
    /// client.
    runnable: ProcMap<SlotSet>,
}

impl UsageSample {
    /// Size the sample for an accounting with `nslots` slots and empty it.
    pub(crate) fn reset(&mut self, nslots: usize) {
        self.used.clear();
        self.used.resize(nslots, ProcMap::zero());
        self.running.reset(nslots);
        for t in ProcType::ALL {
            self.runnable[t].reset(nslots);
        }
    }

    /// Empty the sample, keeping its size and allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.running.clear();
        for t in ProcType::ALL {
            self.runnable[t].clear();
        }
    }

    /// Instances in use by `slot`, if anything runs there.
    fn used_of(&self, slot: usize) -> Option<&ProcMap<f64>> {
        self.running.contains(slot).then(|| &self.used[slot])
    }

    /// The (created-on-demand) usage entry for `slot`.
    pub(crate) fn used_entry(&mut self, slot: usize) -> &mut ProcMap<f64> {
        if self.running.insert(slot) {
            self.used[slot] = ProcMap::zero();
        }
        &mut self.used[slot]
    }

    pub(crate) fn mark_runnable(&mut self, t: ProcType, slot: usize) {
        self.runnable[t].insert(slot);
    }

    /// Would [`Accounting::update`] read the same thing from both samples:
    /// the same membership orders and bit-equal usage of every running
    /// slot?
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn same_as(&self, other: &UsageSample) -> bool {
        let bits = |m: &ProcMap<f64>| ProcType::ALL.map(|t| m[t].to_bits());
        self.running.slots() == other.running.slots()
            && self.running.slots().iter().all(|&s| bits(&self.used[s]) == bits(&other.used[s]))
            && ProcType::ALL.iter().all(|&t| self.runnable[t].slots() == other.runnable[t].slots())
    }
}

/// Complete mutable accounting state, in ascending project-id order, for
/// setting arbitrary debts from tests and benches
/// ([`Accounting::restore_snapshot`]). Shares, kind and half-life are
/// scenario constants and are not part of it.
#[derive(Debug, Clone, Default)]
pub struct AccountingSnapshot {
    pub debts: Vec<(ProjectId, ProcMap<f64>)>,
    pub lt_debts: Vec<(ProjectId, ProcMap<f64>)>,
    pub rec: Vec<(ProjectId, f64)>,
    pub rec_updated: SimTime,
}

/// Resource-share accounting state.
///
/// Every per-project table is indexed by *slot*: a project's position in
/// the ascending list of project ids, resolved once. Slot order is id
/// order on purpose: it fixes the summation order of the REC total and
/// the order of the snapshot.
#[derive(Debug, Clone)]
pub struct Accounting {
    kind: AccountingKind,
    /// Project ids, ascending and distinct; the index is the slot.
    ids: Vec<ProjectId>,
    /// Resource share per slot.
    share: Vec<f64>,
    /// Total resource share, summed in construction order.
    share_total: f64,
    /// Local: per-project, per-type short-term debt in instance-seconds
    /// (drives job scheduling).
    debts: Vec<ProcMap<f64>>,
    /// Local: per-project, per-type long-term debt (drives work fetch).
    lt_debts: Vec<ProcMap<f64>>,
    /// Projects that *supply* jobs of each type this host has, whether or
    /// not any are queued right now, in project listing order. Long-term
    /// (fetch) debt accrues over these, so a project the client never
    /// asked for work still builds its claim — without this, whichever
    /// project wins the first tie monopolizes fetch forever. Fixed by
    /// [`Accounting::set_fetchable`].
    fetchable: ProcMap<SlotSet>,
    /// `share[s] / share_sum * ninst` of each member of `fetchable[t]`, in
    /// member order; empty when type `t` accrues no long-term debt.
    lt_entitled: ProcMap<Vec<f64>>,
    /// Global: REC value and its last-update instant (decay is applied
    /// lazily).
    rec: Vec<f64>,
    /// `rec` summed in slot order; refreshed whenever `rec` changes.
    rec_total: f64,
    rec_updated: SimTime,
    half_life: SimDuration,
}

impl Accounting {
    pub fn new(
        kind: AccountingKind,
        shares: impl IntoIterator<Item = (ProjectId, f64)>,
        half_life: SimDuration,
    ) -> Self {
        let shares: Vec<_> = shares.into_iter().collect();
        let share_total = shares.iter().map(|(_, s)| *s).sum();
        let mut ids: Vec<ProjectId> = shares.iter().map(|&(p, _)| p).collect();
        ids.sort_unstable();
        ids.dedup();
        // A repeated id takes its first listed share.
        let share = ids
            .iter()
            .map(|&p| shares.iter().find(|(id, _)| *id == p).map_or(0.0, |(_, s)| *s))
            .collect();
        let n = ids.len();
        let rec = vec![0.0; n];
        let mut fetchable = ProcMap::<SlotSet>::default();
        for t in ProcType::ALL {
            fetchable[t].reset(n);
        }
        Accounting {
            kind,
            ids,
            share,
            share_total,
            debts: vec![ProcMap::zero(); n],
            lt_debts: vec![ProcMap::zero(); n],
            fetchable,
            lt_entitled: ProcMap::default(),
            rec_total: Self::sum_rec(&rec),
            rec,
            rec_updated: SimTime::ZERO,
            half_life,
        }
    }

    /// The slot of project `p`, or `None` if it holds no share here.
    pub(crate) fn slot_of(&self, p: ProjectId) -> Option<usize> {
        self.ids.binary_search(&p).ok()
    }

    /// Number of slots (distinct projects).
    pub(crate) fn num_slots(&self) -> usize {
        self.ids.len()
    }

    /// Fix the long-term-debt membership: for each processor type the host
    /// has, the projects that supply it, in `supplies` order, and each
    /// one's entitlement. Both depend only on the attached projects and
    /// the hardware, so the client sets them at construction and again
    /// whenever the hardware may have changed.
    ///
    /// # Panics
    /// If a supplying project holds no share here.
    pub(crate) fn set_fetchable(
        &mut self,
        hw: &Hardware,
        supplies: impl IntoIterator<Item = (ProjectId, ProcMap<bool>)>,
    ) {
        for t in ProcType::ALL {
            self.fetchable[t].clear();
            self.lt_entitled[t].clear();
        }
        for (p, supplied) in supplies {
            let slot = self.slot_of(p).expect("supplying project holds a share");
            for t in ProcType::ALL {
                if supplied[t] && hw.ninstances(t) > 0 {
                    self.fetchable[t].insert(slot);
                }
            }
        }
        for t in ProcType::ALL {
            let members = self.fetchable[t].slots();
            if let Some((ninst, share_sum)) = Self::accrual_base(&self.share, members, hw, t) {
                let share = &self.share;
                self.lt_entitled[t].extend(members.iter().map(|&s| share[s] / share_sum * ninst));
            }
        }
    }

    /// The long-term entitlements of type `t`, in membership order (tests).
    #[cfg(test)]
    pub(crate) fn lt_entitled(&self, t: ProcType) -> &[f64] {
        &self.lt_entitled[t]
    }

    fn sum_rec(rec: &[f64]) -> f64 {
        rec.iter().sum()
    }

    /// Capture all mutable state (debts, REC averages, decay clock; tests).
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> AccountingSnapshot {
        let ids = self.ids.iter().copied();
        AccountingSnapshot {
            debts: ids.clone().zip(self.debts.iter().copied()).collect(),
            lt_debts: ids.clone().zip(self.lt_debts.iter().copied()).collect(),
            rec: ids.zip(self.rec.iter().copied()).collect(),
            rec_updated: self.rec_updated,
        }
    }

    /// Overwrite all mutable state from a capture. Each table must list
    /// exactly this accounting's projects in ascending id order;
    /// otherwise nothing changes and the error names the table.
    pub fn restore_snapshot(&mut self, snap: &AccountingSnapshot) -> Result<(), String> {
        let ids = || self.ids.iter().copied();
        for (table, matches) in [
            ("debts", snap.debts.iter().map(|(p, _)| *p).eq(ids())),
            ("lt_debts", snap.lt_debts.iter().map(|(p, _)| *p).eq(ids())),
            ("rec", snap.rec.iter().map(|(p, _)| *p).eq(ids())),
        ] {
            if !matches {
                return Err(format!("accounting {table} do not list the scenario's projects"));
            }
        }
        self.debts = snap.debts.iter().map(|&(_, m)| m).collect();
        self.lt_debts = snap.lt_debts.iter().map(|&(_, m)| m).collect();
        self.rec = snap.rec.iter().map(|&(_, r)| r).collect();
        self.rec_total = Self::sum_rec(&self.rec);
        self.rec_updated = snap.rec_updated;
        Ok(())
    }

    /// `P`'s fraction of the total resource share.
    #[cfg(test)]
    pub(crate) fn share_frac(&self, p: ProjectId) -> f64 {
        self.slot_of(p).map_or(0.0, |s| self.share_frac_at(s))
    }

    pub(crate) fn share_frac_at(&self, slot: usize) -> f64 {
        if self.share_total > 0.0 {
            self.share[slot] / self.share_total
        } else {
            0.0
        }
    }

    /// Account an interval `[prev, now)` of usage.
    pub(crate) fn update(
        &mut self,
        prev: SimTime,
        now: SimTime,
        hw: &Hardware,
        sample: &UsageSample,
    ) {
        let dt = (now - prev).secs();
        if dt <= 0.0 {
            return;
        }
        match self.kind {
            AccountingKind::Local => {
                let share = &self.share;
                for t in ProcType::ALL {
                    let runnable = &sample.runnable[t];
                    let order = runnable.slots();
                    if let Some((ninst, share_sum)) = Self::accrual_base(share, order, hw, t) {
                        let entitled = order.iter().map(|&s| share[s] / share_sum * ninst);
                        Self::accrue(&mut self.debts, t, dt, sample, runnable, entitled);
                    }
                }
                for t in ProcType::ALL {
                    let entitled = &self.lt_entitled[t];
                    if !entitled.is_empty() {
                        let fetchable = &self.fetchable[t];
                        let entitled = entitled.iter().copied();
                        Self::accrue(&mut self.lt_debts, t, dt, sample, fetchable, entitled);
                    }
                }
            }
            AccountingKind::Global => self.update_global(now, hw, sample),
        }
    }

    /// `(ninst, share_sum)` of a debt accrual of type `t` over `members`,
    /// or `None` when the type accrues nothing: the host has none of it,
    /// nobody is eligible, or the eligible shares sum to zero.
    fn accrual_base(
        share: &[f64],
        members: &[usize],
        hw: &Hardware,
        t: ProcType,
    ) -> Option<(f64, f64)> {
        let ninst = hw.ninstances(t) as f64;
        if ninst <= 0.0 || members.is_empty() {
            return None;
        }
        let share_sum: f64 = members.iter().map(|&s| share[s]).sum();
        (share_sum > 0.0).then_some((ninst, share_sum))
    }

    /// Accrue one interval of type-`t` debt: each eligible project gains
    /// its entitled instance-seconds (`entitled`, in membership order)
    /// minus what it used.
    fn accrue(
        debts: &mut [ProcMap<f64>],
        t: ProcType,
        dt: f64,
        sample: &UsageSample,
        eligible: &SlotSet,
        entitled: impl Iterator<Item = f64>,
    ) {
        let order = eligible.slots();
        for (&s, entitled) in order.iter().zip(entitled) {
            let u = sample.used_of(s).map_or(0.0, |m| m[t]);
            debts[s][t] += dt * (entitled - u);
        }
        // Projects not eligible still pay for use (e.g. finishing a
        // last job while out of further work).
        for &s in sample.running.slots() {
            let u = sample.used[s][t];
            if !eligible.contains(s) && u > 0.0 {
                debts[s][t] -= dt * u;
            }
        }
        // Normalize to zero mean over eligible projects and clamp.
        let mean: f64 = order.iter().map(|&s| debts[s][t]).sum::<f64>() / order.len() as f64;
        for &s in order {
            let d = &mut debts[s][t];
            *d = (*d - mean).clamp(-MAX_DEBT, MAX_DEBT);
        }
    }

    fn update_global(&mut self, now: SimTime, hw: &Hardware, sample: &UsageSample) {
        let dt = (now - self.rec_updated).secs();
        if dt <= 0.0 {
            return;
        }
        let ln2 = std::f64::consts::LN_2;
        let hl = self.half_life.secs();
        let decay = (-ln2 * dt / hl).exp();
        let gain = hl / ln2 * (1.0 - decay);
        for (s, rec) in self.rec.iter_mut().enumerate() {
            // Peak FLOPS in use by this project over the interval.
            let rate: f64 = sample
                .used_of(s)
                .map_or(0.0, |m| ProcType::ALL.iter().map(|&t| m[t] * hw.flops_per_inst(t)).sum());
            *rec = *rec * decay + rate * gain;
        }
        self.rec_total = Self::sum_rec(&self.rec);
        self.rec_updated = now;
    }

    /// `PRIO_sched(P, T)`: higher means the project deserves the processor
    /// more.
    #[cfg(test)]
    pub(crate) fn prio_sched(&self, p: ProjectId, t: ProcType) -> f64 {
        self.slot_of(p).map_or(0.0, |s| self.prio_sched_at(s, t))
    }

    pub(crate) fn prio_sched_at(&self, slot: usize, t: ProcType) -> f64 {
        match self.kind {
            AccountingKind::Local => self.debts[slot][t],
            AccountingKind::Global => self.global_prio(slot),
        }
    }

    /// `PRIO_fetch(P)`: higher means new work should come from this
    /// project.
    pub(crate) fn prio_fetch(&self, p: ProjectId, hw: &Hardware) -> f64 {
        let Some(s) = self.slot_of(p) else { return 0.0 };
        match self.kind {
            AccountingKind::Local => {
                let d = &self.lt_debts[s];
                ProcType::ALL.iter().map(|&t| d[t] * hw.peak_flops(t)).sum()
            }
            AccountingKind::Global => self.global_prio(s),
        }
    }

    fn global_prio(&self, slot: usize) -> f64 {
        let rec_frac = if self.rec_total > 0.0 { self.rec[slot] / self.rec_total } else { 0.0 };
        self.share_frac_at(slot) - rec_frac
    }

    /// Raw REC value (global accounting), for inspection/plots.
    #[cfg(test)]
    pub(crate) fn rec_of(&self, p: ProjectId) -> f64 {
        self.slot_of(p).map_or(0.0, |s| self.rec[s])
    }

    /// Raw short-term debt (local accounting).
    #[cfg(test)]
    pub(crate) fn debt_of(&self, p: ProjectId, t: ProcType) -> f64 {
        self.slot_of(p).map_or(0.0, |s| self.debts[s][t])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> Hardware {
        Hardware::cpu_only(4, 1e9).with_group(ProcType::NvidiaGpu, 1, 1e10)
    }

    fn shares2() -> Vec<(ProjectId, f64)> {
        vec![(ProjectId(0), 1.0), (ProjectId(1), 1.0)]
    }

    /// A usage sample with the given slots running and runnable, and the
    /// same runnable lists fixed as `a`'s long-term-debt membership.
    fn sample(
        a: &mut Accounting,
        used: &[(u32, f64, f64)], // (project, cpus, gpus)
        runnable_cpu: &[u32],
        runnable_gpu: &[u32],
    ) -> UsageSample {
        // `shares2`'s ids 0 and 1 are slots 0 and 1.
        let mut s = UsageSample::default();
        s.reset(2);
        for &(p, c, g) in used {
            let m = s.used_entry(p as usize);
            m[ProcType::Cpu] = c;
            m[ProcType::NvidiaGpu] = g;
        }
        for (t, list) in [(ProcType::Cpu, runnable_cpu), (ProcType::NvidiaGpu, runnable_gpu)] {
            for &p in list {
                s.mark_runnable(t, p as usize);
            }
        }
        a.set_fetchable(
            &hw(),
            (0..2).map(|p| {
                let mut supplies = ProcMap::from_fn(|_| false);
                supplies[ProcType::Cpu] = runnable_cpu.contains(&p);
                supplies[ProcType::NvidiaGpu] = runnable_gpu.contains(&p);
                (ProjectId(p), supplies)
            }),
        );
        s
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn local_debt_rises_for_starved_project() {
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        // P0 uses all 4 CPUs; both runnable; P1 starves.
        let s = sample(&mut a, &[(0, 4.0, 0.0)], &[0, 1], &[]);
        a.update(t(0.0), t(100.0), &hw(), &s);
        assert!(a.prio_sched(ProjectId(1), ProcType::Cpu) > 0.0);
        assert!(a.prio_sched(ProjectId(0), ProcType::Cpu) < 0.0);
        // Zero-mean normalization.
        let sum = a.debt_of(ProjectId(0), ProcType::Cpu) + a.debt_of(ProjectId(1), ProcType::Cpu);
        assert!(sum.abs() < 1e-6);
    }

    #[test]
    fn local_debt_balanced_when_fairly_shared() {
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        let s = sample(&mut a, &[(0, 2.0, 0.0), (1, 2.0, 0.0)], &[0, 1], &[]);
        a.update(t(0.0), t(1000.0), &hw(), &s);
        assert!(a.prio_sched(ProjectId(0), ProcType::Cpu).abs() < 1e-6);
        assert!(a.prio_sched(ProjectId(1), ProcType::Cpu).abs() < 1e-6);
    }

    #[test]
    fn local_debts_are_per_type() {
        // This is the §5.2 mechanism: CPU debts balance independently of
        // the GPU, so local accounting splits the CPU evenly even when one
        // project hogs a big GPU.
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        let s = sample(&mut a, &[(0, 2.0, 0.0), (1, 2.0, 1.0)], &[0, 1], &[1]);
        a.update(t(0.0), t(1000.0), &hw(), &s);
        assert!(a.prio_sched(ProjectId(0), ProcType::Cpu).abs() < 1e-6);
        assert!(a.prio_sched(ProjectId(1), ProcType::Cpu).abs() < 1e-6);
    }

    #[test]
    fn global_prio_penalizes_gpu_hog() {
        // Same situation under global accounting: P1's GPU FLOPS dwarf
        // P0's CPU share, so P0's priority is higher on every resource.
        let mut a =
            Accounting::new(AccountingKind::Global, shares2(), SimDuration::from_days(10.0));
        let s = sample(&mut a, &[(0, 2.0, 0.0), (1, 2.0, 1.0)], &[0, 1], &[1]);
        a.update(t(0.0), t(10_000.0), &hw(), &s);
        assert!(
            a.prio_sched(ProjectId(0), ProcType::Cpu) > a.prio_sched(ProjectId(1), ProcType::Cpu)
        );
        assert!(a.prio_fetch(ProjectId(0), &hw()) > a.prio_fetch(ProjectId(1), &hw()));
    }

    #[test]
    fn global_rec_decays_with_half_life() {
        let hl = SimDuration::from_secs(1000.0);
        let mut a = Accounting::new(AccountingKind::Global, shares2(), hl);
        let s = sample(&mut a, &[(0, 4.0, 0.0)], &[0, 1], &[]);
        a.update(t(0.0), t(100.0), &hw(), &s);
        let r0 = a.rec_of(ProjectId(0));
        assert!(r0 > 0.0);
        // One half-life of idleness halves REC.
        let idle = sample(&mut a, &[], &[0, 1], &[]);
        a.update(t(100.0), t(1100.0), &hw(), &idle);
        assert!((a.rec_of(ProjectId(0)) / r0 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn short_half_life_forgets_faster() {
        // The Figure 6 mechanism: after the same burst of use, a short
        // half-life erases the over-share memory sooner.
        let mk = |hl: f64| {
            let mut a =
                Accounting::new(AccountingKind::Global, shares2(), SimDuration::from_secs(hl));
            // P0 monopolizes the host for a while, then P1 does.
            let s0 = sample(&mut a, &[(0, 4.0, 0.0)], &[0, 1], &[]);
            a.update(t(0.0), t(1000.0), &hw(), &s0);
            let s1 = sample(&mut a, &[(1, 4.0, 0.0)], &[0, 1], &[]);
            a.update(t(1000.0), t(11_000.0), &hw(), &s1);
            a.prio_sched(ProjectId(0), ProcType::Cpu)
        };
        let short = mk(500.0);
        let long = mk(50_000.0);
        // Short memory forgets P0's monopolization entirely (prio back near
        // +share_frac); long memory still holds it against P0.
        assert!(long < short, "long {long} vs short {short}");
    }

    #[test]
    fn fetch_prio_weights_by_peak_flops() {
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        // P0 starved on GPU (10 GF) but even on CPU: GPU debt dominates
        // fetch priority.
        let s = sample(&mut a, &[(1, 0.0, 1.0)], &[], &[0, 1]);
        a.update(t(0.0), t(100.0), &hw(), &s);
        assert!(a.prio_fetch(ProjectId(0), &hw()) > 0.0);
        assert!(a.prio_fetch(ProjectId(1), &hw()) < 0.0);
    }

    #[test]
    fn debt_clamped() {
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        let s = sample(&mut a, &[(0, 4.0, 0.0)], &[0, 1], &[]);
        // Enormous starvation interval: debt must clamp at MAX_DEBT.
        a.update(t(0.0), t(1e9), &hw(), &s);
        assert!(a.prio_sched(ProjectId(1), ProcType::Cpu) <= MAX_DEBT + 1e-9);
        assert!(a.prio_sched(ProjectId(0), ProcType::Cpu) >= -MAX_DEBT - 1e-9);
    }

    #[test]
    fn non_eligible_user_still_pays() {
        let mut a = Accounting::new(AccountingKind::Local, shares2(), SimDuration::from_days(10.0));
        // P1 uses CPU while not eligible (no runnable work listed).
        let s = sample(&mut a, &[(1, 2.0, 0.0)], &[0], &[]);
        a.update(t(0.0), t(100.0), &hw(), &s);
        assert!(a.debt_of(ProjectId(1), ProcType::Cpu) < 0.0);
    }

    #[test]
    fn slots_follow_ascending_ids_whatever_the_listing_order() {
        let shares = [(ProjectId(4_000_000_000), 1.0), (ProjectId(7), 2.0), (ProjectId(12), 1.0)];
        let mut a = Accounting::new(AccountingKind::Local, shares, SimDuration::from_days(10.0));
        assert_eq!(a.num_slots(), 3);
        assert_eq!(a.slot_of(ProjectId(7)), Some(0));
        assert_eq!(a.slot_of(ProjectId(4_000_000_000)), Some(2));
        assert_eq!(a.slot_of(ProjectId(8)), None);
        assert_eq!(a.share_frac(ProjectId(7)), 0.5);
        assert_eq!(a.prio_sched(ProjectId(8), ProcType::Cpu), 0.0);
        let ids: Vec<u32> = a.snapshot().debts.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, [7, 12, 4_000_000_000]);

        // A capture listing other projects is refused without side effects.
        let mut snap = a.snapshot();
        snap.debts[0].1[ProcType::Cpu] = 5.0;
        snap.rec.swap(0, 1);
        assert!(a.restore_snapshot(&snap).is_err());
        assert_eq!(a.debt_of(ProjectId(7), ProcType::Cpu), 0.0);
        snap.rec.swap(0, 1);
        a.restore_snapshot(&snap).unwrap();
        assert_eq!(a.debt_of(ProjectId(7), ProcType::Cpu), 5.0);
    }
}
