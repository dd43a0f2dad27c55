//! Monte-Carlo scenario population sampling (§6.2 future work:
//! "characterize the actual population of scenarios, and develop a
//! system, perhaps based on Monte-Carlo sampling, to study policies over
//! the entire population").
//!
//! The distributions below are synthetic but shaped by published
//! characterizations of the SETI@home host population (Javadi et al. \[5\]:
//! availability well-modeled by exponential-family on/off processes;
//! host speeds roughly log-normal; core counts concentrated on small
//! powers of two). Every draw comes from the sampler's own RNG stream, so
//! a population is reproducible from its seed.

use bce_avail::{AvailSpec, OnOffSpec};
use bce_core::{Scenario, ScenarioBuilder};
use bce_sim::{Distribution, LogNormal, Rng, Uniform};
use bce_types::{AppClass, Hardware, Preferences, ProcType, ProjectSpec, SimDuration};

/// Tunable knobs of the population distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationModel {
    /// Median per-core speed (FLOPS) and log-sigma.
    pub core_flops_median: f64,
    pub core_flops_sigma: f64,
    /// Probability weights for 1, 2, 4, 8 cores.
    pub core_count_weights: [f64; 4],
    /// Probability the host has a GPU.
    pub gpu_probability: f64,
    /// GPU/CPU speed ratio range.
    pub gpu_ratio: Uniform,
    /// Probability weights for 1..=max attached projects.
    pub max_projects: u32,
    /// Host availability fraction range.
    pub host_on_frac: Uniform,
    /// Mean availability cycle length range (seconds).
    pub cycle_mean: Uniform,
    /// Job runtime median (seconds) and log-sigma across projects.
    pub runtime_median: f64,
    pub runtime_sigma: f64,
    /// Latency-bound/runtime slack factor range.
    pub slack_factor: Uniform,
}

impl Default for PopulationModel {
    fn default() -> Self {
        PopulationModel {
            core_flops_median: 2e9,
            core_flops_sigma: 0.4,
            core_count_weights: [0.15, 0.35, 0.35, 0.15],
            gpu_probability: 0.2,
            gpu_ratio: Uniform { lo: 5.0, hi: 30.0 },
            max_projects: 6,
            host_on_frac: Uniform { lo: 0.3, hi: 1.0 },
            cycle_mean: Uniform { lo: 4.0 * 3600.0, hi: 48.0 * 3600.0 },
            runtime_median: 3000.0,
            runtime_sigma: 0.8,
            slack_factor: Uniform { lo: 3.0, hi: 50.0 },
        }
    }
}

impl PopulationModel {
    /// A fleet shaped by the 2019 BOINC host census (Anderson, "BOINC: A
    /// Platform for Volunteer Computing", 2019): faster medians with a
    /// wider spread than the 2011 defaults, many-core hosts common, a
    /// third of hosts with (much faster) GPUs, longer jobs, and tighter
    /// deadlines.
    pub fn boinc2019() -> Self {
        PopulationModel {
            core_flops_median: 3.3e9,
            core_flops_sigma: 0.5,
            core_count_weights: [0.08, 0.22, 0.42, 0.28],
            gpu_probability: 0.33,
            gpu_ratio: Uniform { lo: 10.0, hi: 80.0 },
            max_projects: 4,
            host_on_frac: Uniform { lo: 0.2, hi: 1.0 },
            cycle_mean: Uniform { lo: 2.0 * 3600.0, hi: 72.0 * 3600.0 },
            runtime_median: 7200.0,
            runtime_sigma: 1.0,
            slack_factor: Uniform { lo: 2.0, hi: 20.0 },
        }
    }

    /// Look up a named model (`default` or `boinc2019`) — the names
    /// accepted by campaign manifests.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "default" => Some(PopulationModel::default()),
            "boinc2019" => Some(PopulationModel::boinc2019()),
            _ => None,
        }
    }
}

/// Draws scenarios from the population.
pub struct PopulationSampler {
    model: PopulationModel,
    rng: Rng,
    next_index: u64,
}

impl PopulationSampler {
    pub fn new(model: PopulationModel, seed: u64) -> Self {
        PopulationSampler { model, rng: Rng::stream(seed, "population"), next_index: 0 }
    }

    pub fn model(&self) -> &PopulationModel {
        &self.model
    }

    /// Draw the next scenario.
    pub fn sample(&mut self) -> Scenario {
        let m = &self.model;
        let idx = self.next_index;
        self.next_index += 1;
        let rng = &mut self.rng;

        // Hardware.
        let cores = [1u32, 2, 4, 8][rng.pick_weighted(&m.core_count_weights)];
        let core_flops =
            LogNormal::from_median(m.core_flops_median, m.core_flops_sigma).sample(rng);
        let mut hw =
            Hardware::cpu_only(cores, core_flops).with_mem(4e9 * (1.0 + rng.uniform() * 7.0));
        let has_gpu = rng.chance(m.gpu_probability);
        if has_gpu {
            let ratio = m.gpu_ratio.sample(rng);
            let gpu_type = if rng.chance(0.7) { ProcType::NvidiaGpu } else { ProcType::AtiGpu };
            hw = hw.with_group(gpu_type, 1, core_flops * ratio).with_vram(1e9);
        }

        // Availability.
        let on_frac = m.host_on_frac.sample(rng);
        let cycle = SimDuration::from_secs(m.cycle_mean.sample(rng));
        let avail = AvailSpec {
            host: OnOffSpec::duty_cycle(on_frac, cycle),
            user_active: OnOffSpec::duty_cycle(rng.range(0.0, 0.5), SimDuration::from_hours(2.0)),
            network: OnOffSpec::AlwaysOn,
        };

        // Projects.
        let nprojects = 1 + rng.below(m.max_projects as usize);
        let mut builder = ScenarioBuilder::new(format!("pop{idx:05}"), hw.clone())
            .seed(rng.next_u64())
            .prefs(Preferences::default())
            .avail(avail);
        for p in 0..nprojects {
            let share = [100.0, 100.0, 200.0, 50.0, 400.0][rng.below(5)];
            let runtime = LogNormal::from_median(m.runtime_median, m.runtime_sigma).sample(rng);
            let slack = m.slack_factor.sample(rng);
            let latency = SimDuration::from_secs(runtime * slack);
            let mut spec = ProjectSpec::new(p as u32, format!("pop-p{p}"), share);
            let gpu_project = has_gpu && rng.chance(0.4);
            spec = spec.with_app(
                AppClass::cpu(2 * p as u32, SimDuration::from_secs(runtime), latency).with_cv(0.1),
            );
            if gpu_project {
                let gpu_type =
                    hw.present_types().find(|t| t.is_gpu()).expect("gpu present when gpu_project");
                spec = spec.with_app(
                    AppClass::gpu(
                        2 * p as u32 + 1,
                        gpu_type,
                        SimDuration::from_secs(runtime / 4.0),
                        latency,
                    )
                    .with_cv(0.1),
                );
            }
            builder = builder.project(spec);
        }
        builder.build_unchecked()
    }

    /// Draw `n` scenarios.
    pub fn sample_many(&mut self, n: usize) -> Vec<Scenario> {
        (0..n).map(|_| self.sample()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_validate() {
        let mut s = PopulationSampler::new(PopulationModel::default(), 42);
        for scenario in s.sample_many(50) {
            assert!(scenario.validate().is_ok(), "{}: {:?}", scenario.name, scenario.validate());
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = PopulationSampler::new(PopulationModel::default(), 7);
        let mut b = PopulationSampler::new(PopulationModel::default(), 7);
        for _ in 0..20 {
            let (sa, sb) = (a.sample(), b.sample());
            assert_eq!(sa.seed, sb.seed);
            assert_eq!(sa.projects.len(), sb.projects.len());
            assert_eq!(sa.hardware, sb.hardware);
        }
    }

    #[test]
    fn population_is_diverse() {
        let mut s = PopulationSampler::new(PopulationModel::default(), 11);
        let scenarios = s.sample_many(100);
        let with_gpu = scenarios.iter().filter(|s| s.hardware.has_gpu()).count();
        assert!((5..60).contains(&with_gpu), "gpu hosts: {with_gpu}");
        let core_counts: std::collections::HashSet<u32> =
            scenarios.iter().map(|s| s.hardware.ninstances(ProcType::Cpu)).collect();
        assert!(core_counts.len() >= 3, "core variety: {core_counts:?}");
        let project_counts: std::collections::HashSet<usize> =
            scenarios.iter().map(|s| s.projects.len()).collect();
        assert!(project_counts.len() >= 3);
    }

    #[test]
    fn gpu_apps_only_on_gpu_hosts() {
        let mut s = PopulationSampler::new(PopulationModel::default(), 13);
        for scenario in s.sample_many(100) {
            for p in &scenario.projects {
                for t in p.proc_types() {
                    if t.is_gpu() {
                        assert!(scenario.hardware.ninstances(t) > 0);
                    }
                }
            }
        }
    }
}
