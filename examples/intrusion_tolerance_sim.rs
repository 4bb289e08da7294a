//! Monte-Carlo intrusion-tolerance simulation: how often does a BFT system
//! lose more than `f` replicas at once, depending on the OS diversity of its
//! replica group?
//!
//! This is the extension experiment (E10 in DESIGN.md): it turns the paper's
//! common-vulnerability counts into survival probabilities under an explicit
//! attacker model.
//!
//! Run with:
//!
//! ```text
//! cargo run -p osdiv --example intrusion_tolerance_sim
//! ```

use bft_sim::{AttackerModel, ReplicaSet, SimulationConfig, Simulator};
use datagen::CalibratedGenerator;
use nvd_model::OsDistribution;
use osdiv_core::{figure3_configurations, StudyDataset};

fn main() {
    let dataset = CalibratedGenerator::new(2011).generate();
    let study = StudyDataset::from_entries(dataset.entries());

    let config = SimulationConfig::default()
        .with_trials(300)
        .with_seed(7)
        .with_attacker(AttackerModel {
            exploit_probability: 0.10,
            exposure_days: 10.0,
        });
    let simulator = Simulator::new(&study, config);

    let mut configurations = vec![ReplicaSet::homogeneous(OsDistribution::Debian, 4)];
    for (_, oses) in figure3_configurations() {
        configurations.push(ReplicaSet::diverse(oses));
    }

    println!("Simulated period: 2006-2010, f = 1, n = 4 replicas (3f+1)\n");
    println!(
        "{:<45} {:>12} {:>16} {:>10}",
        "configuration", "P(failure)", "MTTF (days)", "peak"
    );
    for set in &configurations {
        let report = simulator.run(set);
        println!(
            "{:<45} {:>12.2} {:>16} {:>10.2}",
            report.label(),
            report.failure_probability(),
            report
                .mean_time_to_failure_days()
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "-".to_string()),
            report.mean_peak_compromised()
        );
    }

    // Proactive recovery sensitivity for the best diverse configuration.
    println!("\nProactive recovery sweep for the first diverse configuration:");
    let diverse = &configurations[1];
    for period in [7.0, 30.0, 90.0] {
        let config = SimulationConfig::default()
            .with_trials(300)
            .with_seed(7)
            .with_recovery_period(period);
        let report = Simulator::new(&study, config).run(diverse);
        println!(
            "  recovery every {period:>3.0} days -> P(failure) = {:.2}",
            report.failure_probability()
        );
    }
}
