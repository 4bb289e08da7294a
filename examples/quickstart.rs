//! Quickstart: generate the calibrated vulnerability dataset, load it into
//! the study, and ask the paper's central question for one OS pair and one
//! replica group.
//!
//! Run with:
//!
//! ```text
//! cargo run -p osdiv --example quickstart
//! ```

use datagen::CalibratedGenerator;
use nvd_model::{OsDistribution, OsSet};
use osdiv_core::{PairwiseAnalysis, ServerProfile, Study};

fn main() {
    // 1. Generate the synthetic NVD dataset calibrated to the paper's
    //    published statistics (Tables I-VI), and load it into a study
    //    session (analysis results are computed once and memoized).
    let dataset = CalibratedGenerator::new(2011).generate();
    let study = Study::from_entries(dataset.entries());
    println!(
        "Loaded {} vulnerabilities ({} valid) affecting {} operating systems.\n",
        study.store().vulnerability_count(),
        study.valid_count(),
        OsDistribution::COUNT
    );

    // 2. How many vulnerabilities do two specific OSes share, and how does
    //    the server configuration change that?
    let pair = OsSet::pair(OsDistribution::Debian, OsDistribution::Windows2003);
    println!("Common vulnerabilities of {pair}:");
    for profile in ServerProfile::ALL {
        println!(
            "  {:<22} {}",
            format!("{profile}:"),
            study.count_common(pair, profile)
        );
    }
    println!();

    // 3. The headline numbers of the paper: average reduction when moving to
    //    an Isolated Thin Server and the share of pairs with at most one
    //    common vulnerability.
    let summary = study.get::<PairwiseAnalysis>().unwrap().summary();
    println!(
        "Across all {} OS pairs: filtering applications and local-only \
         vulnerabilities removes {:.0}% of the common vulnerabilities on \
         average, and {} pairs share at most one remotely exploitable \
         base-system vulnerability.",
        summary.pair_count,
        summary.average_reduction * 100.0,
        summary.pairs_with_at_most_one_common
    );

    // 4. A four-replica intrusion-tolerant deployment (f = 1, n = 3f + 1).
    let replicas = OsSet::from_iter([
        OsDistribution::Windows2003,
        OsDistribution::Solaris,
        OsDistribution::Debian,
        OsDistribution::OpenBsd,
    ]);
    println!(
        "\nThe diverse replica group {replicas} shares {} remotely exploitable \
         base-system vulnerabilities across all four members (1994-2010).",
        study.count_common(replicas, ServerProfile::IsolatedThinServer)
    );
}
