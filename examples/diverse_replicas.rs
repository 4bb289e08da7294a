//! Selecting diverse replica groups for an intrusion-tolerant system, the
//! way the paper does it (Section IV-C): choose the group on *history* data
//! (1994-2005), then check how it would have fared on the *observed* period
//! (2006-2010).
//!
//! Run with:
//!
//! ```text
//! cargo run -p osdiv --example diverse_replicas
//! ```

use datagen::CalibratedGenerator;
use osdiv_core::{figure3_table, ReplicaSelection, Study};

fn main() {
    let dataset = CalibratedGenerator::new(2011).generate();
    let study = Study::from_entries(dataset.entries());
    let selection = ReplicaSelection::new(&study);

    // The homogeneous baseline: four replicas of the OS with the fewest
    // remotely exploitable base-system vulnerabilities in the history period.
    let (best_single, history_count) = selection.best_single_os();
    println!(
        "Best single OS on history data: {best_single} ({history_count} remotely \
         exploitable base-system vulnerabilities 1994-2005)\n"
    );

    // The paper's Figure 3: the baseline and the four diverse sets.
    println!("{}", figure3_table(&selection.figure3()).render());

    // Exhaustive search: the best four-OS and six-OS groups according to the
    // history period.
    println!("Best four-OS replica groups (history score = distinct shared vulnerabilities):");
    for (group, score) in selection.best_groups(4, 5) {
        println!("  {group:<45} {score}");
    }
    println!();
    println!("Best six-OS replica groups (enough for f=1 with 3f+1 plus two spares,");
    println!("or f=2 with 2f+1 replicas):");
    for (group, score) in selection.best_groups(6, 3) {
        println!("  {group:<70} {score}");
    }
}
