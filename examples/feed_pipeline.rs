//! The full data pipeline the paper describes in Section III: write NVD XML
//! feeds to disk, parse them back (CPE decoding and OS clustering), load everything
//! into the relational store, classify every entry into an OS part, and
//! report how well the automated classification matches the ground truth.
//!
//! Run with:
//!
//! ```text
//! cargo run -p osdiv --example feed_pipeline
//! ```

use classify::{ClassificationReport, Classifier};
use datagen::CalibratedGenerator;
use nvd_feed::{FeedReader, FeedWriter};
use osdiv_core::{ClassDistribution, Study};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Materialize the synthetic dataset as yearly NVD 2.0-style feeds,
    //    exactly like the files the paper's pipeline downloaded.
    let dataset = CalibratedGenerator::new(2011).generate();
    // Named with the process id, so two runs at once never share it.
    let feed_dir = std::env::temp_dir().join(format!("osdiv-feeds-{}", std::process::id()));
    std::fs::create_dir_all(&feed_dir)?;
    let mut feed_paths = Vec::new();
    for year in 2002..=2010u16 {
        // The 2002 feed carries everything reported up to 2002, matching the
        // paper's description of the historical feed.
        let entries: Vec<_> = dataset
            .entries()
            .iter()
            .filter(|e| {
                if year == 2002 {
                    e.year() <= 2002
                } else {
                    e.year() == year
                }
            })
            .cloned()
            .collect();
        let path = feed_dir.join(format!("nvdcve-2.0-{year}.xml"));
        FeedWriter::new()
            .with_pub_date(format!("{year}-12-31"))
            .write_to_path(&path, &entries)?;
        feed_paths.push((path, entries.len()));
    }
    println!(
        "Wrote {} yearly feeds to {}",
        feed_paths.len(),
        feed_dir.display()
    );

    // 2. Parse the feeds back.
    let mut reader = FeedReader::new();
    let mut parsed = Vec::new();
    for (path, _) in &feed_paths {
        parsed.extend(reader.read_from_path(path)?);
    }
    println!(
        "Parsed {} entries back from the feeds ({} skipped as malformed)",
        parsed.len(),
        reader.skipped()
    );

    // 3. Load the entries into the study, merging duplicates (entries
    //    republished in several yearly feeds) by CVE identifier as the SQL
    //    ingestion of the paper did, and classify the ones without an
    //    OS-part class using the rule engine.
    let mut study = Study::from_entries(&parsed);
    let classifier = Classifier::with_default_rules();
    let classified = study.dataset_mut().classify_unlabelled(&classifier);
    println!("Rule-classified {classified} entries without a class");

    // 4. Evaluate the classifier against the generator's ground truth.
    let pairs: Vec<_> = dataset
        .entries()
        .iter()
        .filter_map(|entry| {
            let truth = entry.part()?;
            let predicted = classifier.classify_summary(entry.summary());
            Some((truth, predicted))
        })
        .collect();
    let report = ClassificationReport::from_pairs(pairs);
    println!("\nClassifier evaluation against the generator's ground truth:");
    println!("{report}");

    // 5. The resulting Table II-style distribution.
    let distribution = study.get::<ClassDistribution>().unwrap();
    println!("Per-class share of the classified dataset:");
    let [driver, kernel, syssoft, app] = distribution.class_percentages();
    println!(
        "  Driver {driver:.1}%  Kernel {kernel:.1}%  Sys. Soft. {syssoft:.1}%  App. {app:.1}%"
    );

    // Clean up the temporary feeds.
    std::fs::remove_dir_all(&feed_dir).ok();
    Ok(())
}
