//! The classification engine.

use std::cmp::Reverse;

use nvd_model::OsPart;

use crate::rules::scores;

/// Classifies vulnerability descriptions into OS parts
/// (Driver / Kernel / System Software / Application) with the keyword
/// table [`crate::rules::RULES`].
///
/// The class with the highest score wins. Ties are broken with an explicit
/// priority: *Driver* wins over *Application*, which wins over *System
/// Software*, which wins over *Kernel*. The rationale mirrors the paper's
/// classification procedure: driver and application wording is very
/// specific (a description naming a driver or a bundled product is clearly
/// about that component), whereas kernel wording is generic, so the generic
/// classes only win when nothing more specific matched. Descriptions with
/// no matching keyword at all are [`OsPart::Kernel`], the paper's most
/// common base-system class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Classifier;

impl Classifier {
    /// The classifier over the paper-derived rule table.
    pub fn with_default_rules() -> Self {
        Classifier
    }

    /// Classifies a bare description.
    pub fn classify_summary(&self, summary: &str) -> OsPart {
        OsPart::ALL
            .into_iter()
            .zip(scores(summary))
            .filter(|&(_, score)| score > 0)
            .min_by_key(|&(part, score)| (Reverse(score), tie_break_rank(part)))
            .map_or(OsPart::Kernel, |(part, _)| part)
    }
}

/// A class's place in the tie-break order (lower wins).
fn tie_break_rank(part: OsPart) -> u8 {
    match part {
        OsPart::Driver => 0,
        OsPart::Application => 1,
        OsPart::SystemSoftware => 2,
        OsPart::Kernel => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_paper_style_descriptions() {
        let c = Classifier::with_default_rules();
        assert_eq!(
            c.classify_summary(
                "Heap overflow in the wireless network card driver allows remote code execution"
            ),
            OsPart::Driver
        );
        assert_eq!(
            c.classify_summary(
                "The TCP/IP stack does not properly validate sequence numbers, \
                 allowing a remote denial of service"
            ),
            OsPart::Kernel
        );
        assert_eq!(
            c.classify_summary(
                "Format string vulnerability in the login daemon allows local users \
                 to gain privileges"
            ),
            OsPart::SystemSoftware
        );
        assert_eq!(
            c.classify_summary(
                "SQL injection in the bundled database server allows remote attackers \
                 to read arbitrary tables"
            ),
            OsPart::Application
        );
    }

    #[test]
    fn unmatched_descriptions_use_the_default_class() {
        let c = Classifier::with_default_rules();
        for summary in ["", "An unusual flaw with no recognisable wording"] {
            assert_eq!(scores(summary), [0; 4]);
            assert_eq!(c.classify_summary(summary), OsPart::Kernel);
        }
    }

    #[test]
    fn tie_break_prefers_more_specific_classes() {
        // One real-table tie per adjacent pair of the order Driver,
        // Application, System Software, Kernel; scores in OsPart::ALL
        // order (Driver, Kernel, System Software, Application).
        let c = Classifier::with_default_rules();
        for (summary, tied, winner) in [
            // "firmware" 2 against "game" 2.
            ("firmware game", [2, 0, 0, 2], OsPart::Driver),
            // "browser" 3 against "shell" 3.
            ("browser shell", [0, 0, 3, 3], OsPart::Application),
            // "shell" 3 against "icmp" 3.
            ("shell icmp", [0, 3, 3, 0], OsPart::SystemSoftware),
        ] {
            assert_eq!(scores(summary), tied, "{summary:?}");
            assert_eq!(c.classify_summary(summary), winner, "{summary:?}");
        }
    }

    #[test]
    fn a_repeated_keyword_counts_once() {
        // "driver" 6 ties "kernel" 6 however often "kernel" repeats, and
        // the tie goes to Driver.
        assert_eq!(scores("kernel driver KERNEL kernel"), [6, 6, 0, 0]);
        let c = Classifier::with_default_rules();
        assert_eq!(
            c.classify_summary("kernel driver KERNEL kernel"),
            OsPart::Driver
        );
    }

    #[test]
    fn outcome_scores_are_reported() {
        let c = Classifier::with_default_rules();
        let summary = "buffer overflow in the kernel scheduler";
        // Kernel is index 1 in OsPart::ALL: "kernel" 6 + "scheduler" 3.
        assert_eq!(scores(summary), [0, 9, 0, 0]);
        assert_eq!(c.classify_summary(summary), OsPart::Kernel);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn classifier_is_total_and_deterministic(summary in "[ -~]{0,200}") {
                let c = Classifier::with_default_rules();
                let a = c.classify_summary(&summary);
                let b = c.classify_summary(&summary);
                prop_assert_eq!(a, b);
            }
        }
    }
}
