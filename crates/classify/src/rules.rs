//! Keyword rules encoding the classification rationale of Section III-B.

use std::collections::VecDeque;
use std::sync::OnceLock;

use nvd_model::OsPart;
use OsPart::{Application, Driver, Kernel, SystemSoftware};

/// The keyword rules, one `(class, keyword, weight)` row each: a
/// description whose lower-cased text contains `keyword` scores `weight`
/// points for `class`.
///
/// The keywords come from the class definitions in Section III-B of the
/// paper and from the typical wording of NVD summaries for each class.
pub const RULES: &[(OsPart, &str, u32)] = &[
    // ---------------- Driver ----------------
    (Driver, "driver", 6),
    (Driver, "wireless", 3),
    (Driver, "network card", 4),
    (Driver, "video card", 4),
    (Driver, "graphics card", 4),
    (Driver, "sound card", 4),
    (Driver, "audio card", 4),
    (Driver, "web cam", 4),
    (Driver, "webcam", 4),
    (Driver, "universal plug and play", 4),
    (Driver, "upnp device", 4),
    (Driver, "firmware", 2),
    (Driver, "beacon frame", 2),
    (Driver, "802.11", 2),
    // ---------------- Kernel ----------------
    (Kernel, "kernel", 6),
    (Kernel, "tcp/ip stack", 5),
    (Kernel, "tcp implementation", 5),
    (Kernel, "ip stack", 4),
    (Kernel, "network stack", 4),
    (Kernel, "icmp", 3),
    (Kernel, "tcp", 2),
    (Kernel, "file system", 4),
    (Kernel, "filesystem", 4),
    (Kernel, "virtual memory", 4),
    (Kernel, "memory management", 4),
    (Kernel, "page table", 4),
    (Kernel, "process management", 4),
    (Kernel, "task management", 4),
    (Kernel, "scheduler", 3),
    (Kernel, "system call", 4),
    (Kernel, "syscall", 4),
    (Kernel, "core library", 3),
    (Kernel, "libc", 3),
    (Kernel, "signal handler", 3),
    (Kernel, "privilege escalation in the kernel", 5),
    (Kernel, "processor", 2),
    (Kernel, "cpu", 2),
    (Kernel, "ioctl", 3),
    (Kernel, "packet", 1),
    // ---------------- System software ----------------
    (SystemSoftware, "login", 4),
    (SystemSoftware, "shell", 3),
    (SystemSoftware, "daemon", 4),
    (SystemSoftware, "init script", 3),
    (SystemSoftware, "cron", 3),
    (SystemSoftware, "syslog", 3),
    (SystemSoftware, "sshd", 4),
    (SystemSoftware, "openssh", 4),
    (SystemSoftware, "telnetd", 4),
    (SystemSoftware, "ftpd", 3),
    (SystemSoftware, "inetd", 4),
    (SystemSoftware, "rpc service", 3),
    (SystemSoftware, "rpcbind", 3),
    (SystemSoftware, "nfs server", 3),
    (SystemSoftware, "dhcp", 3),
    (SystemSoftware, "dns resolver", 3),
    (SystemSoftware, "dns protocol", 3),
    (SystemSoftware, "name service", 3),
    (SystemSoftware, "authentication module", 3),
    (SystemSoftware, "pam", 2),
    (SystemSoftware, "sudo", 3),
    (SystemSoftware, "passwd", 3),
    (SystemSoftware, "getty", 3),
    (SystemSoftware, "system utility", 3),
    (SystemSoftware, "package manager", 3),
    // ---------------- Application ----------------
    (Application, "database server", 5),
    (Application, "database management", 5),
    (Application, "sql server", 4),
    (Application, "mysql", 4),
    (Application, "postgresql", 4),
    (Application, "web browser", 5),
    (Application, "internet explorer", 5),
    (Application, "browser", 3),
    (Application, "messenger", 4),
    (Application, "mail client", 4),
    (Application, "email client", 4),
    (Application, "mail server", 4),
    (Application, "web server", 4),
    (Application, "http server", 4),
    (Application, "ftp client", 4),
    (Application, "media player", 5),
    (Application, "music player", 5),
    (Application, "video player", 5),
    (Application, "text editor", 4),
    (Application, "word processor", 4),
    (Application, "spreadsheet", 4),
    (Application, "compiler", 4),
    (Application, "virtual machine", 3),
    (Application, "java runtime", 4),
    (Application, "interpreter", 3),
    (Application, "scripting language", 3),
    (Application, "antivirus", 4),
    (Application, "kerberos", 3),
    (Application, "ldap", 3),
    (Application, "game", 2),
    (Application, "office", 3),
    (Application, "pdf viewer", 4),
    (Application, "image viewer", 4),
    (Application, "archive utility", 3),
];

/// The keyword bytes as a set over ASCII (bit `b` for byte `b`), and the
/// keywords' total length.
const fn keyword_bytes() -> (u128, usize) {
    let mut set = 0u128;
    let mut total = 0;
    let mut rules = RULES;
    while let [(_, keyword, _), rest @ ..] = rules {
        let mut bytes = keyword.as_bytes();
        while let [byte, tail @ ..] = bytes {
            if let Some(bit) = 1u128.checked_shl(*byte as u32) {
                set |= bit;
            }
            total += 1;
            bytes = tail;
        }
        rules = rest;
    }
    (set, total)
}

/// Every byte some keyword contains (all keywords are ASCII).
const KEYWORD_BYTES: u128 = keyword_bytes().0;

/// The byte classes the automaton steps on: class 0 for every byte no
/// keyword contains, then one class per keyword byte, with ASCII upper
/// case folded onto lower case (33 for the table above).
const CLASSES: usize = KEYWORD_BYTES.count_ones() as usize + 1;

// A match set holds one bit per rule, and a state id fits a `u16` with
// `u16::MAX` left free to mark a missing trie edge: a trie has at most
// one state per keyword byte plus the root.
const _: () = assert!(RULES.len() <= 128);
const _: () = assert!(keyword_bytes().1 < u16::MAX as usize);

/// A deterministic Aho–Corasick automaton over the keywords of [`RULES`]:
/// one step per input byte, with every failure transition folded into the
/// table, so [`scores`] reads each description once and copies nothing.
struct Automaton {
    /// The class of every byte.
    class_of: [u8; 256],
    /// `next[state][class]`: the state after a byte of that class. State 0
    /// is the root, where no keyword has begun.
    next: Vec<[u16; CLASSES]>,
    /// The rules (bit `i` for `RULES[i]`) whose keyword ends at a state,
    /// the keywords that end at its suffixes included.
    matches: Vec<u128>,
}

impl Automaton {
    /// The automaton, built on first use.
    fn shared() -> &'static Automaton {
        static AUTOMATON: OnceLock<Automaton> = OnceLock::new();
        AUTOMATON.get_or_init(Automaton::build)
    }

    fn build() -> Automaton {
        const MISSING: u16 = u16::MAX;
        let mut class_of = [0u8; 256];
        for (byte, class) in (0..=u8::MAX).zip(class_of.iter_mut()) {
            let bit = 1u128.checked_shl(u32::from(byte.to_ascii_lowercase()));
            if let Some(bit) = bit.filter(|bit| KEYWORD_BYTES & bit != 0) {
                // One more than the number of keyword bytes below it.
                *class = (KEYWORD_BYTES & (bit - 1)).count_ones() as u8 + 1;
            }
        }
        let mut automaton = Automaton {
            class_of,
            next: vec![[MISSING; CLASSES]],
            matches: vec![0],
        };

        // The trie of the keywords.
        for (rule, (_, keyword, _)) in RULES.iter().enumerate() {
            let mut state = 0;
            for &byte in keyword.as_bytes() {
                let class = automaton.class(byte);
                let fresh = u16::try_from(automaton.next.len()).unwrap_or(MISSING);
                let Some(slot) = automaton
                    .next
                    .get_mut(state)
                    .and_then(|row| row.get_mut(class))
                else {
                    break;
                };
                if *slot == MISSING {
                    *slot = fresh;
                    automaton.next.push([MISSING; CLASSES]);
                    automaton.matches.push(0);
                    state = usize::from(fresh);
                } else {
                    state = usize::from(*slot);
                }
            }
            if let Some(set) = automaton.matches.get_mut(state) {
                *set |= 1u128.checked_shl(rule as u32).unwrap_or(0);
            }
        }

        // Failure transitions, breadth first: a state's failure target is
        // its longest proper suffix in the trie. That suffix is shallower,
        // so its row is already complete: a missing edge takes the
        // target's edge, and a child's target is the edge the parent's
        // target takes on the same class (the root's targets are all 0).
        let mut fallback = vec![0usize; automaton.next.len()];
        let mut queue = VecDeque::from([0usize]);
        let mut children = Vec::new();
        while let Some(state) = queue.pop_front() {
            let inherited = match state {
                0 => [0; CLASSES],
                _ => fallback
                    .get(state)
                    .and_then(|&target| automaton.next.get(target))
                    .copied()
                    .unwrap_or([0; CLASSES]),
            };
            let Some(row) = automaton.next.get_mut(state) else {
                continue;
            };
            for (slot, &edge) in row.iter_mut().zip(&inherited) {
                if *slot == MISSING {
                    *slot = edge;
                } else {
                    children.push((usize::from(*slot), usize::from(edge)));
                }
            }
            for (child, target) in children.drain(..) {
                let inherited_matches = automaton.matches.get(target).copied().unwrap_or(0);
                if let Some(set) = automaton.matches.get_mut(child) {
                    *set |= inherited_matches;
                }
                if let Some(slot) = fallback.get_mut(child) {
                    *slot = target;
                }
                queue.push_back(child);
            }
        }
        automaton
    }

    fn class(&self, byte: u8) -> usize {
        self.class_of
            .get(usize::from(byte))
            .map_or(0, |&class| usize::from(class))
    }

    /// The state after reading `byte` in `state`.
    fn step(&self, state: usize, byte: u8) -> usize {
        self.next
            .get(state)
            .and_then(|row| row.get(self.class(byte)))
            .map_or(0, |&next| usize::from(next))
    }
}

/// Scores a description against every rule; returns the total score per
/// class in [`OsPart::ALL`] order. Matching ignores ASCII case, and a rule
/// counts once if its keyword occurs anywhere in the description.
pub fn scores(description: &str) -> [u32; 4] {
    let automaton = Automaton::shared();
    let mut state = 0;
    let mut matched = 0u128;
    for &byte in description.as_bytes() {
        state = automaton.step(state, byte);
        matched |= automaton.matches.get(state).copied().unwrap_or(0);
    }
    let mut scores = [0; 4];
    while matched != 0 {
        let rule = matched.trailing_zeros() as usize;
        matched &= matched - 1;
        if let Some((part, _, weight)) = RULES.get(rule) {
            for (class, score) in OsPart::ALL.iter().zip(&mut scores) {
                if class == part {
                    *score += weight;
                }
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scorer the automaton replaced, kept as its test oracle: one
    /// lower-case copy of the description, then one `contains` scan per
    /// rule.
    fn naive_scores(description: &str) -> [u32; 4] {
        let lower = description.to_ascii_lowercase();
        let mut scores = [0; 4];
        for (part, keyword, weight) in RULES {
            if lower.contains(keyword) {
                for (class, score) in OsPart::ALL.iter().zip(&mut scores) {
                    if class == part {
                        *score += weight;
                    }
                }
            }
        }
        scores
    }

    #[test]
    fn the_automaton_has_one_class_per_keyword_byte_and_one_state_per_prefix() {
        // 32 distinct keyword bytes plus the class of every other byte.
        assert_eq!(CLASSES, 33);
        let automaton = Automaton::shared();
        assert_eq!(automaton.next.len(), 819);
        assert_eq!(automaton.class(b'K'), automaton.class(b'k'));
        assert_eq!(automaton.class(b'-'), 0);
        assert_eq!(automaton.class(0xC3), 0);
    }

    #[test]
    fn every_keyword_cut_short_run_on_or_upper_cased_scores_as_the_naive_scorer() {
        let mut checked = 0;
        for (_, keyword, _) in RULES {
            let mut inputs = vec![
                keyword.to_string(),
                keyword.to_ascii_uppercase(),
                format!("-{keyword}s"),
            ];
            for cut in 1..keyword.len() {
                inputs.push(keyword[..cut].to_string());
                inputs.push(keyword[cut..].to_string());
            }
            // Every ordered pair, so one keyword's tail runs into the next.
            for (_, other, _) in RULES {
                inputs.push(format!("{keyword}{other}"));
            }
            for input in inputs {
                assert_eq!(scores(&input), naive_scores(&input), "{input:?}");
                checked += 1;
            }
        }
        assert_eq!(checked, 11_676);
    }

    #[test]
    fn overlapping_keywords_each_count() {
        // "tcp/ip stack" 5 also holds "ip stack" 4 and "tcp" 2.
        assert_eq!(scores("A TCP/IP Stack overflow"), [0, 11, 0, 0]);
        assert_eq!(naive_scores("A TCP/IP Stack overflow"), [0, 11, 0, 0]);
        // Near misses score nothing; non-ASCII bytes break a keyword.
        for near_miss in ["kerne", "erne", "ker nel", "kern\u{e9}l", "\u{130}cmp"] {
            assert_eq!(scores(near_miss), [0; 4], "{near_miss:?}");
            assert_eq!(naive_scores(near_miss), [0; 4], "{near_miss:?}");
        }
        assert_eq!(scores("kernell"), [0, 6, 0, 0]);
    }

    #[test]
    fn default_rules_cover_all_classes() {
        assert_eq!(RULES.len(), 98);
        for part in OsPart::ALL {
            assert!(
                RULES.iter().any(|(class, _, _)| *class == part),
                "no rules for class {part}"
            );
        }
        // Keywords are matched against lower-cased text.
        for (_, keyword, _) in RULES {
            assert_eq!(*keyword, keyword.to_ascii_lowercase());
        }
    }

    #[test]
    fn rule_matching_is_case_insensitive_via_scores() {
        let upper = scores("Buffer overflow in the KERNEL memory management");
        let lower = scores("buffer overflow in the kernel memory management");
        assert_eq!(upper, lower);
        // Kernel is index 1 in OsPart::ALL: "kernel" 6 + "memory management" 4.
        assert_eq!(upper, [0, 10, 0, 0]);
    }

    #[test]
    fn empty_ruleset_scores_zero() {
        // A score is a sum over the rules a description matches; when that
        // set is empty, every class scores zero.
        for description in [
            "",
            "anything",
            "An unusual flaw with no recognisable wording",
        ] {
            assert_eq!(scores(description), [0, 0, 0, 0], "{description:?}");
        }
    }

    #[test]
    fn scores_accumulate_multiple_matches() {
        // Driver is index 0 in OsPart::ALL: "driver" 6 + "wireless" 3.
        assert_eq!(scores("wireless driver flaw"), [9, 0, 0, 0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `text` with the characters at the set bits of `mask` upper-cased.
        fn mixed_case(text: &str, mask: u64) -> String {
            text.chars()
                .zip(0..)
                .map(|(ch, bit)| match mask.checked_shr(bit) {
                    Some(m) if m & 1 == 1 => ch.to_ascii_uppercase(),
                    _ => ch,
                })
                .collect()
        }

        /// A piece of a generated description: a keyword in mixed case, a
        /// keyword cut short at either end (`kerne`, `ernel`) or run on
        /// (`kernell`), or filler with non-ASCII characters among it.
        fn piece() -> impl Strategy<Value = String> {
            prop_oneof![
                (0..RULES.len(), 0..u64::MAX)
                    .prop_map(|(rule, mask)| mixed_case(RULES[rule].1, mask)),
                (0..RULES.len(), 0..64usize, 0..u64::MAX).prop_map(|(rule, cut, mask)| {
                    let keyword = RULES[rule].1;
                    let cut = cut % keyword.len();
                    let piece = if mask & 1 == 0 {
                        &keyword[..cut]
                    } else {
                        &keyword[cut..]
                    };
                    mixed_case(piece, mask >> 1)
                }),
                (0..RULES.len(), "[a-z ./]{1,2}")
                    .prop_map(|(rule, tail)| format!("{}{tail}", RULES[rule].1)),
                "[ -~]{0,12}",
                "[ a-zA-Z\u{e9}\u{df}\u{130}\u{212a}\u{6f22}\u{80}]{0,6}",
            ]
        }

        proptest! {
            #[test]
            fn automaton_scores_equal_naive_scores(pieces in proptest::collection::vec(piece(), 0..12)) {
                // The whole description and every suffix of it, so each
                // piece is also read from a fresh automaton state.
                let description = pieces.concat();
                for (start, _) in description.char_indices() {
                    let suffix = &description[start..];
                    prop_assert_eq!(scores(suffix), naive_scores(suffix), "{:?}", suffix);
                }
                prop_assert_eq!(scores(""), naive_scores(""));
            }
        }
    }
}
