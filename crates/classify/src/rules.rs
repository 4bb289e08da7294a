//! Keyword rules encoding the classification rationale of Section III-B.

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

/// Scores a description against every rule; returns the total score per
/// class in [`OsPart::ALL`] order. Matching ignores ASCII case, and a rule
/// counts once if its keyword occurs anywhere in the description.
pub fn scores(description: &str) -> [u32; 4] {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
