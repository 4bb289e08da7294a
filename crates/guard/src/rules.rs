//! The guard's rule engine: token-level checks over a lexed file.
//!
//! Every rule is deliberately *syntactic* — the guard has no type
//! information and never will. The rules are tuned so that on this
//! workspace's attacker-facing modules the remaining noise is small enough
//! to waive explicitly, and every waiver is counted and must carry a
//! written reason. Golden fixtures under `tests/fixtures/` pin each rule's
//! behavior (bad twin must flag, clean twin must pass).

use crate::tokenizer::{lex, FileLex, Token, TokenKind};

/// The rules the guard enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// No `.unwrap()` / `.expect()` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` outside `#[cfg(test)]`.
    Panic,
    /// No bare slice/array indexing `expr[…]` (use `get`/`get_mut`).
    Index,
    /// No unguarded `-` / `*` / `-=` / `*=` on length/offset-named
    /// operands (use `checked_`/`saturating_`/`wrapping_` or clamp on the
    /// same line).
    Arith,
    /// `Params`-derived numerics feeding loops/allocations must be clamped
    /// (`.min(…)` / `.clamp(…)` / `bounded(…)`) in the same function.
    Clamp,
    /// An `RwLock` write guard must not live across calls into
    /// ingest/parse/decode/IO-named functions.
    Lock,
}

impl Rule {
    pub const ALL: &'static [Rule] = &[
        Rule::Panic,
        Rule::Index,
        Rule::Arith,
        Rule::Clamp,
        Rule::Lock,
    ];

    /// The name used in reports and in `guard: allow(<name>)` waivers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Index => "index",
            Rule::Arith => "arith",
            Rule::Clamp => "clamp",
            Rule::Lock => "lock",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// One finding. `rule` is the rule name (or `"waiver"` / `"config"` for
/// meta findings, which cannot themselves be waived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

/// An accepted (reason-carrying) waiver, reported for auditability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverRecord {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub reason: String,
}

/// The result of checking one file or a whole tree.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub waivers: Vec<WaiverRecord>,
    pub files_checked: usize,
}

impl Report {
    pub fn merge(&mut self, other: Report) {
        self.violations.extend(other.violations);
        self.waivers.extend(other.waivers);
        self.files_checked += other.files_checked;
    }

    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Identifiers that make a `[` *not* an index expression when they precede
/// it (keyword positions like `let [a, b] = …` patterns, `impl [T]`, …).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// Name fragments that mark an identifier as length/offset-flavored for
/// the arith rule.
const LENGTH_SEGMENTS: &[&str] = &[
    "len",
    "length",
    "pos",
    "offset",
    "idx",
    "index",
    "end",
    "start",
    "remaining",
    "keep",
    "take",
    "cap",
    "capacity",
    "count",
    "size",
    "budget",
    "cursor",
    "depth",
    "width",
];

/// Call-name fragments that the lock rule treats as attacker-paced work
/// (parsing, ingestion, replay) or blocking IO.
const LOCK_HAZARDS: &[&str] = &["ingest", "parse", "decode", "replay"];
const LOCK_HAZARDS_EXACT: &[&str] = &[
    "flush",
    "write_all",
    "read_to_end",
    "recv",
    "sync_all",
    "sync_file",
    "sync_dir",
];

/// Statement-level escapes for the arith rule: a flagged operator whose
/// source line shows one of these is considered guarded.
const ARITH_GUARDS: &[&str] = &[
    "saturating_",
    "checked_",
    "wrapping_",
    "overflowing_",
    ".min(",
    ".max(",
    ".clamp(",
];

/// Checks one file's source against a set of rules. `file` is the label
/// used in findings (a repo-relative path in tree mode).
pub fn check_source(file: &str, source: &str, rules: &[Rule]) -> Report {
    let lexed = lex(source);
    let skipped = cfg_test_mask(&lexed.tokens);
    let lines: Vec<&str> = source.lines().collect();
    let mut raw: Vec<Violation> = Vec::new();

    for rule in rules {
        match rule {
            Rule::Panic => panic_rule(file, &lexed, &skipped, &mut raw),
            Rule::Index => index_rule(file, &lexed, &skipped, &mut raw),
            Rule::Arith => arith_rule(file, &lexed, &skipped, &lines, &mut raw),
            Rule::Clamp => clamp_rule(file, &lexed, &skipped, &mut raw),
            Rule::Lock => lock_rule(file, &lexed, &skipped, &mut raw),
        }
    }

    // Waiver pass: a violation is suppressed by a same-line waiver naming
    // its rule *and* carrying a reason. Waivers with no reason or an
    // unknown rule are findings themselves (not suppressible).
    let mut report = Report {
        files_checked: 1,
        ..Report::default()
    };
    for waiver in &lexed.waivers {
        if Rule::from_name(&waiver.rule).is_none() {
            report.violations.push(Violation {
                file: file.to_string(),
                line: waiver.comment_line,
                rule: "waiver",
                message: format!(
                    "waiver names unknown rule {:?} (known: panic, index, arith, clamp, lock)",
                    waiver.rule
                ),
            });
        } else if waiver.reason.is_empty() {
            report.violations.push(Violation {
                file: file.to_string(),
                line: waiver.comment_line,
                rule: "waiver",
                message: format!(
                    "waiver for rule `{}` has no reason — write `// guard: allow({}) — <why>`",
                    waiver.rule, waiver.rule
                ),
            });
        } else {
            report.waivers.push(WaiverRecord {
                file: file.to_string(),
                line: waiver.applies_to,
                rule: waiver.rule.clone(),
                reason: waiver.reason.clone(),
            });
        }
    }
    for violation in raw {
        let waived = report
            .waivers
            .iter()
            .any(|w| w.line == violation.line && w.rule == violation.rule);
        if !waived {
            report.violations.push(violation);
        }
    }
    report.violations.sort_by_key(|v| v.line);
    report
}

/// Marks every token inside an item annotated `#[cfg(test)]` (test modules
/// are not attacker-facing — panics there are assertions, not crashes).
fn cfg_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut skipped = vec![false; tokens.len()];
    let text = |i: usize| tokens.get(i).map(|t| t.text.as_str());
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip from the attribute through the end of the item it gates:
        // forward to the first `{`, then to its matching `}`. A `;` first
        // (e.g. `#[cfg(test)] mod tests;`) ends the item immediately.
        let start = i;
        let mut j = i + 7;
        while j < tokens.len() && text(j) != Some("{") && text(j) != Some(";") {
            j += 1;
        }
        if text(j) == Some("{") {
            let mut depth = 0i32;
            while j < tokens.len() {
                match text(j) {
                    Some("{") => depth += 1,
                    Some("}") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        for flag in skipped
            .iter_mut()
            .take((j + 1).min(tokens.len()))
            .skip(start)
        {
            *flag = true;
        }
        i = j + 1;
    }
    skipped
}

fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

fn panic_rule(file: &str, lexed: &FileLex, skipped: &[bool], out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if skipped[i] || tokens[i].kind != TokenKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
        let next = tokens.get(i + 1).map(|t| t.text.as_str());
        if (name == "unwrap" || name == "expect") && prev == Some(".") && next == Some("(") {
            out.push(Violation {
                file: file.to_string(),
                line: tokens[i].line,
                rule: Rule::Panic.name(),
                message: format!(
                    "`.{name}()` can panic on attacker-controlled input — return an error instead"
                ),
            });
        }
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented") && next == Some("!") {
            out.push(Violation {
                file: file.to_string(),
                line: tokens[i].line,
                rule: Rule::Panic.name(),
                message: format!("`{name}!` aborts the worker — return an error instead"),
            });
        }
    }
}

fn index_rule(file: &str, lexed: &FileLex, skipped: &[bool], out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for i in 1..tokens.len() {
        if skipped[i] || tokens[i].text != "[" {
            continue;
        }
        let prev = &tokens[i - 1];
        let is_index = match prev.kind {
            TokenKind::Ident => !is_keyword(&prev.text),
            TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]" | "?"),
            _ => false,
        };
        if is_index {
            let subject = match prev.kind {
                TokenKind::Ident => format!("`{}[…]`", prev.text),
                _ => "`…[…]`".to_string(),
            };
            out.push(Violation {
                file: file.to_string(),
                line: tokens[i].line,
                rule: Rule::Index.name(),
                message: format!("bare indexing {subject} can panic out of bounds — use `.get(…)`"),
            });
        }
    }
}

/// Splits a lowered identifier on `_` and checks the arith name flavor.
fn is_length_flavored(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower
        .split('_')
        .any(|segment| LENGTH_SEGMENTS.contains(&segment))
        || lower.contains("len")
        || lower.contains("offset")
        || lower.contains("pos")
        || lower.contains("idx")
}

/// The nearest identifier looking backwards from `i` (exclusive), hopping
/// over call/index punctuation — finds `len` in `self.buffer.len() - keep`.
fn operand_ident_back(tokens: &[Token], i: usize) -> Option<&str> {
    let mut j = i;
    let mut hops = 0;
    while j > 0 && hops < 4 {
        j -= 1;
        hops += 1;
        match tokens[j].kind {
            TokenKind::Ident if !is_keyword(&tokens[j].text) => return Some(&tokens[j].text),
            TokenKind::Punct if matches!(tokens[j].text.as_str(), ")" | "]" | "(" | "." | "?") => {}
            _ => return None,
        }
    }
    None
}

/// The nearest identifier looking forwards from `i` (exclusive).
fn operand_ident_fwd(tokens: &[Token], i: usize) -> Option<&str> {
    let mut j = i;
    let mut hops = 0;
    while j + 1 < tokens.len() && hops < 4 {
        j += 1;
        hops += 1;
        match tokens[j].kind {
            TokenKind::Ident if tokens[j].text == "self" => {}
            TokenKind::Ident if !is_keyword(&tokens[j].text) => return Some(&tokens[j].text),
            TokenKind::Punct if matches!(tokens[j].text.as_str(), "(" | "&" | ".") => {}
            _ => return None,
        }
    }
    None
}

fn arith_rule(
    file: &str,
    lexed: &FileLex,
    skipped: &[bool],
    lines: &[&str],
    out: &mut Vec<Violation>,
) {
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if skipped[i] {
            continue;
        }
        let op = tokens[i].text.as_str();
        let flagged_names: Vec<&str> = match op {
            "-" | "*" => {
                let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
                    continue;
                };
                let binary_left = match prev.kind {
                    TokenKind::Ident => !is_keyword(&prev.text),
                    TokenKind::Number => true,
                    TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
                    _ => false,
                };
                let binary_right = tokens.get(i + 1).is_some_and(|next| match next.kind {
                    TokenKind::Ident => !is_keyword(&next.text),
                    TokenKind::Number => true,
                    TokenKind::Punct => next.text == "(",
                    _ => false,
                });
                if !(binary_left && binary_right) {
                    continue;
                }
                operand_ident_back(tokens, i)
                    .into_iter()
                    .chain(operand_ident_fwd(tokens, i))
                    .collect()
            }
            "-=" | "*=" => operand_ident_back(tokens, i)
                .into_iter()
                .chain(operand_ident_fwd(tokens, i))
                .collect(),
            _ => continue,
        };
        let Some(name) = flagged_names.iter().find(|n| is_length_flavored(n)) else {
            continue;
        };
        let line_no = tokens[i].line;
        let source_line = lines.get(line_no as usize - 1).copied().unwrap_or("");
        if ARITH_GUARDS.iter().any(|g| source_line.contains(g)) {
            continue;
        }
        out.push(Violation {
            file: file.to_string(),
            line: line_no,
            rule: Rule::Arith.name(),
            message: format!(
                "unguarded `{op}` on length/offset operand `{name}` can overflow — use \
                 `checked_`/`saturating_` or clamp on this line"
            ),
        });
    }
}

/// A function body: token index range (exclusive of the outer braces'
/// positions is not needed — ranges include them).
struct FnSpan {
    name: String,
    start: usize,
    end: usize,
}

/// Finds every `fn` item body (heuristic: from `fn`, the first `{` at zero
/// paren/bracket depth opens the body; `;` first means no body).
fn function_spans(tokens: &[Token], skipped: &[bool]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if skipped[i] || tokens[i].text != "fn" || tokens[i].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = tokens
            .get(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut j = i + 1;
        let mut paren = 0i32;
        let body_start = loop {
            let Some(token) = tokens.get(j) else {
                break None;
            };
            match token.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => break Some(j),
                ";" if paren == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut k = start;
        while k < tokens.len() {
            match tokens[k].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        spans.push(FnSpan {
            name,
            start,
            end: k.min(tokens.len().saturating_sub(1)),
        });
        i = start + 1; // nested fns get their own (overlapping) span
    }
    spans
}

/// Walks back from `i` to the start of the enclosing statement.
fn statement_start(tokens: &[Token], i: usize, floor: usize) -> usize {
    let mut j = i;
    while j > floor {
        if matches!(tokens[j - 1].text.as_str(), ";" | "{" | "}") {
            break;
        }
        j -= 1;
    }
    j
}

/// The end (`;` index, or span end) of the statement starting at `s`.
fn statement_end(tokens: &[Token], s: usize, ceil: usize) -> usize {
    let mut j = s;
    while j < ceil {
        if tokens[j].text == ";" {
            return j;
        }
        j += 1;
    }
    ceil
}

/// The binding name of a `let` statement starting at `s`, if any: the
/// first identifier after `let` that isn't `mut`/pattern scaffolding.
fn let_binding_name(tokens: &[Token], s: usize, end: usize) -> Option<String> {
    let mut saw_let = false;
    for token in tokens.iter().take(end).skip(s) {
        if token.text == "=" {
            return None; // hit the initializer without a name
        }
        if !saw_let {
            if token.text == "let" {
                saw_let = true;
            }
            continue;
        }
        if token.kind == TokenKind::Ident
            && !matches!(token.text.as_str(), "mut" | "Some" | "Ok" | "ref")
        {
            return Some(token.text.clone());
        }
    }
    None
}

fn clamp_rule(file: &str, lexed: &FileLex, skipped: &[bool], out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    for span in function_spans(tokens, skipped) {
        // 1. Params-derived local bindings in this function.
        let mut derived: Vec<(String, usize, usize)> = Vec::new(); // (name, stmt_start, stmt_end)
        for i in span.start..span.end {
            if skipped[i] {
                continue;
            }
            let receiver_is_params = tokens[i].kind == TokenKind::Ident
                && tokens[i].text.to_ascii_lowercase().ends_with("params");
            if !receiver_is_params
                || tokens.get(i + 1).map(|t| t.text.as_str()) != Some(".")
                || !tokens.get(i + 2).is_some_and(|t| {
                    matches!(t.text.as_str(), "parse" | "parse_list" | "get" | "take")
                })
            {
                continue;
            }
            let s = statement_start(tokens, i, span.start);
            let e = statement_end(tokens, s, span.end);
            if let Some(name) = let_binding_name(tokens, s, e) {
                derived.push((name, s, e));
            }
        }
        // 2. Clamped if the binding statement clamps, or the name is later
        //    fed through `.min(` / `.clamp(` / a `bounded(`-style call.
        let clamped = |name: &str, stmt: (usize, usize)| -> bool {
            let stmt_clamps = tokens[stmt.0..stmt.1].iter().any(|t| {
                t.kind == TokenKind::Ident && matches!(t.text.as_str(), "min" | "clamp" | "bounded")
            });
            if stmt_clamps {
                return true;
            }
            (span.start..span.end).any(|i| {
                !skipped[i]
                    && tokens[i].text == name
                    && tokens.get(i + 1).map(|t| t.text.as_str()) == Some(".")
                    && tokens
                        .get(i + 2)
                        .is_some_and(|t| matches!(t.text.as_str(), "min" | "clamp"))
            })
        };
        // 3. Sinks: ranges (`..name`, `..=name`), `with_capacity(name…`,
        //    `vec![…; name]`.
        for (name, s, e) in &derived {
            if clamped(name, (*s, *e)) {
                continue;
            }
            for i in span.start..span.end {
                if skipped[i] || tokens[i].text != *name || tokens[i].kind != TokenKind::Ident {
                    continue;
                }
                if i >= *s && i < *e {
                    continue; // its own binding statement is not a sink
                }
                let prev = i.checked_sub(1).map(|p| tokens[p].text.as_str());
                let is_range_end = matches!(prev, Some("..") | Some("..="));
                let is_capacity =
                    prev == Some("(") && i >= 2 && tokens[i - 2].text == "with_capacity";
                let is_vec_len = prev == Some(";") && {
                    let mut j = i;
                    let mut found = false;
                    while j > span.start {
                        j -= 1;
                        if tokens[j].text == "[" {
                            found = j > 0 && tokens[j - 1].text == "!";
                            break;
                        }
                        if tokens[j].text == "]" || tokens[j].text == "{" {
                            break;
                        }
                    }
                    found
                };
                if is_range_end || is_capacity || is_vec_len {
                    out.push(Violation {
                        file: file.to_string(),
                        line: tokens[i].line,
                        rule: Rule::Clamp.name(),
                        message: format!(
                            "HTTP-reachable parameter `{name}` feeds a loop/allocation in \
                             `{}` without a `.min(…)`/`.clamp(…)`/`bounded(…)` cap",
                            span.name
                        ),
                    });
                    break; // one finding per binding is enough
                }
            }
        }
    }
}

fn lock_rule(file: &str, lexed: &FileLex, skipped: &[bool], out: &mut Vec<Violation>) {
    let tokens = &lexed.tokens;
    // Brace depth at each token, for live-range scoping.
    let mut depth = 0i32;
    let depths: Vec<i32> = tokens
        .iter()
        .map(|t| {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                _ => {}
            }
            depth
        })
        .collect();

    for span in function_spans(tokens, skipped) {
        for i in span.start..span.end {
            if skipped[i] {
                continue;
            }
            // `let <guard> = <expr>.write(…)…;`
            if tokens[i].text != "write"
                || tokens[i].kind != TokenKind::Ident
                || i == 0
                || tokens[i - 1].text != "."
                || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            {
                continue;
            }
            let s = statement_start(tokens, i, span.start);
            let e = statement_end(tokens, s, span.end);
            let Some(guard_name) = let_binding_name(tokens, s, e) else {
                continue;
            };
            let binding_depth = depths.get(e).copied().unwrap_or(0);
            // Live range: from the end of the binding statement until the
            // enclosing block closes or `drop(<guard>)`.
            let mut j = e;
            while j + 1 < span.end {
                j += 1;
                if depths[j] < binding_depth {
                    break;
                }
                if tokens[j].text == "drop"
                    && tokens.get(j + 1).map(|t| t.text.as_str()) == Some("(")
                    && tokens.get(j + 2).map(|t| t.text.as_str()) == Some(guard_name.as_str())
                {
                    break;
                }
                let is_call = tokens[j].kind == TokenKind::Ident
                    && tokens.get(j + 1).map(|t| t.text.as_str()) == Some("(");
                if !is_call || skipped[j] {
                    continue;
                }
                let callee = tokens[j].text.to_ascii_lowercase();
                let hazardous = LOCK_HAZARDS.iter().any(|h| callee.contains(h))
                    || LOCK_HAZARDS_EXACT.contains(&callee.as_str());
                if hazardous {
                    out.push(Violation {
                        file: file.to_string(),
                        line: tokens[j].line,
                        rule: Rule::Lock.name(),
                        message: format!(
                            "write guard `{guard_name}` (taken line {}) is live across \
                             `{}()` — attacker-paced work under an exclusive lock stalls \
                             every reader",
                            tokens[i].line, tokens[j].text
                        ),
                    });
                    break; // one finding per guard
                }
            }
        }
    }
}
