//! Push-based, bounded streaming ingestion of NVD XML feeds.
//!
//! [`FeedIngester`] accepts body bytes **as they arrive** (from a chunked
//! HTTP request, a file read loop, …) and never buffers the whole feed: it
//! carves complete `<entry>…</entry>` elements out of the byte stream,
//! hands each one to [`nvd_feed::FeedReader::read_entry_str`] (which
//! normalizes product names exactly like the batch reader), inserts the
//! parsed entry into a [`VulnStore`] (merging duplicate CVEs), and drops
//! the consumed bytes. The transient buffer is bounded by the size of one
//! entry ([`IngestBudget::max_entry_bytes`]); the whole ingestion is
//! bounded by [`IngestBudget::max_bytes`] and [`IngestBudget::max_entries`].
//!
//! [`finish`](FeedIngester::finish) classifies still-unlabelled rows with
//! the default rule engine (the automated stand-in for the paper's manual
//! Section III-B step, mirroring the `feed_pipeline` example) and returns
//! the [`StudyDataset`] ready to wrap in a [`Study`].
//!
//! Every entry is parsed and inserted inline, on the calling thread, by
//! the [`push`](FeedIngester::push) that completes it. A malformed entry
//! therefore fails exactly that push, the first error in feed order is
//! the one reported, and rows are inserted in feed order (which fixes row
//! ids and duplicate-merge semantics). An ingestion runs on the calling
//! thread and spawns none; uploads run in parallel only as the caller's
//! threads do (the server gives each one its own worker).
//!
//! Known limitation: entry boundaries are recognized textually (with
//! quote-aware tag scanning), so a literal `</entry>` *inside a CDATA
//! section* would split an entry early — the fragment then fails to parse
//! and is counted as skipped, never mis-attributed. NVD feeds escape
//! character data and do not hit this.

use std::fmt;
use std::time::Instant;

use classify::Classifier;
use nvd_feed::{FeedError, FeedReader};
use osdiv_core::obs::{self, SpanKind};
use osdiv_core::{Study, StudyDataset};
use vulnstore::VulnStore;

/// Bounds on one streaming ingestion.
#[derive(Debug, Clone)]
pub struct IngestBudget {
    /// Total feed bytes accepted before the ingestion is aborted.
    pub max_bytes: usize,
    /// Entry elements processed (parsed *or* skipped) before aborting.
    pub max_entries: usize,
    /// Size of a single `<entry>` element — the transient buffer bound.
    pub max_entry_bytes: usize,
}

impl Default for IngestBudget {
    fn default() -> Self {
        IngestBudget {
            max_bytes: 64 * 1024 * 1024,
            max_entries: 100_000,
            max_entry_bytes: 1024 * 1024,
        }
    }
}

/// Why an ingestion was aborted; [`http_status`](IngestError::http_status)
/// maps each cause to the status the serving layer answers.
#[derive(Debug)]
pub enum IngestError {
    /// Malformed XML or (strict-mode) invalid entry fields.
    Feed(FeedError),
    /// The feed exceeded [`IngestBudget::max_bytes`].
    BodyTooLarge {
        /// The configured byte budget.
        limit: usize,
    },
    /// The feed exceeded [`IngestBudget::max_entries`].
    TooManyEntries {
        /// The configured entry budget.
        limit: usize,
    },
    /// A single entry exceeded [`IngestBudget::max_entry_bytes`].
    EntryTooLarge {
        /// The configured per-entry bound.
        limit: usize,
    },
    /// The feed ended in the middle of an entry element.
    Truncated,
    /// The feed contained no entry element at all.
    Empty,
}

impl IngestError {
    /// The HTTP status an ingestion endpoint answers for this failure:
    /// budget violations are 413 (Payload Too Large), everything else 400.
    pub fn http_status(&self) -> u16 {
        match self {
            IngestError::BodyTooLarge { .. }
            | IngestError::TooManyEntries { .. }
            | IngestError::EntryTooLarge { .. } => 413,
            IngestError::Feed(_) | IngestError::Truncated | IngestError::Empty => 400,
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Feed(error) => write!(f, "feed error: {error}"),
            IngestError::BodyTooLarge { limit } => {
                write!(f, "feed exceeds the {limit} byte ingestion budget")
            }
            IngestError::TooManyEntries { limit } => {
                write!(f, "feed exceeds the {limit} entry ingestion budget")
            }
            IngestError::EntryTooLarge { limit } => {
                write!(f, "a single entry exceeds {limit} bytes")
            }
            IngestError::Truncated => f.write_str("feed ended inside an <entry> element"),
            IngestError::Empty => f.write_str("feed contains no <entry> element"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Feed(error) => Some(error),
            _ => None,
        }
    }
}

impl From<FeedError> for IngestError {
    fn from(error: FeedError) -> Self {
        IngestError::Feed(error)
    }
}

/// Where one ingestion's wall-clock time went, in microseconds —
/// recorded per stage so a slow `PUT` can be attributed to boundary
/// carving, XML parsing or store insertion (exposed as the
/// `osdiv_stage_duration_seconds{stage="ingest_*"}` histograms).
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStageMicros {
    /// Carving `<entry>` boundaries out of the byte stream (everything in
    /// `push` not attributed to the other two stages).
    pub carve_us: u64,
    /// Parsing carved fragments.
    pub parse_us: u64,
    /// Inserting parsed entries into the store, in feed order.
    pub insert_us: u64,
}

/// What a completed ingestion produced.
#[derive(Debug)]
pub struct IngestOutcome {
    /// The loaded dataset (duplicates merged, unlabelled rows classified).
    pub dataset: StudyDataset,
    /// Distinct vulnerabilities loaded (republished duplicate entries
    /// merge into one row; see [`IngestOutcome::parsed`] for the raw
    /// element count).
    pub entries: usize,
    /// Entry elements successfully parsed, duplicates included.
    pub parsed: usize,
    /// Entry elements skipped as malformed by the lenient reader.
    pub skipped: usize,
    /// Feed bytes consumed.
    pub feed_bytes: usize,
    /// Per-stage wall-clock attribution of the ingestion.
    pub stages: IngestStageMicros,
}

impl IngestOutcome {
    /// Wraps the dataset in a fresh [`Study`] session.
    pub fn into_study(self) -> Study {
        Study::new(self.dataset)
    }
}

/// Where the boundary scanner is inside the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanState {
    /// Looking for the next `<entry` open tag.
    Scanning,
    /// Buffering one entry element (the buffer starts at its `<entry`),
    /// with the scanner's resume point so a large entry arriving in many
    /// small chunks is examined once, not re-scanned from byte 0 per
    /// chunk (which would be quadratic in the number of reads).
    InEntry(EntryScan),
}

/// Incremental progress through one buffered entry element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct EntryScan {
    /// Position of the start tag's `>`, once seen.
    tag_end: Option<usize>,
    /// First unexamined byte of the current phase (start-tag walk, then
    /// close-tag search).
    resume: usize,
    /// Open quote inside the start tag, carried across chunk boundaries.
    quote: Option<u8>,
}

/// The push-based streaming feed ingester (see the module docs).
///
/// # Example
///
/// ```
/// use osdiv_registry::{FeedIngester, IngestBudget};
///
/// let xml = r#"<nvd><entry id="CVE-2008-1447">
///   <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
///   <vuln:summary>DNS cache poisoning</vuln:summary>
/// </entry></nvd>"#;
///
/// let mut ingester = FeedIngester::new(IngestBudget::default());
/// // Feed arbitrary byte chunks — here: 7 bytes at a time.
/// for chunk in xml.as_bytes().chunks(7) {
///     ingester.push(chunk).unwrap();
/// }
/// let outcome = ingester.finish().unwrap();
/// assert_eq!(outcome.entries, 1);
/// assert_eq!(outcome.dataset.valid_count(), 1);
/// ```
#[derive(Debug)]
pub struct FeedIngester {
    budget: IngestBudget,
    reader: FeedReader,
    store: VulnStore,
    buffer: Vec<u8>,
    state: ScanState,
    feed_bytes: usize,
    /// Entry elements processed, parsed or skipped (the budget unit).
    seen: usize,
    /// Entries inserted into the store.
    inserted: usize,
    /// Entry elements the lenient reader dropped as malformed.
    skipped: usize,
    /// Bytes examined by the boundary scanner — a work counter for the
    /// complexity-guard tests. Scanning must stay linear in feed size no
    /// matter how finely the network slices the stream.
    scan_work: u64,
    /// Wall-clock µs spent inside `push` overall; carve time is this
    /// minus the parse and insert attributions below.
    push_us: u64,
    /// Wall-clock µs spent parsing fragments.
    parse_us: u64,
    /// Wall-clock µs spent inserting parsed entries into the store.
    insert_us: u64,
    /// Flight-recorder clock at construction — the base the aggregate
    /// carve/parse/insert spans are laid out from at `finish`.
    started_us: u64,
}

/// Microseconds elapsed since `started`, saturating.
fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl FeedIngester {
    /// An empty ingester with the given budget and a lenient reader.
    pub fn new(budget: IngestBudget) -> Self {
        FeedIngester {
            budget,
            reader: FeedReader::new(),
            store: VulnStore::new(),
            buffer: Vec::new(),
            state: ScanState::Scanning,
            feed_bytes: 0,
            seen: 0,
            inserted: 0,
            skipped: 0,
            scan_work: 0,
            push_us: 0,
            parse_us: 0,
            insert_us: 0,
            started_us: obs::monotonic_us(),
        }
    }

    /// The same as [`FeedIngester::new`]: `workers` is ignored, because
    /// every ingestion parses inline.
    #[doc(hidden)]
    pub fn with_workers(budget: IngestBudget, _workers: usize) -> Self {
        Self::new(budget)
    }

    /// Bytes examined by the entry-boundary scanner so far. Linear in
    /// [`feed_bytes`](FeedIngester::feed_bytes) by construction; the
    /// complexity-guard tests pin that property.
    pub fn scan_work(&self) -> u64 {
        self.scan_work
    }

    /// Feed bytes consumed so far.
    pub fn feed_bytes(&self) -> usize {
        self.feed_bytes
    }

    /// Bytes currently buffered — bounded by one entry element, never the
    /// whole feed.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Pushes the next chunk of feed bytes, parsing and inserting every
    /// entry element it completes.
    ///
    /// # Errors
    ///
    /// Budget violations ([`IngestError::BodyTooLarge`],
    /// [`IngestError::TooManyEntries`], [`IngestError::EntryTooLarge`]) and
    /// malformed-XML [`IngestError::Feed`] errors abort the ingestion; the
    /// ingester must be discarded afterwards. A malformed entry fails the
    /// push that completes it.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), IngestError> {
        let started = Instant::now();
        let pushed = self.push_chunk(chunk);
        self.push_us += micros_since(started);
        pushed
    }

    /// The body of [`push`](FeedIngester::push), wrapped so the public
    /// entry point can attribute its wall-clock time to the carve stage.
    fn push_chunk(&mut self, chunk: &[u8]) -> Result<(), IngestError> {
        self.feed_bytes += chunk.len();
        if self.feed_bytes > self.budget.max_bytes {
            return Err(IngestError::BodyTooLarge {
                limit: self.budget.max_bytes,
            });
        }
        self.buffer.extend_from_slice(chunk);
        self.scan()
    }

    /// Where this ingestion's wall-clock time has gone so far. Carve time
    /// is everything inside `push` not spent parsing or inserting, so the
    /// three stages sum to the total ingest time.
    pub fn stage_micros(&self) -> IngestStageMicros {
        IngestStageMicros {
            carve_us: self.push_us.saturating_sub(self.parse_us + self.insert_us),
            parse_us: self.parse_us,
            insert_us: self.insert_us,
        }
    }

    /// Processes every complete entry element currently buffered.
    fn scan(&mut self) -> Result<(), IngestError> {
        loop {
            match self.state {
                ScanState::Scanning => match find_entry_open(&self.buffer, &mut self.scan_work) {
                    EntryOpen::At(offset) => {
                        self.buffer.drain(..offset);
                        self.state = ScanState::InEntry(EntryScan::default());
                    }
                    EntryOpen::Partial(offset) => {
                        self.buffer.drain(..offset);
                        return Ok(());
                    }
                    EntryOpen::None => {
                        // Keep only a tail that could still become `<entry`.
                        let keep = self.buffer.len().min(b"<entry".len() - 1);
                        self.buffer.drain(..self.buffer.len().saturating_sub(keep));
                        return Ok(());
                    }
                },
                ScanState::InEntry(mut entry_scan) => {
                    let end = find_entry_end(&self.buffer, &mut entry_scan, &mut self.scan_work);
                    self.state = ScanState::InEntry(entry_scan);
                    let Some(end) = end else {
                        if self.buffer.len() > self.budget.max_entry_bytes {
                            return Err(IngestError::EntryTooLarge {
                                limit: self.budget.max_entry_bytes,
                            });
                        }
                        return Ok(());
                    };
                    if end > self.budget.max_entry_bytes {
                        return Err(IngestError::EntryTooLarge {
                            limit: self.budget.max_entry_bytes,
                        });
                    }
                    self.process_fragment(end)?;
                    self.buffer.drain(..end);
                    self.state = ScanState::Scanning;
                }
            }
        }
    }

    /// Parses `self.buffer[..end]` as one entry element and inserts it
    /// into the store (or counts it skipped, when the lenient reader drops
    /// it).
    fn process_fragment(&mut self, end: usize) -> Result<(), IngestError> {
        if self.seen >= self.budget.max_entries {
            return Err(IngestError::TooManyEntries {
                limit: self.budget.max_entries,
            });
        }
        let Ok(fragment) = std::str::from_utf8(self.buffer.get(..end).unwrap_or_default()) else {
            return Err(IngestError::Feed(FeedError::schema(
                None,
                "entry is not valid UTF-8",
            )));
        };
        self.seen += 1;
        let parse_started = Instant::now();
        let parsed = self.reader.read_entry_str(fragment);
        self.parse_us += micros_since(parse_started);
        let Some(entry) = parsed? else {
            self.skipped += 1;
            return Ok(());
        };
        let insert_started = Instant::now();
        self.store.insert_entry(&entry);
        self.inserted += 1;
        self.insert_us += micros_since(insert_started);
        Ok(())
    }

    /// Finishes the ingestion: fails on a truncated or an empty feed,
    /// classifies unlabelled rows, and returns the loaded dataset.
    pub fn finish(self) -> Result<IngestOutcome, IngestError> {
        if matches!(self.state, ScanState::InEntry(_)) {
            return Err(IngestError::Truncated);
        }
        if self.seen == 0 {
            return Err(IngestError::Empty);
        }
        let stages = self.stage_micros();
        // Three aggregate flight-recorder spans, laid out sequentially
        // from the ingestion's start so a trace shows where the time went
        // without flooding the ring with per-entry records. The stages
        // really interleave entry by entry; each span carries its stage's
        // total. `finish` runs on the request's thread, so these nest
        // under the request span when a trace scope is active.
        let carve_end = self.started_us + stages.carve_us;
        let parse_end = carve_end + stages.parse_us;
        obs::record_span(SpanKind::IngestCarve, "", self.started_us, stages.carve_us);
        obs::record_span(SpanKind::IngestParse, "", carve_end, stages.parse_us);
        obs::record_span(SpanKind::IngestInsert, "", parse_end, stages.insert_us);
        let entries = self.store.vulnerability_count();
        let mut dataset = StudyDataset::from_store(self.store);
        dataset.classify_unlabelled(&Classifier::with_default_rules());
        Ok(IngestOutcome {
            dataset,
            entries,
            parsed: self.inserted,
            skipped: self.skipped,
            feed_bytes: self.feed_bytes,
            stages,
        })
    }
}

/// The outcome of scanning for an `<entry` open tag.
enum EntryOpen {
    /// A confirmed `<entry` (followed by a tag delimiter) starts here.
    At(usize),
    /// `<entry` starts here but its next byte has not arrived yet.
    Partial(usize),
    /// No candidate in the buffer.
    None,
}

/// Finds the next `<entry` open tag — as an element named exactly `entry`,
/// not a longer name like `<entryset`.
fn find_entry_open(buffer: &[u8], work: &mut u64) -> EntryOpen {
    const OPEN: &[u8] = b"<entry";
    let mut from = 0;
    while let Some(position) = find(buffer.get(from..).unwrap_or_default(), OPEN) {
        let at = from + position;
        *work += (position + OPEN.len()) as u64;
        match buffer.get(at + OPEN.len()) {
            None => return EntryOpen::Partial(at),
            Some(b' ' | b'\t' | b'\r' | b'\n' | b'>' | b'/') => return EntryOpen::At(at),
            Some(_) => from = at + OPEN.len(),
        }
    }
    *work += buffer.len().saturating_sub(from) as u64;
    EntryOpen::None
}

/// Given a buffer starting at `<entry`, returns the exclusive end offset of
/// the complete element (`<entry …/>` or `<entry …>…</entry>`), or `None`
/// while it is still incomplete. `scan` carries the walk's progress across
/// calls: bytes already examined on an earlier chunk are never re-scanned,
/// keeping the per-entry cost linear no matter how finely the network
/// slices the stream.
fn find_entry_end(buffer: &[u8], scan: &mut EntryScan, work: &mut u64) -> Option<usize> {
    const CLOSE: &[u8] = b"</entry";
    // Phase 1: end of the start tag, honouring quoted attribute values
    // (a `>` is legal inside them).
    if scan.tag_end.is_none() {
        let mut found = None;
        for (i, &byte) in buffer.iter().enumerate().skip(scan.resume) {
            *work += 1;
            match scan.quote {
                Some(q) if byte == q => scan.quote = None,
                Some(_) => {}
                None => match byte {
                    b'"' | b'\'' => scan.quote = Some(byte),
                    b'>' => {
                        found = Some(i);
                        break;
                    }
                    _ => {}
                },
            }
        }
        let Some(tag_end) = found else {
            scan.resume = buffer.len();
            return None;
        };
        if tag_end.checked_sub(1).and_then(|i| buffer.get(i)) == Some(&b'/') {
            return Some(tag_end + 1); // self-closing
        }
        scan.tag_end = Some(tag_end);
        scan.resume = tag_end + 1;
    }
    // Phase 2: the matching `</entry>` close tag (entries do not nest in
    // NVD feeds).
    let mut from = scan.resume;
    while let Some(position) = find(buffer.get(from..).unwrap_or_default(), CLOSE) {
        let at = from + position;
        *work += (position + CLOSE.len()) as u64;
        // Skip whitespace between the name and `>`.
        let mut i = at + CLOSE.len();
        while matches!(buffer.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            i += 1;
            *work += 1;
        }
        match buffer.get(i) {
            None => {
                // `</entry` seen, `>` not yet arrived: resume at the
                // candidate so the whitespace run is re-checked once the
                // next chunk lands.
                scan.resume = at;
                return None;
            }
            Some(b'>') => return Some(i + 1),
            Some(_) => from = at + CLOSE.len(), // e.g. `</entryset>`
        }
    }
    // No candidate: keep a tail that could still become `</entry`.
    *work += buffer.len().saturating_sub(from) as u64;
    scan.resume = scan
        .resume
        .max(buffer.len().saturating_sub(CLOSE.len() - 1));
    None
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvd_feed::FeedWriter;
    use nvd_model::{CveId, OsDistribution, VulnerabilityEntry};

    fn feed(entries: usize) -> String {
        let entries: Vec<_> = (0..entries)
            .map(|i| {
                VulnerabilityEntry::builder(CveId::new(2000 + (i % 10) as u16, 1 + i as u32))
                    .summary(format!("Buffer overflow number {i} in the TCP/IP stack"))
                    .affects_os(if i % 2 == 0 {
                        OsDistribution::Debian
                    } else {
                        OsDistribution::OpenBsd
                    })
                    .build()
                    .unwrap()
            })
            .collect();
        FeedWriter::new().write_to_string(&entries).unwrap()
    }

    #[test]
    fn chunked_pushes_match_oneshot_ingestion_at_any_granularity() {
        let xml = feed(25);
        let oneshot = {
            let mut ingester = FeedIngester::new(IngestBudget::default());
            ingester.push(xml.as_bytes()).unwrap();
            ingester.finish().unwrap()
        };
        assert_eq!(oneshot.entries, 25);
        for chunk in [1usize, 3, 7, 64, 1024] {
            let mut ingester = FeedIngester::new(IngestBudget::default());
            for piece in xml.as_bytes().chunks(chunk) {
                ingester.push(piece).unwrap();
            }
            let outcome = ingester.finish().unwrap();
            assert_eq!(outcome.entries, 25, "chunk size {chunk}");
            assert_eq!(outcome.skipped, 0);
            assert_eq!(
                outcome.dataset.valid_count(),
                oneshot.dataset.valid_count(),
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn the_buffer_stays_bounded_by_one_entry() {
        let xml = feed(200);
        let mut ingester = FeedIngester::new(IngestBudget::default());
        let mut peak = 0;
        for piece in xml.as_bytes().chunks(512) {
            ingester.push(piece).unwrap();
            peak = peak.max(ingester.buffered());
        }
        // The feed is tens of KB; the transient buffer must stay near one
        // entry (well under 4 KiB here), proving nothing accumulates.
        assert!(xml.len() > 16 * 1024);
        assert!(peak < 4 * 1024, "peak buffered bytes: {peak}");
        assert_eq!(ingester.finish().unwrap().entries, 200);
    }

    #[test]
    fn byte_and_entry_budgets_abort_ingestion() {
        let xml = feed(10);
        let mut ingester = FeedIngester::new(IngestBudget {
            max_bytes: 100,
            ..IngestBudget::default()
        });
        assert!(matches!(
            ingester.push(xml.as_bytes()).unwrap_err(),
            IngestError::BodyTooLarge { limit: 100 }
        ));

        let mut ingester = FeedIngester::new(IngestBudget {
            max_entries: 4,
            ..IngestBudget::default()
        });
        let error = ingester.push(xml.as_bytes()).unwrap_err();
        assert!(matches!(error, IngestError::TooManyEntries { limit: 4 }));
        assert_eq!(error.http_status(), 413);

        let mut ingester = FeedIngester::new(IngestBudget {
            max_entry_bytes: 64,
            ..IngestBudget::default()
        });
        assert!(matches!(
            ingester.push(xml.as_bytes()).unwrap_err(),
            IngestError::EntryTooLarge { limit: 64 }
        ));
    }

    #[test]
    fn truncated_and_empty_feeds_are_errors() {
        let xml = feed(3);
        let cut = xml.len() - 30;
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(&xml.as_bytes()[..cut]).unwrap();
        assert!(matches!(
            ingester.finish().unwrap_err(),
            IngestError::Truncated
        ));
        // Complete entries before the cut do not rescue a torn last one.
        let xml = feed(10);
        let cut = xml.rfind("<entry").unwrap() + 20;
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(&xml.as_bytes()[..cut]).unwrap();
        assert!(matches!(ingester.finish(), Err(IngestError::Truncated)));

        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester
            .push(b"<?xml version=\"1.0\"?><nvd></nvd>")
            .unwrap();
        let error = ingester.finish().unwrap_err();
        assert!(matches!(error, IngestError::Empty));
        assert_eq!(error.http_status(), 400);
    }

    #[test]
    fn duplicate_cves_merge_and_malformed_entries_are_skipped() {
        let xml = r#"<nvd>
          <entry id="CVE-2008-1447">
            <vuln:product>cpe:/o:debian:debian_linux:4.0</vuln:product>
            <vuln:summary>DNS cache poisoning</vuln:summary>
          </entry>
          <entry id="NOT-A-CVE"><vuln:summary>broken</vuln:summary></entry>
          <entry id="CVE-2008-1447">
            <vuln:product>cpe:/o:freebsd:freebsd:6.3</vuln:product>
            <vuln:summary>DNS cache poisoning (republished)</vuln:summary>
          </entry>
        </nvd>"#;
        let mut ingester = FeedIngester::new(IngestBudget::default());
        for piece in xml.as_bytes().chunks(11) {
            ingester.push(piece).unwrap();
        }
        let outcome = ingester.finish().unwrap();
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.parsed, 2, "both valid elements parsed");
        assert_eq!(outcome.entries, 1, "entries counts distinct rows");
        assert_eq!(outcome.dataset.store().vulnerability_count(), 1);
        let row = outcome
            .dataset
            .store()
            .get_by_cve(CveId::new(2008, 1447))
            .unwrap();
        assert_eq!(row.os_set.len(), 2, "republished OS sets are unioned");
    }

    #[test]
    fn malformed_xml_inside_an_entry_is_a_feed_error() {
        let mut ingester = FeedIngester::new(IngestBudget::default());
        let error = ingester
            .push(b"<nvd><entry id=unquoted>x</entry></nvd>")
            .unwrap_err();
        assert!(matches!(error, IngestError::Feed(_)));
        assert_eq!(error.http_status(), 400);
    }

    #[test]
    fn an_earlier_parse_error_beats_a_later_budget_violation() {
        // One malformed entry followed by more entries than the remaining
        // budget: the ingestion reports the parse error (400), never the
        // budget violation (413).
        let mut xml = String::from("<nvd><entry id=unquoted>broken</entry>");
        for i in 0..10 {
            xml.push_str(&format!(
                "<entry id=\"CVE-2007-{}\"><vuln:summary>fine</vuln:summary></entry>",
                i + 1
            ));
        }
        xml.push_str("</nvd>");
        let mut ingester = FeedIngester::new(IngestBudget {
            max_entries: 4,
            ..IngestBudget::default()
        });
        let error = ingester.push(xml.as_bytes()).unwrap_err();
        assert!(
            matches!(error, IngestError::Feed(_)),
            "expected the feed-order-first parse error, got {error}"
        );
    }

    #[test]
    fn a_malformed_entry_fails_exactly_the_push_that_completes_it() {
        const BROKEN: &str = "<entry id=unquoted>x</entry>";
        let valid = feed(6);
        let starts: Vec<usize> = valid.match_indices("<entry ").map(|(at, _)| at).collect();
        assert_eq!(starts.len(), 6);
        for k in [0, 2, 5] {
            // Replace the k-th entry element with a malformed one.
            let start = starts[k];
            let end = start + valid[start..].find("</entry>").unwrap() + "</entry>".len();
            let xml = format!("{}{BROKEN}{}", &valid[..start], &valid[end..]);
            // The byte that completes the broken entry is its final `>`.
            let last = start + BROKEN.len() - 1;
            for chunk in [1usize, 7, 64] {
                let mut ingester = FeedIngester::new(IngestBudget::default());
                let failing = last / chunk;
                for (index, piece) in xml.as_bytes().chunks(chunk).enumerate() {
                    let pushed = ingester.push(piece);
                    if index < failing {
                        assert!(
                            pushed.is_ok(),
                            "entry {k}, chunk {chunk}: push {index} failed"
                        );
                    } else {
                        let error = pushed.expect_err("the completing push fails");
                        assert!(matches!(error, IngestError::Feed(_)), "{error}");
                        break;
                    }
                }
            }
        }
    }
}
