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
//! # Parallel entry parsing
//!
//! The boundary scanner is inherently sequential, but XML parsing — the
//! dominant cost of an ingestion — is not: on a multi-core host the
//! carved `<entry>` strings are fanned out to a small worker pool over a
//! **bounded** [`mpsc`] channel (the carver blocks once `PIPELINE_DEPTH`
//! fragments are in flight, so transient memory stays at "a few entries"
//! even when a caller pushes the whole feed in one chunk) and parsed
//! concurrently, while the scanner keeps carving the next chunk. Results
//! carry their carve sequence number and are re-ordered before
//! insertion — harvested between fragments, not at the end of a push —
//! so the loaded store is **identical** to a sequential ingestion
//! (insertion order determines row ids and duplicate-merge semantics). One consequence of pipelining: a
//! malformed-XML error discovered by a worker may surface on a *later*
//! [`push`](FeedIngester::push) than the chunk that carried the broken
//! entry, or at [`finish`](FeedIngester::finish) — always the error of
//! the **first** broken entry in feed order, deterministically. Budget
//! violations are still detected synchronously at carve time. On a
//! single-core host (or with [`FeedIngester::with_workers`] `== 0`)
//! parsing stays inline and errors surface exactly as before.
//!
//! Known limitation: entry boundaries are recognized textually (with
//! quote-aware tag scanning), so a literal `</entry>` *inside a CDATA
//! section* would split an entry early — the fragment then fails to parse
//! and is counted as skipped, never mis-attributed. NVD feeds escape
//! character data and do not hit this.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use classify::Classifier;
use nvd_feed::{FeedError, FeedReader};
use nvd_model::VulnerabilityEntry;
use osdiv_core::fault;
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
    /// `push`/`finish` not attributed to the other two stages).
    pub carve_us: u64,
    /// Parsing carved fragments: inline parse time, or — pipelined — the
    /// time the coordinator spent blocked on the worker pool.
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

/// One parse result travelling back from the worker pool, tagged with its
/// carve sequence number so insertion can be re-ordered to feed order.
type ParseResult = (u64, Result<Option<VulnerabilityEntry>, FeedError>);

/// How many carved fragments may sit in the job queue before the
/// coordinator blocks. The bound is what keeps a pipelined ingestion's
/// transient memory at "a few entries" instead of "the whole feed": a fast
/// producer (one giant `push`, or 64 KiB file reads) would otherwise
/// outrun the workers and queue every fragment at once.
const PIPELINE_DEPTH: usize = 16;

/// The worker-pool half of a pipelined ingestion (see the module docs).
#[derive(Debug)]
struct ParsePipeline {
    /// Carved fragments travel to the pool over a **bounded** channel
    /// (backpressure, see [`PIPELINE_DEPTH`]); dropping the sender closes
    /// it.
    sender: Option<mpsc::SyncSender<(u64, String)>>,
    results: mpsc::Receiver<ParseResult>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ParsePipeline {
    fn start(workers: usize) -> ParsePipeline {
        let (sender, jobs) = mpsc::sync_channel::<(u64, String)>(PIPELINE_DEPTH);
        let (result_sender, results) = mpsc::channel::<ParseResult>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..workers)
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                let results = result_sender.clone();
                thread::spawn(move || {
                    // A worker-local lenient reader: skip bookkeeping is
                    // done by the coordinator from the `Ok(None)` results.
                    let mut reader = FeedReader::new();
                    loop {
                        let job = match jobs.lock() {
                            Ok(jobs) => jobs.recv(),
                            // A sibling worker panicked holding the lock;
                            // exit rather than propagate the poison.
                            Err(_) => return,
                        };
                        match job {
                            Err(_) => return, // channel closed: ingestion over
                            Ok((seq, fragment)) => {
                                let parsed = reader.read_entry_str(&fragment);
                                if results.send((seq, parsed)).is_err() {
                                    return; // coordinator gone
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        ParsePipeline {
            sender: Some(sender),
            results,
            workers,
        }
    }

    fn submit(&self, seq: u64, fragment: String) {
        // Blocks when PIPELINE_DEPTH jobs are in flight — the workers are
        // always draining, so this is backpressure, not a deadlock (the
        // result channel is never full). A send only fails after every
        // worker exited, which cannot happen while the job channel is
        // open.
        let Some(sender) = self.sender.as_ref() else {
            return; // submit is never called after close
        };
        let _ = sender.send((seq, fragment));
    }

    /// Closes the job channel and collects every outstanding result.
    fn drain(mut self) -> Vec<ParseResult> {
        self.sender = None;
        let mut collected = Vec::new();
        while let Ok(result) = self.results.recv() {
            collected.push(result);
        }
        for worker in self.workers {
            let _ = worker.join();
        }
        collected
    }
}

/// An optional shared depth gauge over the pipelined parse queue: `add`
/// on submit, `sub` on harvest. A struct (not methods on the ingester) so
/// its `Drop` can return this ingester's outstanding contribution when an
/// ingestion is abandoned mid-flight — `FeedIngester` itself cannot
/// implement `Drop` because `finish` moves fields out of it.
#[derive(Debug, Default)]
struct QueueGauge {
    shared: Option<Arc<AtomicU64>>,
    held: u64,
}

impl QueueGauge {
    fn add(&mut self) {
        if let Some(shared) = &self.shared {
            shared.fetch_add(1, Ordering::Relaxed);
            self.held += 1;
        }
    }

    fn sub(&mut self) {
        if self.held > 0 {
            if let Some(shared) = &self.shared {
                shared.fetch_sub(1, Ordering::Relaxed);
            }
            self.held = self.held.saturating_sub(1);
        }
    }
}

impl Drop for QueueGauge {
    fn drop(&mut self) {
        if self.held > 0 {
            if let Some(shared) = &self.shared {
                shared.fetch_sub(self.held, Ordering::Relaxed);
            }
        }
    }
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
    /// The worker pool (`None`: inline parsing).
    pipeline: Option<ParsePipeline>,
    /// Results parsed out of order, waiting for their predecessors.
    pending: BTreeMap<u64, Result<Option<VulnerabilityEntry>, FeedError>>,
    /// The carve sequence number of the next entry to insert.
    next_insert: u64,
    /// The first (in feed order) parse error, once everything before it
    /// was inserted.
    failed: Option<FeedError>,
    /// Bytes examined by the boundary scanner — a work counter for the
    /// complexity-guard tests. Scanning must stay linear in feed size no
    /// matter how finely the network slices the stream.
    scan_work: u64,
    /// Wall-clock µs spent inside `push`/`finish` overall; carve time is
    /// this minus the parse and insert attributions below.
    push_us: u64,
    /// Wall-clock µs spent parsing fragments — inline parse time, or the
    /// coordinator blocked on the worker pool (submit backpressure,
    /// result waits, final drain).
    parse_us: u64,
    /// Wall-clock µs spent settling parsed entries into the store.
    insert_us: u64,
    /// Fragments submitted to the worker pool and not yet harvested,
    /// mirrored into a shared serving gauge when one is attached.
    queue_gauge: QueueGauge,
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
    /// Parsing is pipelined over a small worker pool when the host has
    /// more than one core (see [`FeedIngester::with_workers`]).
    pub fn new(budget: IngestBudget) -> Self {
        let workers = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .saturating_sub(1)
            .min(4);
        Self::with_workers(budget, workers)
    }

    /// An empty ingester parsing on exactly `workers` pool threads
    /// (`0`: inline, strictly sequential parsing).
    pub fn with_workers(budget: IngestBudget, workers: usize) -> Self {
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
            pipeline: (workers > 0).then(|| ParsePipeline::start(workers)),
            pending: BTreeMap::new(),
            next_insert: 0,
            failed: None,
            scan_work: 0,
            push_us: 0,
            parse_us: 0,
            insert_us: 0,
            queue_gauge: QueueGauge::default(),
            started_us: obs::monotonic_us(),
        }
    }

    /// Attaches a shared parse-queue depth gauge (the serving layer's
    /// `osdiv_ingest_queue_depth`): incremented when a fragment is
    /// submitted to the worker pool, decremented when its result is
    /// harvested, and zeroed back out if the ingestion is dropped
    /// mid-flight. Inline (zero-worker) ingestions never touch it.
    pub fn with_queue_gauge(mut self, shared: Arc<AtomicU64>) -> Self {
        self.queue_gauge.shared = Some(shared);
        self
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

    /// Pushes the next chunk of feed bytes, processing every entry element
    /// it completes.
    ///
    /// # Errors
    ///
    /// Budget violations ([`IngestError::BodyTooLarge`],
    /// [`IngestError::TooManyEntries`], [`IngestError::EntryTooLarge`]) and
    /// malformed-XML [`IngestError::Feed`] errors abort the ingestion; the
    /// ingester must be discarded afterwards. With a worker pool, a
    /// malformed-XML error may surface on a later `push` than the chunk
    /// that carried the broken entry, or at
    /// [`finish`](FeedIngester::finish) (see the module docs).
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), IngestError> {
        let started = Instant::now();
        let pushed = self.push_chunk(chunk);
        self.push_us += micros_since(started);
        pushed
    }

    /// The body of [`push`](FeedIngester::push), wrapped so the public
    /// entry point can attribute its wall-clock time to the carve stage.
    fn push_chunk(&mut self, chunk: &[u8]) -> Result<(), IngestError> {
        self.take_failure()?;
        if fault::failpoint("ingest.carve") {
            return Err(IngestError::Feed(FeedError::schema(
                None,
                "injected fault at ingest.carve",
            )));
        }
        self.feed_bytes += chunk.len();
        if self.feed_bytes > self.budget.max_bytes {
            return Err(self.budget_error(IngestError::BodyTooLarge {
                limit: self.budget.max_bytes,
            }));
        }
        self.buffer.extend_from_slice(chunk);
        self.scan()?;
        self.drain_ready()
    }

    /// Where this ingestion's wall-clock time has gone so far. Carve time
    /// is everything inside `push`/`finish` not spent parsing or
    /// inserting, so the three stages sum to the total ingest time.
    pub fn stage_micros(&self) -> IngestStageMicros {
        IngestStageMicros {
            carve_us: self.push_us.saturating_sub(self.parse_us + self.insert_us),
            parse_us: self.parse_us,
            insert_us: self.insert_us,
        }
    }

    /// Pulls every already finished worker result (without blocking) and
    /// settles what arrived in feed order.
    fn drain_ready(&mut self) -> Result<(), IngestError> {
        self.collect_ready();
        self.take_failure()
    }

    /// The non-failing half of [`FeedIngester::drain_ready`]: harvest
    /// finished results and fold the in-order prefix into the store. Also
    /// called after every carved fragment, so parsed entries never pile up
    /// behind a long-running `push`.
    fn collect_ready(&mut self) {
        if let Some(pipeline) = &self.pipeline {
            while let Ok((seq, result)) = pipeline.results.try_recv() {
                self.queue_gauge.sub();
                self.pending.insert(seq, result);
            }
        }
        self.settle_pending();
    }

    /// Inserts pending results whose predecessors have all been applied,
    /// strictly in carve order — the loaded store is identical to a
    /// sequential ingestion.
    fn settle_pending(&mut self) {
        let started = Instant::now();
        while self.failed.is_none() {
            let Some(result) = self.pending.remove(&self.next_insert) else {
                break;
            };
            self.next_insert += 1;
            match result {
                Ok(Some(entry)) => {
                    if fault::failpoint("ingest.insert") {
                        self.failed =
                            Some(FeedError::schema(None, "injected fault at ingest.insert"));
                        continue;
                    }
                    self.store.insert_entry(&entry);
                    self.inserted += 1;
                }
                Ok(None) => self.skipped += 1,
                Err(error) => self.failed = Some(error),
            }
        }
        self.insert_us += micros_since(started);
    }

    /// Surfaces the first-in-feed-order parse failure, once.
    fn take_failure(&mut self) -> Result<(), IngestError> {
        match self.failed.take() {
            Some(error) => Err(IngestError::Feed(error)),
            None => Ok(()),
        }
    }

    /// Blocks until every already submitted fragment has settled (or a
    /// failure surfaced). Called before reporting a budget violation:
    /// everything in flight was carved *earlier* in the feed, so an
    /// in-flight parse error there must win over the budget error —
    /// exactly what a sequential ingestion would have reported.
    fn await_in_flight(&mut self) {
        loop {
            self.settle_pending();
            if self.failed.is_some() || self.next_insert >= self.seen as u64 {
                return;
            }
            let waited = Instant::now();
            let received = match &self.pipeline {
                Some(pipeline) => pipeline.results.recv().ok(),
                None => None,
            };
            self.parse_us += micros_since(waited);
            match received {
                Some((seq, result)) => {
                    self.queue_gauge.sub();
                    self.pending.insert(seq, result);
                }
                None => return,
            }
        }
    }

    /// Resolves a budget violation against the in-flight parses: an
    /// earlier (feed-order) parse failure takes precedence.
    fn budget_error(&mut self, violation: IngestError) -> IngestError {
        self.await_in_flight();
        match self.failed.take() {
            Some(error) => IngestError::Feed(error),
            None => violation,
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
                            return Err(self.budget_error(IngestError::EntryTooLarge {
                                limit: self.budget.max_entry_bytes,
                            }));
                        }
                        return Ok(());
                    };
                    if end > self.budget.max_entry_bytes {
                        return Err(self.budget_error(IngestError::EntryTooLarge {
                            limit: self.budget.max_entry_bytes,
                        }));
                    }
                    self.process_fragment(end)?;
                    self.buffer.drain(..end);
                    self.state = ScanState::Scanning;
                    // Harvest finished parses between fragments so a large
                    // single push cannot pile every parsed entry up in
                    // `pending` — transient memory stays at pipeline depth.
                    self.collect_ready();
                    if self.failed.is_some() {
                        // A parse failure is already settled: stop carving
                        // (and budget-counting) the rest of the chunk, so
                        // the feed-order-first error reaches the caller
                        // instead of being masked by a later budget
                        // violation — and nothing parses for nothing.
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Parses `self.buffer[..end]` as one entry element — on the worker
    /// pool when one is running, inline otherwise.
    fn process_fragment(&mut self, end: usize) -> Result<(), IngestError> {
        if self.seen >= self.budget.max_entries {
            return Err(self.budget_error(IngestError::TooManyEntries {
                limit: self.budget.max_entries,
            }));
        }
        if std::str::from_utf8(self.buffer.get(..end).unwrap_or_default()).is_err() {
            // Resolve against in-flight parses before surfacing: an entry
            // *earlier* in the feed may still be parsing on a worker, and
            // its error must win — exactly as a sequential ingestion
            // would report it. (Checked before a seq is allocated, so
            // `await_in_flight` never waits on a never-submitted parse.)
            let error = IngestError::Feed(FeedError::schema(None, "entry is not valid UTF-8"));
            return Err(self.budget_error(error));
        }
        if fault::failpoint("ingest.parse") {
            let error =
                IngestError::Feed(FeedError::schema(None, "injected fault at ingest.parse"));
            return Err(self.budget_error(error));
        }
        let seq = self.seen as u64;
        self.seen += 1;
        let fragment =
            std::str::from_utf8(self.buffer.get(..end).unwrap_or_default()).unwrap_or_default();
        let parse_started = Instant::now();
        match &self.pipeline {
            Some(pipeline) => {
                pipeline.submit(seq, fragment.to_string());
                self.queue_gauge.add();
            }
            None => {
                let parsed = self.reader.read_entry_str(fragment);
                self.pending.insert(seq, parsed);
            }
        }
        self.parse_us += micros_since(parse_started);
        Ok(())
    }

    /// Finishes the ingestion: waits for the worker pool to drain, fails
    /// on a parse error, a truncated or an empty feed, classifies
    /// unlabelled rows, and returns the loaded dataset.
    pub fn finish(self) -> Result<IngestOutcome, IngestError> {
        self.finish_inner(false).map(|(outcome, _)| outcome)
    }

    /// Like [`finish`](FeedIngester::finish), but a feed that ends in the
    /// middle of an entry element **drops the partial trailing entry**
    /// instead of failing — the semantics of replaying a crash-truncated
    /// ingestion journal, where everything up to the last complete entry
    /// is trustworthy and the torn tail is not. The returned flag reports
    /// whether a partial entry was dropped. Parse errors and empty feeds
    /// still fail: a journal holding a feed the original `PUT` would have
    /// rejected must not materialize a dataset.
    pub fn finish_lossy(self) -> Result<(IngestOutcome, bool), IngestError> {
        self.finish_inner(true)
    }

    fn finish_inner(mut self, lossy: bool) -> Result<(IngestOutcome, bool), IngestError> {
        let finish_started = Instant::now();
        if let Some(pipeline) = self.pipeline.take() {
            let drain_started = Instant::now();
            for (seq, result) in pipeline.drain() {
                self.queue_gauge.sub();
                self.pending.insert(seq, result);
            }
            self.parse_us += micros_since(drain_started);
        }
        self.settle_pending();
        self.push_us += micros_since(finish_started);
        self.take_failure()?;
        let dropped_tail = matches!(self.state, ScanState::InEntry(_));
        if dropped_tail && !lossy {
            return Err(IngestError::Truncated);
        }
        if self.seen == 0 {
            return Err(IngestError::Empty);
        }
        let stages = self.stage_micros();
        // Three aggregate flight-recorder spans, laid out sequentially
        // from the ingestion's start so a trace shows where the time went
        // without flooding the ring with per-entry records. `finish` runs
        // on the request's thread, so these nest under the request span
        // when a trace scope is active. The parse span includes time the
        // coordinator spent blocked on the worker queue (backpressure).
        let carve_end = self.started_us + stages.carve_us;
        let parse_end = carve_end + stages.parse_us;
        obs::record_span(SpanKind::IngestCarve, "", self.started_us, stages.carve_us);
        obs::record_span(SpanKind::IngestParse, "", carve_end, stages.parse_us);
        obs::record_span(SpanKind::IngestInsert, "", parse_end, stages.insert_us);
        let entries = self.store.vulnerability_count();
        let mut dataset = StudyDataset::from_store(self.store);
        dataset.classify_unlabelled(&Classifier::with_default_rules());
        Ok((
            IngestOutcome {
                dataset,
                entries,
                parsed: self.inserted,
                skipped: self.skipped,
                feed_bytes: self.feed_bytes,
                stages,
            },
            dropped_tail,
        ))
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
    fn finish_lossy_drops_only_the_torn_trailing_entry() {
        let xml = feed(10);
        // A strict finish on a feed cut mid-entry fails…
        let cut = xml.rfind("<entry").unwrap() + 20;
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(&xml.as_bytes()[..cut]).unwrap();
        assert!(matches!(ingester.finish(), Err(IngestError::Truncated)));
        // …a lossy finish keeps the nine complete entries.
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(&xml.as_bytes()[..cut]).unwrap();
        let (outcome, dropped) = ingester.finish_lossy().unwrap();
        assert!(dropped);
        assert_eq!(outcome.entries, 9);
        // A clean feed reports no drop.
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(xml.as_bytes()).unwrap();
        let (outcome, dropped) = ingester.finish_lossy().unwrap();
        assert!(!dropped);
        assert_eq!(outcome.entries, 10);
        // Still strict about feeds that never completed a single entry.
        let mut ingester = FeedIngester::new(IngestBudget::default());
        ingester.push(b"<nvd>").unwrap();
        assert!(matches!(ingester.finish_lossy(), Err(IngestError::Empty)));
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
        // Inline (workers == 0): the error surfaces on the push itself.
        let mut ingester = FeedIngester::with_workers(IngestBudget::default(), 0);
        let error = ingester
            .push(b"<nvd><entry id=unquoted>x</entry></nvd>")
            .unwrap_err();
        assert!(matches!(error, IngestError::Feed(_)));
        assert_eq!(error.http_status(), 400);

        // Pipelined: the same error surfaces on a push or at finish,
        // whichever comes first.
        let mut ingester = FeedIngester::with_workers(IngestBudget::default(), 2);
        let error = ingester
            .push(b"<nvd><entry id=unquoted>x</entry></nvd>")
            .err()
            .unwrap_or_else(|| ingester.finish().unwrap_err());
        assert!(matches!(error, IngestError::Feed(_)));
        assert_eq!(error.http_status(), 400);
    }

    #[test]
    fn an_earlier_parse_error_beats_a_later_budget_violation() {
        // One malformed entry followed by more entries than the remaining
        // budget: a sequential ingestion reports the parse error (400),
        // never the budget violation (413) — and so must the pipeline, no
        // matter how the workers are scheduled.
        let mut xml = String::from("<nvd><entry id=unquoted>broken</entry>");
        for i in 0..10 {
            xml.push_str(&format!(
                "<entry id=\"CVE-2007-{}\"><vuln:summary>fine</vuln:summary></entry>",
                i + 1
            ));
        }
        xml.push_str("</nvd>");
        for workers in [0, 3] {
            for _ in 0..4 {
                let mut ingester = FeedIngester::with_workers(
                    IngestBudget {
                        max_entries: 4,
                        ..IngestBudget::default()
                    },
                    workers,
                );
                let error = ingester
                    .push(xml.as_bytes())
                    .err()
                    .unwrap_or_else(|| ingester.finish().unwrap_err());
                assert!(
                    matches!(error, IngestError::Feed(_)),
                    "workers {workers}: expected the feed-order-first parse error, got {error}"
                );
            }
        }
    }

    #[test]
    fn pipelined_error_reporting_is_deterministic_by_feed_order() {
        // Two broken entries: the reported error is always the FIRST one
        // in feed order, no matter which worker finishes first. The first
        // broken fragment has mismatched quotes (unterminated attribute),
        // the second an unclosed tag soup — distinguishable messages.
        let xml = br#"<nvd>
          <entry id="CVE-2008-1"><vuln:summary>fine</vuln:summary></entry>
          <entry id=broken-first>x</entry>
          <entry id='broken"second>y</entry>
        </nvd>"#;
        let mut messages = std::collections::BTreeSet::new();
        for _ in 0..8 {
            let mut ingester = FeedIngester::with_workers(IngestBudget::default(), 3);
            let error = ingester
                .push(xml)
                .err()
                .unwrap_or_else(|| ingester.finish().unwrap_err());
            messages.insert(error.to_string());
        }
        assert_eq!(
            messages.len(),
            1,
            "error reporting must be deterministic: {messages:?}"
        );
    }

    #[test]
    fn pipelined_ingestion_loads_an_identical_store() {
        let xml = feed(120);
        let sequential = {
            let mut ingester = FeedIngester::with_workers(IngestBudget::default(), 0);
            ingester.push(xml.as_bytes()).unwrap();
            ingester.finish().unwrap()
        };
        for workers in [1, 2, 4] {
            let mut ingester = FeedIngester::with_workers(IngestBudget::default(), workers);
            for piece in xml.as_bytes().chunks(97) {
                ingester.push(piece).unwrap();
            }
            let outcome = ingester.finish().unwrap();
            assert_eq!(outcome.entries, sequential.entries, "workers {workers}");
            assert_eq!(outcome.parsed, sequential.parsed);
            assert_eq!(outcome.skipped, sequential.skipped);
            assert_eq!(
                outcome.dataset.store().vulnerability_count(),
                sequential.dataset.store().vulnerability_count()
            );
            // Row ids are assigned in insertion order: identical iteration
            // proves the pipeline preserved feed order.
            for (parallel, reference) in outcome
                .dataset
                .store()
                .rows()
                .zip(sequential.dataset.store().rows())
            {
                assert_eq!(parallel.cve, reference.cve, "workers {workers}");
                assert_eq!(parallel.os_set, reference.os_set);
            }
        }

        // A single whole-feed push: the carver runs far ahead of the
        // workers, exercising the bounded job queue's backpressure and the
        // between-fragment result harvesting.
        let mut ingester = FeedIngester::with_workers(IngestBudget::default(), 2);
        ingester.push(xml.as_bytes()).unwrap();
        let outcome = ingester.finish().unwrap();
        assert_eq!(outcome.entries, sequential.entries);
        assert_eq!(outcome.parsed, sequential.parsed);
    }
}
