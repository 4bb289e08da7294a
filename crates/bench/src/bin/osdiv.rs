//! The `osdiv` CLI: one dispatcher for every table, figure and simulation
//! of the study, replacing the twelve single-purpose experiment binaries.
//!
//! ```text
//! osdiv <command> [--format text|csv|json] [--seed N] [--profile fat|thin|isolated]
//!                 [--first-year Y] [--last-year Y] [--oses a,b,..] [--max-k N]
//!                 [--criterion C] [--group-size N] [--top N] [--trials N]
//! ```
//!
//! Every **registry analysis id** (`validity`, `pairwise`, `kway`, …) is a
//! command, rendered through [`osdiv_core::analysis_sections`] —
//! byte-identical to what `osdiv serve` answers at `GET /v1/analyses/{id}`.
//! The paper's commands (`table1`…`table6`, `figure2`, `figure3`,
//! `summary`) are aliases: each picks sections of one analysis and renders
//! them the same way. The analysis flags are the registry's parameter keys
//! (`--group-size` is `group_size`) and reach the analysis as a raw
//! [`Params`] list, like an HTTP query string, so only its `FromParams`
//! accepts or rejects them; every other command takes none. `osdiv list`
//! prints the registry, so newly registered analyses appear in `report`,
//! the help text and the HTTP API without touching the dispatcher.

use std::io::{Read as _, Write as _};
use std::str::FromStr;
use std::sync::Arc;

use bft_sim::{ReplicaSet, SimulationConfig, Simulator};
use nvd_model::OsDistribution;
use osdiv_bench::harness::EXPERIMENT_SEED;
use osdiv_core::{
    analysis_sections, figure3_configurations, registry_section, renderer, AnalysisError,
    AnalysisId, Format, Params, Section, Snapshot, Study,
};
use osdiv_registry::persist::source_meta;
use osdiv_registry::{
    build_synthetic, DatasetSource, FeedIngester, IngestBudget, IngestOutcome, RegistryOptions,
    StudyRegistry, TenantStore,
};
use osdiv_serve::{Router, RouterOptions, Server, ServerOptions};
use tabular::TextTable;

/// The paper's commands, each an alias of one registry analysis:
/// `(command, analysis, section, summary)`. `section` picks one of the
/// analysis's sections by index; `None` keeps all of them.
const ALIASES: &[(&str, AnalysisId, Option<usize>, &str)] = &[
    (
        "table1",
        AnalysisId::Validity,
        None,
        "Table I: distribution of OS vulnerabilities by validity",
    ),
    (
        "table2",
        AnalysisId::Classes,
        None,
        "Table II: vulnerabilities per OS component class",
    ),
    (
        "table3",
        AnalysisId::Pairwise,
        Some(0),
        "Table III: pairwise common vulnerabilities",
    ),
    (
        "table4",
        AnalysisId::Pairwise,
        Some(1),
        "Table IV: isolated thin server per-class breakdown",
    ),
    (
        "summary",
        AnalysisId::Pairwise,
        Some(2),
        "Section IV-E: summary of the findings",
    ),
    (
        "table5",
        AnalysisId::Split,
        None,
        "Table V: history vs observed common vulnerabilities",
    ),
    (
        "table6",
        AnalysisId::Releases,
        None,
        "Table VI: common vulnerabilities between OS releases",
    ),
    (
        "figure2",
        AnalysisId::Temporal,
        None,
        "Figure 2: per-family temporal series",
    ),
    (
        "figure3",
        AnalysisId::Selection,
        None,
        "Figure 3: replica selection validated on the observed period",
    ),
];

/// The commands that are not analyses: `(name, summary)`. The per-analysis
/// registry behind `report` and `list` lives in `osdiv_core::registry`.
const COMMANDS: &[(&str, &str)] = &[
    ("survival", "Monte-Carlo survival of replica configurations"),
    ("report", "every table and figure in one document"),
    (
        "serve",
        "serve the study as an HTTP API (see --addr/--threads)",
    ),
    (
        "ingest",
        "stream NVD XML feed files into a dataset summary (see --name)",
    ),
    (
        "snapshot",
        "save, load or inspect .osdv tenant snapshots (see --out)",
    ),
    (
        "debug",
        "offline introspection: trace a boot or list tenants (see --data-dir)",
    ),
    ("list", "print the analysis registry"),
    ("help", "show this help"),
];

/// The help lines of the analysis flags. The flags themselves are the
/// registry's keys (see [`analysis_key`]); a unit test requires one line
/// per key.
const ANALYSIS_FLAG_HELP: &str = "  \
    --profile <fat|thin|isolated>    split, releases, kway, selection: server profile\n  \
    --first-year <Y>                 temporal: first year of the series (default: 1993)\n  \
    --last-year <Y>                  temporal: last year of the series (default: 2010)\n  \
    --oses <a,b,..>                  pairwise, split, releases, selection: restrict the OS pool\n  \
    --max-k <N>                      kway: largest group size\n  \
    --criterion <C>                  selection: rank groups by distinct-shared (default) or pairwise-sum\n  \
    --group-size <N>                 selection: size of the ranked groups (default: 4)\n  \
    --top <N>                        selection: ranked groups to keep (default: 5)\n";

/// The parameter key an analysis flag carries (`--first-year` →
/// `first_year`): a key some registered analysis accepts, so the CLI takes
/// the parameters `GET /v1/analyses/{id}` takes.
fn analysis_key(flag: &str) -> Option<&'static str> {
    let name = flag.strip_prefix("--")?;
    osdiv_core::registry()
        .iter()
        .flat_map(|entry| entry.keys.iter().copied())
        .find(|key| key.replace('_', "-") == name)
}

#[derive(Debug, Clone)]
struct Options {
    format: Format,
    seed: u64,
    /// The analysis flags, unparsed: the analysis's `FromParams` checks them.
    params: Params,
    trials: usize,
    addr: String,
    threads: usize,
    enable_shutdown: bool,
    enable_dataset_delete: bool,
    enable_debug: bool,
    ingest_token: Option<String>,
    max_datasets: usize,
    max_dataset_bytes: usize,
    name: Option<String>,
    out: Option<String>,
    data_dir: Option<String>,
    no_persist: bool,
    durability: osdiv_registry::Durability,
    io_timeout_ms: Option<u64>,
    shed_queue_depth: Option<usize>,
    access_log: Option<String>,
    slow_request_ms: Option<u64>,
    files: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            format: Format::Text,
            seed: EXPERIMENT_SEED,
            params: Params::new(),
            trials: 400,
            addr: "127.0.0.1:8080".to_string(),
            threads: osdiv_serve::default_threads(),
            enable_shutdown: false,
            enable_dataset_delete: false,
            enable_debug: false,
            ingest_token: None,
            max_datasets: osdiv_registry::registry::DEFAULT_MAX_DATASETS,
            max_dataset_bytes: osdiv_registry::registry::DEFAULT_MAX_TOTAL_BYTES,
            name: None,
            out: None,
            data_dir: None,
            no_persist: false,
            durability: osdiv_registry::Durability::default(),
            io_timeout_ms: None,
            shed_queue_depth: None,
            access_log: None,
            slow_request_ms: None,
            files: Vec::new(),
        }
    }
}

enum CliError {
    /// Bad invocation: message goes to stderr, exit code 2.
    Usage(String),
    /// A (configuration) error from the analysis layer: exit code 1.
    Analysis(AnalysisError),
    /// An I/O error from the serving layer: exit code 1.
    Io(std::io::Error),
}

impl From<AnalysisError> for CliError {
    fn from(error: AnalysisError) -> Self {
        CliError::Analysis(error)
    }
}

impl From<std::io::Error> for CliError {
    fn from(error: std::io::Error) -> Self {
        CliError::Io(error)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(CliError::Usage(message)) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
        Err(CliError::Analysis(error)) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
        Err(CliError::Io(error)) => {
            eprintln!("error: {error}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage(usage()));
    };
    if command == "help" || command == "--help" || command == "-h" {
        return Ok(usage());
    }
    // `osdiv <analysis>` and the paper aliases: an analysis plus the
    // sections to keep.
    let analysis = match ALIASES.iter().find(|(name, ..)| name == command) {
        Some(&(_, id, section, _)) => Some((id, section)),
        None => AnalysisId::from_name(command).ok().map(|id| (id, None)),
    };
    if analysis.is_none() && !COMMANDS.iter().any(|(name, _)| name == command) {
        return Err(CliError::Usage(format!(
            "unknown command {command:?}\n\n{}",
            usage()
        )));
    }
    if command == "snapshot" {
        return snapshot_command(&args[1..]);
    }
    if command == "debug" {
        return debug_command(&args[1..]);
    }
    let opts = match analysis {
        Some(_) => parse_options(&args[1..])?,
        None => plain_options(&args[1..])?,
    };
    if command == "list" {
        return Ok(renderer(opts.format).document(&[registry_section()]));
    }
    if command == "ingest" {
        return ingest(&opts);
    }
    if !opts.files.is_empty() {
        return Err(CliError::Usage(format!(
            "{command} takes no file arguments\n\n{}",
            usage()
        )));
    }
    let study = build_synthetic(opts.seed);
    match (command.as_str(), analysis) {
        (_, Some((id, section))) => {
            // The sections `GET /v1/analyses/{id}` renders, byte for byte.
            let mut sections = analysis_sections(&study, id, &opts.params)?;
            if let Some(index) = section {
                sections = vec![sections.swap_remove(index)];
            }
            Ok(renderer(opts.format).document(&sections))
        }
        ("serve", _) => serve(study, &opts),
        ("survival", _) => Ok(survival(&study, &opts)),
        ("report", _) => Ok(study.report(opts.format)?),
        (other, _) => unreachable!("command {other} is filtered above"),
    }
}

/// `osdiv ingest <file>...`: stream NVD XML feed files through the
/// bounded feed ingester (64 KiB reads — the same no-full-buffering path
/// the server's PUT route uses) and print a dataset summary.
fn ingest(opts: &Options) -> Result<String, CliError> {
    let name = opts.name.clone().unwrap_or_else(|| "ingested".to_string());
    let outcome = ingest_files(opts, "ingest")?;
    let (feed_bytes, entries, parsed, skipped) = (
        outcome.feed_bytes,
        outcome.entries,
        outcome.parsed,
        outcome.skipped,
    );
    let study = outcome.into_study();

    let mut table = TextTable::new(["Metric", "Value"]);
    table.push_row(["Dataset".to_string(), name]);
    table.push_row(["Feed files".to_string(), opts.files.len().to_string()]);
    table.push_row(["Feed bytes".to_string(), feed_bytes.to_string()]);
    table.push_row(["Entries parsed".to_string(), parsed.to_string()]);
    table.push_row(["Entries skipped".to_string(), skipped.to_string()]);
    table.push_row(["Distinct vulnerabilities".to_string(), entries.to_string()]);
    table.push_row(["Valid".to_string(), study.valid_count().to_string()]);
    table.push_row([
        "Estimated bytes".to_string(),
        study.estimated_bytes().to_string(),
    ]);
    let section = Section::table("Feed ingestion summary", table);
    Ok(renderer(opts.format).document(&[section]))
}

/// Streams every `opts.files` feed through the bounded ingester (64 KiB
/// reads, never buffering a whole feed) — shared by `ingest` and
/// `snapshot save`.
fn ingest_files(opts: &Options, command: &str) -> Result<IngestOutcome, CliError> {
    if opts.files.is_empty() {
        return Err(CliError::Usage(format!(
            "{command} expects at least one feed file\n\n{}",
            usage()
        )));
    }
    let mut ingester = FeedIngester::new(IngestBudget {
        max_bytes: opts.max_dataset_bytes.max(1),
        ..IngestBudget::default()
    });
    let mut chunk = vec![0u8; 64 * 1024];
    for path in &opts.files {
        let mut file = std::fs::File::open(path)?;
        loop {
            let n = file.read(&mut chunk)?;
            if n == 0 {
                break;
            }
            ingester
                .push(&chunk[..n])
                .map_err(|error| CliError::Usage(format!("error ingesting {path}: {error}")))?;
        }
    }
    ingester
        .finish()
        .map_err(|error| CliError::Usage(format!("error: {error}")))
}

/// `osdiv snapshot <save|load|inspect>`: the on-disk `.osdv` tenant format
/// (see docs/SNAPSHOT_FORMAT.md) as a standalone tool — write snapshots
/// outside any server, verify a backup decodes, or dump the section table
/// of a file without decoding its payloads.
fn snapshot_command(args: &[String]) -> Result<String, CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage(format!(
            "snapshot expects a subcommand: save, load or inspect\n\n{}",
            usage()
        )));
    };
    let opts = plain_options(&args[1..])?;
    match sub.as_str() {
        "save" => snapshot_save(&opts),
        "load" => snapshot_load(&opts),
        "inspect" => snapshot_inspect(&opts),
        other => Err(CliError::Usage(format!(
            "unknown snapshot subcommand {other:?} (expected save, load or inspect)\n\n{}",
            usage()
        ))),
    }
}

/// The single `.osdv` file argument of `snapshot load` / `snapshot inspect`.
fn snapshot_file<'a>(opts: &'a Options, command: &str) -> Result<&'a str, CliError> {
    match opts.files.as_slice() {
        [path] => Ok(path),
        _ => Err(CliError::Usage(format!(
            "snapshot {command} expects exactly one .osdv file\n\n{}",
            usage()
        ))),
    }
}

/// A snapshot decoding error: exit code 1, not a usage error.
fn corrupt(path: &str, error: impl std::fmt::Display) -> CliError {
    CliError::Io(std::io::Error::other(format!("{path}: {error}")))
}

/// `osdiv snapshot save --out <file.osdv> [feed.xml...]`: snapshot the
/// seed-generated dataset, or the union of the given NVD feeds. The META
/// section carries the same source annotations `osdiv serve --data-dir`
/// writes, so the file can be dropped into a data dir as `<name>.osdv`
/// and recovered as a tenant at the next boot.
fn snapshot_save(opts: &Options) -> Result<String, CliError> {
    let Some(out) = &opts.out else {
        return Err(CliError::Usage(format!(
            "snapshot save expects --out <file.osdv>\n\n{}",
            usage()
        )));
    };
    let (study, source) = if opts.files.is_empty() {
        let study = build_synthetic(opts.seed);
        (study, DatasetSource::Synthetic { seed: opts.seed })
    } else {
        let outcome = ingest_files(opts, "snapshot save")?;
        let source = DatasetSource::Ingested {
            entries: outcome.entries,
            skipped: outcome.skipped,
            feed_bytes: outcome.feed_bytes,
        };
        (outcome.into_study(), source)
    };
    let bytes = Snapshot::to_bytes(study.dataset(), &source_meta(&source));
    std::fs::write(out, &bytes)?;

    let mut table = TextTable::new(["Metric", "Value"]);
    table.push_row(["Snapshot".to_string(), out.clone()]);
    table.push_row(["File bytes".to_string(), bytes.len().to_string()]);
    table.push_row([
        "Distinct vulnerabilities".to_string(),
        study.dataset().store().vulnerability_count().to_string(),
    ]);
    table.push_row(["Valid".to_string(), study.valid_count().to_string()]);
    for (key, value) in source_meta(&source) {
        table.push_row([format!("meta:{key}"), value]);
    }
    let section = Section::table("Snapshot written", table);
    Ok(renderer(opts.format).document(&[section]))
}

/// `osdiv snapshot load <file.osdv>`: decode the snapshot completely
/// (every CRC checked, the store reconstructed) and print what it holds —
/// the "does my backup restore" check.
fn snapshot_load(opts: &Options) -> Result<String, CliError> {
    let path = snapshot_file(opts, "load")?;
    let bytes = std::fs::read(path)?;
    let snapshot = Snapshot::from_bytes(&bytes).map_err(|error| corrupt(path, error))?;
    let index_loaded = snapshot.index_loaded;
    let meta = snapshot.meta.clone();
    let study = Study::new(snapshot.dataset);

    let mut table = TextTable::new(["Metric", "Value"]);
    table.push_row(["Snapshot".to_string(), path.to_string()]);
    table.push_row(["File bytes".to_string(), bytes.len().to_string()]);
    table.push_row([
        "Distinct vulnerabilities".to_string(),
        study.dataset().store().vulnerability_count().to_string(),
    ]);
    table.push_row(["Valid".to_string(), study.valid_count().to_string()]);
    table.push_row([
        "Count index".to_string(),
        if index_loaded {
            "loaded from snapshot".to_string()
        } else {
            "absent or unreadable; rebuilt lazily".to_string()
        },
    ]);
    for (key, value) in meta {
        table.push_row([format!("meta:{key}"), value]);
    }
    let section = Section::table("Snapshot contents", table);
    Ok(renderer(opts.format).document(&[section]))
}

/// `osdiv snapshot inspect <file.osdv>`: dump the header and section
/// table (ids, versions, offsets, lengths, CRC verdicts) without decoding
/// any payload — the forensic view of docs/SNAPSHOT_FORMAT.md.
fn snapshot_inspect(opts: &Options) -> Result<String, CliError> {
    let path = snapshot_file(opts, "inspect")?;
    let bytes = std::fs::read(path)?;
    let info = Snapshot::inspect(&bytes).map_err(|error| corrupt(path, error))?;

    let mut table = TextTable::new([
        "Section", "Id", "Version", "Offset", "Length", "CRC-32", "CRC ok",
    ]);
    for section in &info.sections {
        table.push_row([
            section.name.to_string(),
            section.id.to_string(),
            section.version.to_string(),
            section.offset.to_string(),
            section.length.to_string(),
            format!("{:08x}", section.crc32),
            if section.crc_ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let title = format!(
        "Snapshot {path}: format v{}, {} bytes, {} sections",
        info.format_version,
        info.total_bytes,
        info.sections.len()
    );
    Ok(renderer(opts.format).document(&[Section::table(title, table)]))
}

/// `osdiv debug <spans|registry>`: the `/v1/debug` introspection views
/// without a server. `spans` instruments a full boot — snapshot recovery
/// when `--data-dir` is given, then every analysis — and dumps the
/// flight-recorder ring as Chrome trace-event JSON (load it in Perfetto
/// or `chrome://tracing`). `registry` prints the recovered tenant
/// registry as JSON. Both answer in one pass over a bounded structure
/// (the ring / the tenant list), like their HTTP counterparts.
fn debug_command(args: &[String]) -> Result<String, CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage(format!(
            "debug expects a subcommand: spans or registry\n\n{}",
            usage()
        )));
    };
    let opts = plain_options(&args[1..])?;
    match sub.as_str() {
        "spans" => debug_boot(&opts, true).map(|_| osdiv_serve::debug::spans_json()),
        "registry" => {
            let registry = debug_boot(&opts, false)?;
            Ok(osdiv_serve::debug::registry_json(&registry))
        }
        other => Err(CliError::Usage(format!(
            "unknown debug subcommand {other:?} (expected spans or registry)\n\n{}",
            usage()
        ))),
    }
}

/// The shared boot of `osdiv debug`: the seed dataset as the pinned
/// default tenant, plus — when `--data-dir` is given — a read-only
/// recovery of its snapshots (nothing is written). With `warm` the whole
/// analysis registry runs too, so the flight recorder holds the complete
/// boot-and-compute span tree.
fn debug_boot(opts: &Options, warm: bool) -> Result<StudyRegistry, CliError> {
    let study = Arc::new(build_synthetic(opts.seed));
    let mut registry = StudyRegistry::with_default(
        Arc::clone(&study),
        opts.seed,
        RegistryOptions {
            max_datasets: opts.max_datasets.max(1),
            max_total_bytes: opts.max_dataset_bytes.max(1),
        },
    );
    if let Some(dir) = &opts.data_dir {
        let store = TenantStore::open_read_only(dir);
        registry = registry.with_persistence(Arc::new(store));
        let recovery = registry.recover();
        for (name, error) in &recovery.errors {
            eprintln!("osdiv debug: recovery of {name:?}: {error}");
        }
    }
    if warm {
        study.run_all()?;
    }
    Ok(registry)
}

/// `osdiv serve`: pre-warm the session, bind, and run until shutdown.
/// With `--data-dir`, ingested tenants persist as `.osdv` snapshots that
/// warm-restart at boot; `--no-persist` opens the same directory
/// read-only (recovered snapshots serve, nothing is written).
fn serve(study: Study, opts: &Options) -> Result<String, CliError> {
    let study = Arc::new(study);
    let warmup = std::time::Instant::now();
    study.run_all()?;
    let mut registry = StudyRegistry::with_default(
        Arc::clone(&study),
        opts.seed,
        RegistryOptions {
            max_datasets: opts.max_datasets.max(1),
            max_total_bytes: opts.max_dataset_bytes.max(1),
        },
    );
    let ingest_budget = IngestBudget {
        max_bytes: opts.max_dataset_bytes.max(1),
        ..IngestBudget::default()
    };
    // The structured event log (`--access-log`): `-` streams JSON lines
    // to stdout, anything else appends to the file. Shared by the
    // router's lifecycle events, the server's access lines and the
    // recovery events below.
    let access_log = match opts.access_log.as_deref() {
        None => None,
        Some("-") => Some(Arc::new(osdiv_core::EventLog::stdout())),
        Some(path) => Some(Arc::new(
            osdiv_core::EventLog::append_to(std::path::Path::new(path))
                .map_err(|error| std::io::Error::other(format!("--access-log {path}: {error}")))?,
        )),
    };
    if let Some(dir) = &opts.data_dir {
        let store = if opts.no_persist {
            TenantStore::open_read_only(dir)
        } else {
            TenantStore::open_durable(dir, opts.durability)
                .map_err(|error| std::io::Error::other(format!("--data-dir {dir}: {error}")))?
        };
        registry = registry.with_persistence(Arc::new(store));
        let recovery = registry.recover();
        for (name, error) in &recovery.errors {
            eprintln!("osdiv-serve: recovery of {name:?}: {error}");
        }
        if let Some(log) = &access_log {
            let emit = |event: &str, dataset: &str, detail: Option<&str>| {
                let mut line = osdiv_core::JsonLine::event(event);
                line.str_field("dataset", dataset);
                if let Some(detail) = detail {
                    line.str_field("detail", detail);
                }
                log.emit(&line.finish());
            };
            for name in &recovery.recovered {
                emit("tenant_recovered", name, None);
            }
            for (name, error) in &recovery.errors {
                emit("recovery_error", name, Some(&error.to_string()));
            }
        }
        println!(
            "osdiv-serve: data dir {dir}: {} tenants recovered",
            recovery.recovered.len()
        );
    }
    let router = Arc::new(Router::new(
        Arc::new(registry),
        RouterOptions {
            seed: opts.seed,
            cache_capacity: 128,
            enable_shutdown: opts.enable_shutdown,
            enable_dataset_delete: opts.enable_dataset_delete,
            enable_debug: opts.enable_debug,
            ingest_budget,
            // Flag wins over the environment; both unset leaves the
            // mutating dataset routes open (pre-0.7 behaviour).
            ingest_token: opts
                .ingest_token
                .clone()
                .or_else(|| std::env::var("OSDIV_INGEST_TOKEN").ok()),
            access_log,
            slow_request_us: opts
                .slow_request_ms
                .map(|ms| ms.saturating_mul(1_000))
                .unwrap_or(osdiv_serve::DEFAULT_SLOW_REQUEST_US),
        },
    ));
    let server = Server::bind(opts.addr.as_str(), router, server_options(opts))?;
    // Flushed eagerly so wrapper scripts watching a redirected stdout see
    // the bound (possibly ephemeral) port immediately.
    println!(
        "osdiv-serve listening on {} (seed {}, {} threads, {} analyses pre-warmed in {:?})",
        server.local_addr(),
        opts.seed,
        opts.threads,
        AnalysisId::ALL.len(),
        warmup.elapsed(),
    );
    std::io::stdout().flush()?;
    server.run()?;
    Ok("osdiv-serve: shutdown complete\n".to_string())
}

/// The server tuning of `osdiv serve`: `--threads` workers, and unless
/// `--shed-queue-depth` says otherwise, a shed depth of 16 per worker.
fn server_options(opts: &Options) -> ServerOptions {
    let mut server_options = ServerOptions::for_threads(opts.threads);
    if let Some(ms) = opts.io_timeout_ms {
        server_options.io_timeout = std::time::Duration::from_millis(ms.max(1));
    }
    if let Some(depth) = opts.shed_queue_depth {
        server_options.shed_queue_depth = depth.max(1);
    }
    server_options
}

/// Parses the options of a command that takes no analysis parameter: like
/// `GET /v1/report?profile=fat`, it rejects an analysis flag.
fn plain_options(args: &[String]) -> Result<Options, CliError> {
    let opts = parse_options(args)?;
    opts.params.check_known(&[])?;
    Ok(opts)
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} expects a value\n\n{}", usage())))
        };
        match flag.as_str() {
            "--format" => opts.format = Format::from_str(&value("--format")?)?,
            "--seed" => {
                let raw = value("--seed")?;
                opts.seed = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --seed {raw:?}")))?;
            }
            "--trials" => {
                let raw = value("--trials")?;
                opts.trials = raw
                    .parse()
                    .map_err(|_| CliError::Usage(format!("invalid --trials {raw:?}")))?;
            }
            "--addr" => opts.addr = value("--addr")?,
            "--threads" => {
                let raw = value("--threads")?;
                opts.threads = raw
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| CliError::Usage(format!("invalid --threads {raw:?}")))?;
            }
            "--enable-shutdown" => opts.enable_shutdown = true,
            "--enable-dataset-delete" => opts.enable_dataset_delete = true,
            "--enable-debug" => opts.enable_debug = true,
            "--ingest-token" => opts.ingest_token = Some(value("--ingest-token")?),
            "--max-datasets" => {
                let raw = value("--max-datasets")?;
                opts.max_datasets =
                    raw.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::Usage(format!("invalid --max-datasets {raw:?}"))
                    })?;
            }
            "--max-dataset-bytes" => {
                let raw = value("--max-dataset-bytes")?;
                opts.max_dataset_bytes = raw.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                    CliError::Usage(format!("invalid --max-dataset-bytes {raw:?}"))
                })?;
            }
            "--name" => opts.name = Some(value("--name")?),
            "--out" => opts.out = Some(value("--out")?),
            "--data-dir" => opts.data_dir = Some(value("--data-dir")?),
            "--no-persist" => opts.no_persist = true,
            "--durability" => {
                let raw = value("--durability")?;
                opts.durability = raw
                    .parse()
                    .map_err(|error| CliError::Usage(format!("--durability: {error}")))?;
            }
            "--io-timeout-ms" => {
                let raw = value("--io-timeout-ms")?;
                opts.io_timeout_ms =
                    Some(raw.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::Usage(format!("invalid --io-timeout-ms {raw:?}"))
                    })?);
            }
            "--shed-queue-depth" => {
                let raw = value("--shed-queue-depth")?;
                opts.shed_queue_depth =
                    Some(raw.parse().ok().filter(|n| *n > 0).ok_or_else(|| {
                        CliError::Usage(format!("invalid --shed-queue-depth {raw:?}"))
                    })?);
            }
            "--access-log" => opts.access_log = Some(value("--access-log")?),
            "--slow-request-ms" => {
                let raw = value("--slow-request-ms")?;
                opts.slow_request_ms =
                    Some(raw.parse().map_err(|_| {
                        CliError::Usage(format!("invalid --slow-request-ms {raw:?}"))
                    })?);
            }
            other if !other.starts_with('-') => opts.files.push(other.to_string()),
            other => match analysis_key(other) {
                Some(key) => opts.params.insert(key, value(other)?),
                None => {
                    return Err(CliError::Usage(format!(
                        "unknown option {other:?}\n\n{}",
                        usage()
                    )));
                }
            },
        }
    }
    Ok(opts)
}

fn usage() -> String {
    let mut out = String::from(
        "osdiv — reproduce the tables and figures of \"OS diversity for intrusion \
         tolerance\" (DSN 2011)\n\nUsage: osdiv <command> [options]\n\nPaper commands \
         (each renders sections of the named analysis, as `osdiv <analysis>` does):\n",
    );
    for (name, id, section, summary) in ALIASES {
        let analysis = match section {
            None => id.name().to_string(),
            Some(index) => format!("{id} section {}", index + 1),
        };
        out.push_str(&format!("  {name:<10} = {analysis:<20} {summary}\n"));
    }
    out.push_str("\nCommands:\n");
    for (name, summary) in COMMANDS {
        out.push_str(&format!("  {name:<10} {summary}\n"));
    }
    out.push_str(
        "\nOptions:\n  \
         --format <text|csv|json>         output format (default: text)\n  \
         --seed <N>                       dataset generator seed (default: 2011)\n",
    );
    out.push_str(ANALYSIS_FLAG_HELP);
    out.push_str(
        "                                   (the analysis flags above pass through as parameters;\n                                   \
         every command that is not an analysis or alias rejects them)\n  \
         --trials <N>                     survival: Monte-Carlo trials (default: 400)\n  \
         --addr <host:port>               serve: bind address (default: 127.0.0.1:8080; port 0 = ephemeral)\n  \
         --threads <N>                    serve: worker threads\n  \
         --enable-shutdown                serve: honour POST /v1/shutdown\n  \
         --enable-dataset-delete          serve: honour DELETE /v1/datasets/{name}\n  \
         --enable-debug                   serve: honour GET /v1/debug/* (spans, registry;\n                                   \
         requires the ingest token when one is set)\n  \
         --ingest-token <TOKEN>           serve: require `Authorization: Bearer <TOKEN>` on\n                                   \
         mutating dataset routes (env: OSDIV_INGEST_TOKEN)\n  \
         --max-datasets <N>               serve: dataset registry name cap (default: 16)\n  \
         --max-dataset-bytes <BYTES>      serve/ingest: dataset byte budget (default: 256 MiB)\n  \
         --name <name>                    ingest: label of the summarized dataset\n  \
         --data-dir <dir>                 serve: persist ingested tenants as .osdv snapshots that\n                                   \
         warm-restart at boot; boot deletes leftover .osdv.tmp and .journal files\n  \
         --no-persist                     serve: open --data-dir read-only (serve snapshots, write or delete nothing)\n  \
         --durability <rename|full>       serve: snapshot durability policy (default: rename;\n                                   \
         full also fsyncs each snapshot and the data dir — see docs/SNAPSHOT_FORMAT.md)\n  \
         --io-timeout-ms <N>              serve: per-request head-transfer budget; slow-loris\n                                   \
         connections answer 408 and close (default: 10000)\n  \
         --shed-queue-depth <N>           serve: admission-control high-water mark — deeper dispatch\n                                   \
         backlogs shed 503 + Retry-After pre-parse (ingest sheds at N/2)\n  \
         --access-log <PATH|->            serve: structured JSON-lines access/event log\n                                   \
         (one line per request; `-` = stdout; see docs/OBSERVABILITY.md)\n  \
         --slow-request-ms <N>            serve: log requests taking ≥ N ms as slow_request events (default: 500)\n  \
         --out <file.osdv>                snapshot save: output path\n\nSnapshot subcommands \
         (the on-disk format is specified in docs/SNAPSHOT_FORMAT.md):\n  \
         snapshot save --out <f> [feeds]  snapshot the seed dataset or the given NVD feeds\n  \
         snapshot load <f>                fully decode a snapshot (CRC-checked) and summarize it\n  \
         snapshot inspect <f>             dump the header and section table without decoding payloads\n\n\
         Debug subcommands (the offline twins of GET /v1/debug/*; see docs/OBSERVABILITY.md):\n  \
         debug spans [--data-dir <d>]     trace a boot (recovery + every analysis) and dump the\n                                   \
         flight-recorder ring as Chrome trace-event JSON\n  \
         debug registry --data-dir <d>    recover the tenant registry read-only and print it as JSON\n\n\
         Analyses (also subcommands, mirrored at GET /v1/analyses/{id} by `osdiv serve`):\n",
    );
    for entry in osdiv_core::registry() {
        out.push_str(&format!(
            "  {:<10} {} — {}\n",
            entry.id.name(),
            entry.id.deliverables(),
            entry.id.describe()
        ));
    }
    out
}

/// `osdiv survival`: the Monte-Carlo survival of the homogeneous Debian
/// baseline and the four diverse configurations of Figure 3.
fn survival(study: &Study, opts: &Options) -> String {
    let config = SimulationConfig::default()
        .with_trials(opts.trials)
        .with_seed(7);
    let simulator = Simulator::new(study.dataset(), config);
    let mut configurations = vec![ReplicaSet::homogeneous(OsDistribution::Debian, 4)];
    for (_, oses) in figure3_configurations() {
        configurations.push(ReplicaSet::diverse(oses));
    }
    let mut table = TextTable::new([
        "Configuration",
        "P(system compromised)",
        "Mean time to failure (days)",
        "Mean peak compromised replicas",
    ]);
    for set in &configurations {
        let outcome = simulator.run(set);
        table.push_row([
            outcome.label().to_string(),
            format!("{:.2}", outcome.failure_probability()),
            outcome
                .mean_time_to_failure_days()
                .map(|d| format!("{d:.0}"))
                .unwrap_or_else(|| "never failed".to_string()),
            format!("{:.2}", outcome.mean_peak_compromised()),
        ]);
    }
    let title = "Survival of replica configurations over 2006-2010 (Monte-Carlo)";
    renderer(opts.format).document(&[Section::table(title, table)])
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Parses a space-separated flag list.
    fn options(args: &str) -> Options {
        let args: Vec<String> = args.split(' ').map(str::to_string).collect();
        match parse_options(&args) {
            Ok(opts) => opts,
            Err(_) => panic!("{args:?} should parse"),
        }
    }

    #[test]
    fn the_analysis_flags_are_the_registry_keys() {
        let keys: BTreeSet<&str> = osdiv_core::registry()
            .iter()
            .flat_map(|entry| entry.keys.iter().copied())
            .collect();
        let documented: BTreeSet<Option<&str>> = ANALYSIS_FLAG_HELP
            .lines()
            .map(|line| line.split_whitespace().next().and_then(analysis_key))
            .collect();
        assert_eq!(documented, keys.iter().copied().map(Some).collect());
        for key in keys {
            let flag = format!("--{}", key.replace('_', "-"));
            assert_eq!(options(&format!("{flag} v")).params.get(key), Some("v"));
        }
        let unknown = parse_options(&["--bogus".into(), "v".into()]);
        assert!(matches!(unknown, Err(CliError::Usage(_))));
    }

    #[test]
    fn the_shed_depth_defaults_to_sixteen_per_configured_thread() {
        let tuned = server_options(&options("--threads 64"));
        assert_eq!(tuned.threads, 64);
        assert_eq!(tuned.shed_queue_depth, 1024);
        assert_eq!(tuned.io_timeout, std::time::Duration::from_secs(10));
        let drill = "--threads 2 --io-timeout-ms 500 --shed-queue-depth 4";
        let explicit = server_options(&options(drill));
        assert_eq!(explicit.threads, 2);
        assert_eq!(explicit.io_timeout, std::time::Duration::from_millis(500));
        assert_eq!(explicit.shed_queue_depth, 4);
    }
}
