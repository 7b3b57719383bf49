//! The traced run: per-layer metrics.
//!
//! It first drives the workload over HTTP for half the run, untraced, and
//! takes its counts from `/stats` deltas around that phase.  It then
//! replays the same workload's requests in process, through the public call
//! of each layer, with a span around every call; widget and fairness calls
//! run one after another so each gets a self time, and the parallel
//! `render` gets its own span.  Nothing inside the program is traced.

use crate::client::{self, Conn};
use crate::plan::{self, Env, Op, OpKind, Plan, Workload};
use crate::run::{self, median};
use crate::spans::{self, Recorder};
use crate::{procfs, Report};
use rf_core::{AnalysisPipeline, DiversityWidget, IngredientsWidget, LabelConfig, LabelService};
use rf_core::{RecipeWidget, StabilityWidget};
use rf_fairness::report::{FairnessConfig, FairnessReport};
use rf_net::{HttpParser, ParseEvent};
use rf_server::{route, AppState, Request};
use rf_store::{DiskStore, StoreKey};
use rf_table::Table;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("core.prepare_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.fanout_speedup", "x"),
    ("core.json_ms", "ms"),
    ("core.json_bytes", "bytes"),
    ("core.lookup_us", "us"),
    ("core.preparations_per_req", "count"),
    ("core.memory_hit_ratio", "ratio"),
    ("core.evictions_per_req", "count"),
    ("widget.recipe_ms", "ms"),
    ("widget.ingredients_ms", "ms"),
    ("widget.slope_ms", "ms"),
    ("widget.diversity_ms", "ms"),
    ("stability.mc_ms", "ms"),
    ("stability.mc_us_per_trial", "us"),
    ("fairness.fair_star_ms", "ms"),
    ("fairness.pairwise_ms", "ms"),
    ("fairness.proportion_ms", "ms"),
    ("fairness.discounted_ms", "ms"),
    ("runtime.tasks_per_req", "count"),
    ("runtime.steals_per_req", "count"),
    ("runtime.queue_wait_ms", "ms"),
    ("process.threads", "count"),
    ("server.route_us", "us"),
    ("net.parse_us", "us"),
    ("net.io_us", "us"),
    ("store.lookup_us", "us"),
    ("store.store_us", "us"),
    ("store.flush_ms", "ms"),
    ("store.disk_hit_ratio", "ratio"),
    ("store.bytes_written_per_req", "bytes"),
    ("table.csv_parse_ms", "ms"),
    ("table.fingerprint_ms", "ms"),
];

/// Spans whose per-request self time becomes a metric: `(span, metric,
/// nanoseconds per metric unit)`.
const TIMED: [(&str, &str, f64); 20] = [
    ("core.prepare", "core.prepare_ms", 1e6),
    ("core.render", "core.render_ms", 1e6),
    ("core.json", "core.json_ms", 1e6),
    ("core.lookup", "core.lookup_us", 1e3),
    ("widget.recipe", "widget.recipe_ms", 1e6),
    ("widget.ingredients", "widget.ingredients_ms", 1e6),
    ("widget.slope", "widget.slope_ms", 1e6),
    ("widget.diversity", "widget.diversity_ms", 1e6),
    ("stability.mc", "stability.mc_ms", 1e6),
    ("fairness.fair_star", "fairness.fair_star_ms", 1e6),
    ("fairness.pairwise", "fairness.pairwise_ms", 1e6),
    ("fairness.proportion", "fairness.proportion_ms", 1e6),
    ("fairness.discounted", "fairness.discounted_ms", 1e6),
    ("server.route", "server.route_us", 1e3),
    ("net.parse", "net.parse_us", 1e3),
    ("store.lookup", "store.lookup_us", 1e3),
    ("store.store", "store.store_us", 1e3),
    ("store.flush", "store.flush_ms", 1e6),
    ("table.csv_parse", "table.csv_parse_ms", 1e6),
    ("table.fingerprint", "table.fingerprint_ms", 1e6),
];

/// Warm round trips timed for `net.io_us` (at most; a second caps them).
const ROUND_TRIPS: usize = 2_000;
/// Requests the replay stops at, however little time they took.
const MAX_REPLAY_REQUESTS: u64 = 4_000;
/// Warm requests a probe times when the replay itself made none.
const PROBE_REPEATS: usize = 20;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The in-process replay: its own pool (with a queue-wait observer), the
/// service and router state over a fresh catalogue, and a disk store in a
/// fresh directory.
struct Replay {
    rec: Recorder,
    pipeline: AnalysisPipeline,
    pool: Arc<rf_runtime::ThreadPool>,
    state: AppState,
    store: DiskStore,
    store_dir: std::path::PathBuf,
    next_request: u64,
    /// Per cold request: Monte-Carlo trials completed and JSON bytes.
    trials: BTreeMap<u64, usize>,
    json_bytes: Vec<f64>,
    /// Tasks observed by the pool's queue-wait hook, and their total wait.
    waits: Arc<(AtomicU64, AtomicU64)>,
}

impl Replay {
    fn new(workload: Workload, nproc: usize) -> Result<Replay, String> {
        let pool = Arc::new(rf_runtime::ThreadPool::new(nproc));
        let waits = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let hook = Arc::clone(&waits);
        pool.set_queue_wait_observer(Arc::new(move |wait: Duration| {
            hook.0.fetch_add(1, Ordering::Relaxed);
            hook.1.fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
        }));
        let pipeline = AnalysisPipeline::with_pool(Arc::clone(&pool));
        let service = LabelService::with_pipeline(
            pipeline.clone(),
            rf_core::service::DEFAULT_CACHE_CAPACITY,
            rf_core::service::DEFAULT_CACHE_BYTES,
        );
        let store_dir = plan::fresh_dir("trace-store")?;
        Ok(Replay {
            rec: Recorder::new(),
            pipeline,
            pool,
            state: AppState::with_service(plan::catalog(workload), service),
            store: DiskStore::open(&store_dir, 1 << 30).map_err(err)?,
            store_dir,
            next_request: 0,
            trials: BTreeMap::new(),
            json_bytes: Vec::new(),
            waits,
        })
    }

    /// The table and configuration a label path resolves to, with the
    /// query overrides the router applies.
    fn resolve(&self, path: &str) -> Result<(Arc<Table>, Arc<LabelConfig>), String> {
        let slug = path
            .strip_prefix("/datasets/")
            .and_then(|rest| rest.split('/').next())
            .ok_or_else(|| format!("not a label path: {path}"))?;
        let entry = self
            .state
            .catalog
            .get(slug)
            .ok_or_else(|| format!("unknown dataset {slug}"))?;
        let mut config = entry.config;
        if let Some(k) = plan::query(path, "k") {
            config = config.with_top_k(k as usize);
        }
        if let Some(seed) = plan::query(path, "mc_seed") {
            config = config.with_monte_carlo_seed(seed);
        }
        if let Some(ms) = plan::query(path, "deadline_ms") {
            config = config.with_monte_carlo_deadline_millis(Some(ms));
        }
        Ok((entry.table, Arc::new(config)))
    }

    /// Parses the request bytes (the `net.parse` span) into a router request.
    fn parse(&mut self, op: &Op, body: &[u8], req: u64, root: usize) -> Result<Request, String> {
        let mut raw = if op.post {
            format!(
                "POST {} HTTP/1.1\r\nHost: labelbench\r\nContent-Length: {}\r\n\r\n",
                op.path,
                body.len()
            )
        } else {
            format!("GET {} HTTP/1.1\r\nHost: labelbench\r\n\r\n", op.path)
        }
        .into_bytes();
        raw.extend_from_slice(body);
        let event = self.rec.time("net.parse", req, Some(root), || {
            HttpParser::new().feed(&raw)
        });
        match event {
            Ok(ParseEvent::Request(parsed)) => {
                Request::from_parsed(parsed).ok_or_else(|| format!("{}: unroutable", op.path))
            }
            other => Err(format!("{}: parser gave {other:?}", op.path)),
        }
    }

    fn begin_request(&mut self) -> (u64, usize) {
        let req = self.next_request;
        self.next_request += 1;
        (req, self.rec.begin("request", req, None))
    }

    /// A label that misses every tier: fingerprint, prepare, parallel
    /// render, each widget again one after another, JSON, then the disk
    /// tier's store, flush and lookup of the result.
    fn cold(&mut self, op: &Op) -> Result<(), String> {
        let (req, root) = self.begin_request();
        self.parse(op, b"", req, root)?;
        let (table, config) = self.resolve(&op.path)?;
        let fingerprint = self
            .rec
            .time("table.fingerprint", req, Some(root), || table.fingerprint());
        let pipeline = self.pipeline.clone();
        let ctx = self
            .rec
            .time("core.prepare", req, Some(root), || {
                pipeline.prepare(Arc::clone(&table), Arc::clone(&config))
            })
            .map_err(err)?;
        let label = self
            .rec
            .time("core.render", req, Some(root), || pipeline.render(&ctx))
            .map_err(err)?;

        let widgets = self.rec.begin("core.widgets", req, Some(root));
        let parent = Some(widgets);
        let k = ctx.top_k();
        self.rec
            .time("widget.recipe", req, parent, || {
                RecipeWidget::build(&ctx.table, &ctx.config.scoring, &ctx.ranking, k)
            })
            .map_err(err)?;
        let names = ctx.config.scoring.attribute_names();
        self.rec
            .time("widget.ingredients", req, parent, || {
                IngredientsWidget::build_with_method(
                    &ctx.table,
                    &ctx.ranking,
                    &names,
                    k,
                    ctx.config.ingredient_count,
                    ctx.config.ingredients_method,
                )
            })
            .map_err(err)?;
        self.rec
            .time("widget.slope", req, parent, || {
                StabilityWidget::build_from_normalized(
                    &ctx.config.scoring,
                    &ctx.normalized_scoring,
                    &ctx.ranking,
                    k,
                    ctx.config.stability_threshold,
                )
            })
            .map_err(err)?;
        let mc = &ctx.config.monte_carlo;
        if mc.trials > 0 {
            let estimator = rf_stability::MonteCarloStability::new()
                .with_trials(mc.trials)
                .and_then(|e| e.with_noise(mc.data_noise, mc.weight_noise))
                .map_err(err)?
                .with_seed(mc.seed)
                .with_k(k)
                .with_relaxed_fp(mc.relaxed_fp);
            let scheduler = Arc::clone(self.pool.scheduler());
            let summary = self
                .rec
                .time("stability.mc", req, parent, || {
                    estimator.evaluate_batched(
                        &scheduler,
                        &ctx.table,
                        &ctx.config.scoring,
                        &ctx.ranking,
                        mc.deadline_millis.map(Duration::from_millis),
                    )
                })
                .map_err(err)?;
            self.trials.insert(req, summary.trials);
        }
        let fairness = FairnessConfig {
            k,
            alpha: ctx.config.alpha,
        };
        for group in &ctx.protected_groups {
            let ranking = &ctx.ranking;
            self.rec
                .time("fairness.fair_star", req, parent, || {
                    FairnessReport::evaluate_fair_star(group, ranking, &fairness)
                })
                .map_err(err)?;
            self.rec
                .time("fairness.pairwise", req, parent, || {
                    FairnessReport::evaluate_pairwise(group, ranking, &fairness)
                })
                .map_err(err)?;
            self.rec
                .time("fairness.proportion", req, parent, || {
                    FairnessReport::evaluate_proportion(group, ranking, &fairness)
                })
                .map_err(err)?;
            self.rec
                .time("fairness.discounted", req, parent, || {
                    FairnessReport::evaluate_discounted(group, ranking)
                })
                .map_err(err)?;
        }
        self.rec
            .time("widget.diversity", req, parent, || {
                DiversityWidget::build(&ctx.table, &ctx.ranking, &ctx.config)
            })
            .map_err(err)?;
        self.rec.end(widgets);

        let json = self
            .rec
            .time("core.json", req, Some(root), || {
                rf_core::render_json(&label)
            })
            .map_err(err)?;
        self.json_bytes.push(json.len() as f64);
        let key = StoreKey {
            table: fingerprint,
            config: config.fingerprint(),
        };
        let json = Arc::new(json);
        let store = &self.store;
        self.rec.time("store.store", req, Some(root), || {
            store.store(key, rf_store::unix_millis_now(), json)
        });
        self.rec
            .time("store.flush", req, Some(root), || store.flush());
        let found = self.rec.time("store.lookup", req, Some(root), || {
            store.lookup(key, None, rf_store::unix_millis_now())
        });
        self.rec.end(root);
        found
            .map(|_| ())
            .ok_or_else(|| format!("{}: stored label not found on disk", op.path))
    }

    /// A warm label: the router on a memory hit, then the service lookup.
    /// The label is filled first, untraced, if the replay has not yet.
    fn warm(&mut self, op: &Op) -> Result<(), String> {
        let (table, config) = self.resolve(&op.path)?;
        self.state.labels.label(&table, &config).map_err(err)?;
        let (req, root) = self.begin_request();
        let request = self.parse(op, b"", req, root)?;
        let state = &self.state;
        let response = self
            .rec
            .time("server.route", req, Some(root), || route(state, &request));
        self.rec
            .time("core.lookup", req, Some(root), || {
                state.labels.label(&table, &config)
            })
            .map_err(err)?;
        self.rec.end(root);
        if response.status.code() == 200 {
            Ok(())
        } else {
            Err(format!(
                "{}: route answered {}",
                op.path,
                response.status.code()
            ))
        }
    }

    /// A read the disk tier serves: the store's lookup of the entry the
    /// fill wrote.
    fn disk_read(&mut self, op: &Op) -> Result<(), String> {
        let (table, config) = self.resolve(&op.path)?;
        let key = StoreKey {
            table: table.fingerprint(),
            config: config.fingerprint(),
        };
        let (req, root) = self.begin_request();
        self.parse(op, b"", req, root)?;
        let store = &self.store;
        let found = self.rec.time("store.lookup", req, Some(root), || {
            store.lookup(key, None, rf_store::unix_millis_now())
        });
        self.rec.end(root);
        found
            .map(|_| ())
            .ok_or_else(|| format!("{}: not on disk", op.path))
    }

    /// An upload: parse the CSV (`table.csv_parse`), then install it
    /// through the router, untraced, so later reads resolve to it.
    fn upload(&mut self, op: &Op, csv: &str) -> Result<(), String> {
        let (req, root) = self.begin_request();
        let request = self.parse(op, csv.as_bytes(), req, root)?;
        self.rec
            .time("table.csv_parse", req, Some(root), || {
                rf_datasets::load_csv_str(csv)
            })
            .map_err(err)?;
        self.rec.end(root);
        let response = route(&self.state, &request);
        if response.status.code() == 200 {
            Ok(())
        } else {
            Err(format!(
                "{}: upload answered {}",
                op.path,
                response.status.code()
            ))
        }
    }

    /// Parses the CSV form of a catalogue table, for workloads that upload
    /// nothing: what uploading that table would cost.
    fn csv_probe(&mut self, slug: &str) -> Result<(), String> {
        let entry = self
            .state
            .catalog
            .get(slug)
            .ok_or_else(|| format!("unknown dataset {slug}"))?;
        let csv = rf_table::write_csv_string(&entry.table);
        for _ in 0..3 {
            let (req, root) = self.begin_request();
            self.rec
                .time("table.csv_parse", req, Some(root), || {
                    rf_datasets::load_csv_str(&csv)
                })
                .map_err(err)?;
            self.rec.end(root);
        }
        Ok(())
    }
}

impl Drop for Replay {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Replays the workload until `seconds` pass (at least one operation), then
/// probes whatever layer the replay did not reach.
fn replay(plan: &Plan, nproc: usize, seconds: f64) -> Result<Replay, String> {
    let mut replay = Replay::new(plan.workload, nproc)?;
    let started = Instant::now();
    // Set-up's own requests come first, so every later request finds what
    // set-up left behind.
    let mut ops: Vec<Op> = Vec::new();
    match plan.workload {
        Workload::WarmHttp => {
            for path in &plan.warm_paths {
                ops.push(Op {
                    post: false,
                    path: path.clone(),
                    kind: OpKind::Cold {
                        expect: 0,
                        mc_seed: 0,
                        deadline_ms: None,
                    },
                });
            }
        }
        Workload::SpillChurn => ops.push(plan.upload_op(plan::SETUP_EPOCH)),
        _ => {}
    }
    let mut filled: HashSet<String> = HashSet::new();
    let mut round = 0;
    'replay: loop {
        for op in ops.drain(..) {
            match &op.kind {
                OpKind::Cold { .. } => replay.cold(&op)?,
                OpKind::Warm { .. } => replay.warm(&op)?,
                OpKind::Upload { epoch } => {
                    filled.clear();
                    replay.upload(&op, &plan.upload(*epoch).csv)?;
                }
                OpKind::Read { .. } => {
                    if filled.insert(op.path.clone()) {
                        replay.cold(&op)?;
                    } else {
                        replay.disk_read(&op)?;
                    }
                }
            }
            if (started.elapsed().as_secs_f64() > seconds && replay.next_request > 0)
                || replay.next_request >= MAX_REPLAY_REQUESTS
            {
                break 'replay;
            }
        }
        ops = plan.round(0, round);
        round += 1;
    }
    let has = |replay: &Replay, name: &str| replay.rec.spans().iter().any(|s| s.name == name);
    if !has(&replay, "server.route") {
        let warm = plan.warm_up();
        for _ in 0..PROBE_REPEATS {
            replay.warm(&warm)?;
        }
    }
    if !has(&replay, "table.csv_parse") {
        let slug = match plan.workload {
            Workload::Synth100kCold => "synth-100k",
            _ => plan::DEMO[1].0,
        };
        replay.csv_probe(slug)?;
    }
    Ok(replay)
}

/// Per-layer values from the replay's spans: per request, the self time of
/// each layer summed over its spans; per layer, the median over requests.
fn layer_metrics(replay: &Replay, metrics: &mut BTreeMap<&'static str, f64>) {
    let spans = replay.rec.spans();
    let self_ns = spans::self_times(spans);
    let mut per_request: BTreeMap<(&str, u64), f64> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(&self_ns) {
        *per_request.entry((span.name, span.request)).or_default() += *ns as f64;
    }
    for (span, metric, scale) in TIMED {
        let mut values: Vec<f64> = per_request
            .iter()
            .filter(|((name, _), _)| *name == span)
            .map(|(_, ns)| ns / scale)
            .collect();
        metrics.insert(
            metric,
            if values.is_empty() {
                0.0
            } else {
                median(&mut values)
            },
        );
    }
    // The widget fan-out: what the widgets cost one after another, over
    // what the parallel render took, per cold request.
    let mut speedups = Vec::new();
    let mut per_trial = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        if span.name == "core.widgets" {
            let sequential: f64 = spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.parent == Some(index))
                .map(|(_, ns)| *ns as f64)
                .sum();
            if let Some(render) = spans
                .iter()
                .find(|s| s.request == span.request && s.name == "core.render")
            {
                speedups.push(sequential / (render.end - render.start) as f64);
            }
        }
        if span.name == "stability.mc" {
            if let Some(&trials) = replay.trials.get(&span.request) {
                per_trial.push(self_ns[index] as f64 / 1e3 / trials.max(1) as f64);
            }
        }
    }
    metrics.insert("core.fanout_speedup", median(&mut speedups));
    metrics.insert("stability.mc_us_per_trial", median(&mut per_trial));
    let mut bytes = replay.json_bytes.clone();
    metrics.insert("core.json_bytes", median(&mut bytes));
    let tasks = replay.waits.0.load(Ordering::Relaxed);
    let waited = replay.waits.1.load(Ordering::Relaxed) as f64;
    metrics.insert("runtime.queue_wait_ms", waited / tasks.max(1) as f64 / 1e6);
}

/// Nanoseconds one span costs to record.
fn span_cost_ns() -> f64 {
    let mut rec = Recorder::new();
    let started = Instant::now();
    for i in 0..10_000 {
        rec.time("probe", i, None, || ());
    }
    started.elapsed().as_nanos() as f64 / 10_000.0
}

pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let plan = Plan::new(workload, seed);
    let mut env = Env::set_up(&plan, nproc)?;
    let mut problems = Vec::new();
    if let Err(e) = run::verify_set_up(&mut env) {
        problems.push(e);
    }
    let phase_seconds = (seconds / 2.0).max(0.5);

    // Counts: `/stats` deltas around an untraced HTTP phase.
    let before = client::stats(env.addr)?;
    let phase = run::drive(&env, phase_seconds, true)?;
    let after = client::stats(env.addr)?;
    let threads = procfs::threads();
    if phase.mismatches > 0 {
        problems.push(format!(
            "{} responses failed their checks: {}",
            phase.mismatches,
            phase.first_mismatches.join("; ")
        ));
    }
    let delta =
        |path: &str| (client::counter(&after, path) - client::counter(&before, path)) as f64;
    let requests = phase.attempted as f64;
    let lookups = delta("cache.hits") + delta("cache.misses");
    let written =
        phase.disk_bytes_at_uploads.iter().sum::<u64>() + client::counter(&after, "disk.bytes");
    let written = written.saturating_sub(client::counter(&before, "disk.bytes")) as f64;
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    metrics.insert(
        "core.preparations_per_req",
        delta("preparations") / requests,
    );
    metrics.insert(
        "core.memory_hit_ratio",
        if lookups > 0.0 {
            delta("cache.hits") / lookups
        } else {
            0.0
        },
    );
    metrics.insert(
        "core.evictions_per_req",
        delta("cache.evictions") / requests,
    );
    metrics.insert(
        "runtime.tasks_per_req",
        delta("scheduler.executed_jobs") / requests,
    );
    metrics.insert(
        "runtime.steals_per_req",
        delta("scheduler.steals") / requests,
    );
    metrics.insert("process.threads", threads as f64);
    let reads = phase.reads.max(1) as f64;
    metrics.insert(
        "store.disk_hit_ratio",
        if phase.reads > 0 {
            delta("disk.disk_hits") / reads
        } else {
            0.0
        },
    );
    metrics.insert("store.bytes_written_per_req", written / requests);

    // Warm round trips for the I/O plane's share.
    let warm = plan.warm_up();
    let mut conn = Conn::connect(env.addr).map_err(err)?;
    plan::send_ok(&mut conn, &warm, b"")?;
    let mut round_trips = Vec::new();
    let started = Instant::now();
    while round_trips.len() < ROUND_TRIPS
        && (round_trips.len() < 5 || started.elapsed() < Duration::from_secs(1))
    {
        let sent = Instant::now();
        plan::send_ok(&mut conn, &warm, b"")?;
        round_trips.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    drop(conn);
    env.stop()?;

    // Per-layer times: the in-process replay.
    let replay = replay(&plan, nproc, phase_seconds)?;
    layer_metrics(&replay, &mut metrics);
    let round_trip_us = median(&mut round_trips);
    metrics.insert("net.io_us", round_trip_us - metrics["server.route_us"]);

    let out = std::path::Path::new("labelbench/.out");
    std::fs::create_dir_all(out).map_err(err)?;
    let path = out.join(format!("spans-{}-{seed}.jsonl", workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(err)?);
    spans::dump(replay.rec.spans(), &mut file).map_err(err)?;
    std::io::Write::flush(&mut file).map_err(err)?;

    let mut latencies: Vec<f64> = phase
        .samples
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let spans_per_request = replay.rec.spans().len() as f64 / replay.next_request.max(1) as f64;
    println!(
        "{}: traced replay of {} requests ({} spans) in {path:?}; HTTP phase {} requests, p50 {:.3} ms; \
         warm round trip p50 {round_trip_us:.1} us; recording costs {:.0} ns per span, {spans_per_request:.1} spans per request",
        workload.name(),
        replay.next_request,
        replay.rec.spans().len(),
        phase.attempted,
        median(&mut latencies),
        span_cost_ns(),
    );
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, metrics.get(name).copied().unwrap_or(f64::NAN), *unit))
            .collect(),
    })
}
