//! The four workloads: how each one's request sequence derives from the
//! seed, and how each one's server is set up.
//!
//! A run's requests are a pure function of `(workload, seed)`: every client
//! replays whole rounds of [`Plan::round`], so every run does the same work
//! in the same proportions whatever its length.

use crate::check::{Expect, Truth};
use crate::client::Conn;
use rf_server::{AppState, DatasetCatalog, Server, ServerOptions};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Rows of the registered synthetic scenario `synth_100k_cold` labels.
pub const SYNTH_ROWS: usize = 100_000;
/// Requests per `synth_100k_cold` round; the last one carries a deadline.
pub const SYNTH_ROUND: usize = 8;
/// The deadline of the late request in each `synth_100k_cold` round, far
/// below the ~2 s a 10⁵-row label takes today.
pub const SYNTH_DEADLINE_MS: u64 = 50;
/// `spill_churn`: the `k` values of the working set (one cache key each).
pub const SPILL_KS: std::ops::RangeInclusive<usize> = 5..=20;
/// `spill_churn`: memory-cache entries, well below the working set.
pub const SPILL_MEMORY_ENTRIES: usize = 4;
/// `spill_churn`: passes over the working set between two uploads.
pub const SPILL_CYCLES: usize = 4;
/// `spill_churn`: rows of each uploaded CSV.
pub const SPILL_ROWS: usize = 400;
/// `spill_churn`: the catalogue slug the uploads replace.
pub const SPILL_SLUG: &str = "churn";
/// `warm_http`: `k` values of the cs-departments labels in the warm set
/// (the set also holds one German-credit and one COMPAS label).
pub const WARM_CS_KS: std::ops::RangeInclusive<usize> = 5..=12;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DemoCold,
    Synth100kCold,
    WarmHttp,
    SpillChurn,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DemoCold,
        Workload::Synth100kCold,
        Workload::WarmHttp,
        Workload::SpillChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DemoCold => "demo_cold",
            Workload::Synth100kCold => "synth_100k_cold",
            Workload::WarmHttp => "warm_http",
            Workload::SpillChurn => "spill_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections: `nproc` keep-alive connections for
    /// the warm path, one waiting user for everything else.
    pub fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::WarmHttp => nproc,
            _ => 1,
        }
    }

    /// The fixed tail percentile (see README): the highest one that leaves
    /// at least ten samples beyond it at a 25 s run and whose run-to-run
    /// spread stays inside the metric's bound on a shared 2-vCPU host.
    /// `None` where a run completes fewer than 40 requests; the slowest
    /// request stands in.
    pub fn tail_percentile(self) -> Option<f64> {
        match self {
            Workload::DemoCold | Workload::WarmHttp | Workload::SpillChurn => Some(90.0),
            Workload::Synth100kCold => None,
        }
    }
}

/// What an operation is, for checking its response.
#[derive(Debug, Clone)]
pub enum OpKind {
    /// A label that misses every cache tier; checked against the
    /// recomputation named by `expect` (an index into [`Env::expects`]).
    Cold {
        expect: usize,
        mc_seed: u64,
        deadline_ms: Option<u64>,
    },
    /// A label set-up filled; the body must equal that fill byte for byte.
    Warm { key: usize },
    /// A `spill_churn` read of working-set entry `key`: the first read after
    /// an upload is a cold fill (checked against a recomputation on the
    /// uploaded rows), later ones must equal that fill byte for byte.
    Read { key: usize },
    /// A `spill_churn` upload of [`Plan::upload`]`(epoch)`.
    Upload { epoch: u64 },
}

/// One request of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    pub post: bool,
    pub path: String,
    pub kind: OpKind,
}

impl Op {
    fn get(path: String, kind: OpKind) -> Op {
        Op {
            post: false,
            path,
            kind,
        }
    }

    pub fn is_label(&self) -> bool {
        !matches!(self.kind, OpKind::Upload { .. })
    }

    pub fn deadline(&self) -> Option<Duration> {
        match self.kind {
            OpKind::Cold {
                deadline_ms: Some(ms),
                ..
            } => Some(Duration::from_millis(ms)),
            _ => None,
        }
    }
}

/// SplitMix64: the benchmark's only source of seeded variation.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of `u64`s.
pub struct Stream(u64);

impl Stream {
    pub fn new(parts: &[u64]) -> Stream {
        Stream(parts.iter().fold(0x5EED, |acc, &p| mix(acc ^ p)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// The demo datasets `demo_cold` cycles through, with their audited `k`.
pub const DEMO: [(&str, usize); 3] = [
    ("cs-departments", 10),
    ("german-credit", 100),
    ("compas", 100),
];

/// The request sequence of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// `warm_http`'s fixed label paths (set-up fills them).
    pub warm_paths: Vec<String>,
}

/// A seeded `spill_churn` upload: the CSV body and the ground truth
/// recomputed from its own rows.
pub struct Upload {
    pub csv: String,
    pub truth: Truth,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut stream = Stream::new(&[seed, 0xA11]);
        let mut warm_paths: Vec<String> = WARM_CS_KS
            .map(|k| {
                format!(
                    "/datasets/cs-departments/label.json?k={k}&mc_seed={}",
                    stream.next()
                )
            })
            .collect();
        warm_paths.push(format!(
            "/datasets/german-credit/label.json?mc_seed={}",
            stream.next()
        ));
        warm_paths.push(format!(
            "/datasets/compas/label.json?mc_seed={}",
            stream.next()
        ));
        Plan {
            workload,
            seed,
            warm_paths,
        }
    }

    fn cold(slug: &str, k: usize, expect: usize, mc_seed: u64, deadline: Option<u64>) -> Op {
        let mut path = format!("/datasets/{slug}/label.json?k={k}&mc_seed={mc_seed}");
        if let Some(ms) = deadline {
            path.push_str(&format!("&deadline_ms={ms}"));
        }
        Op::get(
            path,
            OpKind::Cold {
                expect,
                mc_seed,
                deadline_ms: deadline,
            },
        )
    }

    /// The path of working-set entry `key` in `spill_churn`.
    pub fn spill_path(key: usize) -> String {
        let k = SPILL_KS.start() + key;
        format!("/datasets/{SPILL_SLUG}/label.json?k={k}")
    }

    pub fn spill_keys() -> usize {
        SPILL_KS.count()
    }

    /// Round `round` of client `client`.  Rounds never share an `mc_seed`
    /// with each other or with set-up, so cold requests stay cold.
    pub fn round(&self, client: usize, round: u64) -> Vec<Op> {
        let mut stream = Stream::new(&[self.seed, client as u64, round, 0xC01D]);
        match self.workload {
            Workload::DemoCold => DEMO
                .iter()
                .enumerate()
                .map(|(i, (slug, k))| Self::cold(slug, *k, i, stream.next(), None))
                .collect(),
            Workload::Synth100kCold => (0..SYNTH_ROUND)
                .map(|i| {
                    let deadline = (i + 1 == SYNTH_ROUND).then_some(SYNTH_DEADLINE_MS);
                    Self::cold("synth-100k", 100, 0, stream.next(), deadline)
                })
                .collect(),
            Workload::WarmHttp => stream
                .permutation(self.warm_paths.len())
                .into_iter()
                .map(|key| Op::get(self.warm_paths[key].clone(), OpKind::Warm { key }))
                .collect(),
            Workload::SpillChurn => {
                let order = stream.permutation(Self::spill_keys());
                let mut ops = vec![self.upload_op(round)];
                for _ in 0..SPILL_CYCLES {
                    for &key in &order {
                        ops.push(Op::get(Self::spill_path(key), OpKind::Read { key }));
                    }
                }
                ops
            }
        }
    }

    /// The untimed warm-up request set-up sends last.
    pub fn warm_up(&self) -> Op {
        let mut stream = Stream::new(&[self.seed, 0x3A3]);
        match self.workload {
            Workload::DemoCold => Self::cold("german-credit", 100, 1, stream.next(), None),
            Workload::Synth100kCold => Self::cold("synth-100k", 100, 0, stream.next(), None),
            Workload::WarmHttp => Op::get(self.warm_paths[0].clone(), OpKind::Warm { key: 0 }),
            Workload::SpillChurn => Op::get(Self::spill_path(0), OpKind::Read { key: 0 }),
        }
    }

    /// The upload request of epoch `epoch` (set-up uses [`SETUP_EPOCH`]).
    pub fn upload_op(&self, epoch: u64) -> Op {
        Op {
            post: true,
            path: format!(
                "/datasets/{SPILL_SLUG}?score_attrs=a,b,c&weights=0.5,0.3,0.2\
                 &sensitive=grp&protected=x&diversity=region&k=10"
            ),
            kind: OpKind::Upload { epoch },
        }
    }

    /// The seeded CSV of upload `epoch`, with the truth its labels are
    /// checked against (computed from the generated values, not from the
    /// program's parse of them).
    pub fn upload(&self, epoch: u64) -> Upload {
        let mut stream = Stream::new(&[self.seed, epoch, 0x0B1]);
        let regions = ["north", "south", "east", "west"];
        let mut csv = String::from("name,a,b,c,grp,region\n");
        let mut numeric = [Vec::new(), Vec::new(), Vec::new()];
        let mut grp = Vec::new();
        let mut region = Vec::new();
        for row in 0..SPILL_ROWS {
            let mut line = format!("r{row}");
            for column in &mut numeric {
                // Three decimals, parsed back, so the truth uses exactly the
                // values the CSV carries.
                let text = format!("{:.3}", (stream.next() % 100_000) as f64 / 1000.0);
                column.push(text.parse::<f64>().expect("formatted float parses"));
                line.push(',');
                line.push_str(&text);
            }
            let g = if stream.next().is_multiple_of(3) {
                "x"
            } else {
                "y"
            };
            let r = regions[(stream.next() % 4) as usize];
            line.push_str(&format!(",{g},{r}\n"));
            csv.push_str(&line);
            grp.push(Some(g.to_string()));
            region.push(Some(r.to_string()));
        }
        let [a, b, c] = numeric;
        let truth = Truth::new(
            &[(0.5, a), (0.3, b), (0.2, c)],
            vec![("grp".to_string(), "x".to_string(), grp.clone())],
            vec![("grp".to_string(), grp), ("region".to_string(), region)],
        );
        Upload { csv, truth }
    }
}

/// The epoch number of set-up's upload (timed rounds use 0, 1, ...).
pub const SETUP_EPOCH: u64 = u64::MAX;

/// Monte-Carlo trials every label requests (the server default).
pub const TRIALS: usize = 32;

/// A running in-process server plus everything its checks need.
pub struct Env {
    pub plan: Plan,
    pub addr: SocketAddr,
    pub nproc: usize,
    /// Ground truth for cold requests, indexed by `OpKind::Cold::expect`.
    pub expects: Vec<(String, usize, Arc<Truth>)>,
    /// `warm_http`: the body set-up's fill returned for each warm path.
    pub fills: Vec<Vec<u8>>,
    /// `spill_churn`: the fresh disk-tier directory (removed on stop).
    pub cache_dir: Option<PathBuf>,
    /// The catalogue tables the server was built over (by slug).
    pub tables: HashMap<String, (Arc<rf_table::Table>, rf_core::LabelConfig)>,
    /// Body of set-up's warm-up response (the self-test's untampered label).
    pub warm_up_body: Vec<u8>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

/// The catalogue a workload's server is built over.
pub fn catalog(workload: Workload) -> DatasetCatalog {
    match workload {
        Workload::DemoCold | Workload::WarmHttp => DatasetCatalog::with_demo_datasets(),
        Workload::Synth100kCold => {
            let catalog = DatasetCatalog::new();
            catalog.register_synth_scenario(SYNTH_ROWS);
            catalog
        }
        Workload::SpillChurn => DatasetCatalog::new(),
    }
}

/// The server options of a workload: one reactor, `nproc` label workers,
/// and for `spill_churn` a small memory cache over a fresh disk tier.
pub fn server_options(
    workload: Workload,
    nproc: usize,
    cache_dir: Option<&PathBuf>,
) -> ServerOptions {
    let mut options = ServerOptions {
        bind_address: "127.0.0.1:0".to_string(),
        workers: nproc,
        reactors: 1,
        ..ServerOptions::default()
    };
    if workload == Workload::SpillChurn {
        options.cache_entries = SPILL_MEMORY_ENTRIES;
        options.cache_dir = cache_dir.map(|dir| dir.display().to_string());
    }
    options
}

/// A fresh directory under `labelbench/.run/` in the checkout.
pub fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from("labelbench/.run").join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Sends one operation and fails on anything but `200 OK`.
pub fn send_ok(conn: &mut Conn, op: &Op, body: &[u8]) -> Result<Vec<u8>, String> {
    let (status, response) = conn
        .send(op.post, &op.path, body)
        .map_err(|e| format!("{}: {e}", op.path))?;
    if status != 200 {
        return Err(format!(
            "{} answered {status}: {}",
            op.path,
            String::from_utf8_lossy(&response)
        ));
    }
    Ok(response)
}

impl Env {
    /// Set-up: table generation, server bind, cache fills, and one untimed
    /// warm-up request.  Everything `setup_s` times.
    pub fn set_up(plan: &Plan, nproc: usize) -> Result<Env, String> {
        let workload = plan.workload;
        let catalog = catalog(workload);
        let tables: HashMap<_, _> = catalog
            .list()
            .into_iter()
            .map(|entry| (entry.slug, (entry.table, entry.config)))
            .collect();
        let cache_dir = match workload {
            Workload::SpillChurn => Some(fresh_dir("spill")?),
            _ => None,
        };
        let options = server_options(workload, nproc, cache_dir.as_ref());
        let state = AppState::with_service(catalog, options.label_service());
        let server = Server::bind_state(state, &options.server_config())
            .map_err(|e| format!("cannot bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::Builder::new()
            .name("bench-server".to_string())
            .spawn(move || server.run())
            .map_err(|e| e.to_string())?;
        let mut env = Env {
            plan: plan.clone(),
            addr,
            nproc,
            expects: Vec::new(),
            fills: Vec::new(),
            cache_dir,
            tables,
            warm_up_body: Vec::new(),
            shutdown,
            thread: Some(thread),
        };
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        match workload {
            Workload::WarmHttp => {
                for path in &plan.warm_paths {
                    let op = Op::get(path.clone(), OpKind::Warm { key: 0 });
                    env.fills.push(send_ok(&mut conn, &op, b"")?);
                }
            }
            Workload::SpillChurn => {
                let upload = plan.upload(SETUP_EPOCH);
                send_ok(
                    &mut conn,
                    &plan.upload_op(SETUP_EPOCH),
                    upload.csv.as_bytes(),
                )?;
                for key in 0..Plan::spill_keys() {
                    let fill = Op::get(Plan::spill_path(key), OpKind::Read { key });
                    send_ok(&mut conn, &fill, b"")?;
                }
            }
            Workload::DemoCold | Workload::Synth100kCold => {}
        }
        env.warm_up_body = send_ok(&mut conn, &plan.warm_up(), b"")?;
        Ok(env)
    }

    /// The ground truth of every catalogue label the workload requests.
    /// Computed after set-up's clock stops: it is the benchmark's own work.
    pub fn compute_truth(&mut self) -> Result<(), String> {
        let wanted: Vec<(&str, usize)> = match self.plan.workload {
            Workload::DemoCold | Workload::WarmHttp => DEMO.to_vec(),
            Workload::Synth100kCold => vec![("synth-100k", 100)],
            Workload::SpillChurn => Vec::new(),
        };
        for (slug, k) in wanted {
            let (table, config) = self
                .tables
                .get(slug)
                .ok_or_else(|| format!("catalogue lacks {slug}"))?;
            let truth = Truth::from_table(table, config)?;
            self.expects.push((slug.to_string(), k, Arc::new(truth)));
        }
        Ok(())
    }

    /// The expectation of a cold label.
    pub fn expect(&self, expect: usize, mc_seed: Option<u64>) -> Expect {
        let (_, k, truth) = &self.expects[expect];
        Expect {
            truth: Arc::clone(truth),
            k: *k,
            trials: TRIALS,
            mc_seed,
        }
    }

    /// The expectation of `warm_http`'s warm path `key`: the path's `k`
    /// (cs-departments paths carry it; the other two use their default).
    pub fn warm_expect(&self, key: usize) -> Expect {
        let path = &self.plan.warm_paths[key];
        let index = DEMO
            .iter()
            .position(|(slug, _)| path.starts_with(&format!("/datasets/{slug}/")))
            .expect("warm paths name demo datasets");
        let k = query(path, "k").map_or(DEMO[index].1, |k| k as usize);
        let (_, _, truth) = &self.expects[index];
        Expect {
            truth: Arc::clone(truth),
            k,
            trials: TRIALS,
            mc_seed: query(path, "mc_seed"),
        }
    }

    /// Stops the server, waits for its threads, and removes its disk tier.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::Relaxed);
        let result = match self.thread.take().map(std::thread::JoinHandle::join) {
            Some(Ok(Ok(()))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("server error: {e}")),
            Some(Err(_)) => Err("server thread panicked".to_string()),
        };
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        result
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        if let Some(dir) = self.cache_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A numeric query parameter of a request path.
pub fn query(path: &str, name: &str) -> Option<u64> {
    let (_, query) = path.split_once('?')?;
    query.split('&').find_map(|pair| {
        let (key, value) = pair.split_once('=')?;
        (key == name).then(|| value.parse().ok()).flatten()
    })
}
