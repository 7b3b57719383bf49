//! The closed-loop load loop and the untraced run's end-to-end metrics.

use crate::check::{self, Expect, Truth};
use crate::client::{self, Conn};
use crate::plan::{Env, Op, OpKind, Plan, Workload, SPILL_KS, TRIALS};
use crate::procfs;
use crate::Report;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The share of `spill_churn` reads that must be served from disk.  A
/// round is one upload, 16 cold fills and 48 reads of entries the fills
/// wrote behind, so the share is 0.75 when every write lands in time.
pub const SPILL_MIN_DISK_SHARE: f64 = 0.70;

/// What one closed-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latency of every operation that did not fail.
    pub samples: Vec<Duration>,
    pub attempted: u64,
    pub failed: u64,
    /// `spill_churn` label reads.
    pub reads: u64,
    pub label_bytes: u64,
    pub labels: u64,
    /// Timed wall and process CPU time: for one client the sum over its
    /// requests (the checks between requests are not timed), for several
    /// the phase as a whole.
    pub wall: Duration,
    pub cpu: Duration,
    /// Output-check failures, and the first few of their messages.
    pub mismatches: u64,
    pub first_mismatches: Vec<String>,
    /// Disk-tier bytes found just before each upload (`scrape_uploads`).
    pub disk_bytes_at_uploads: Vec<u64>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reads += other.reads;
        self.label_bytes += other.label_bytes;
        self.labels += other.labels;
        self.wall += other.wall;
        self.cpu += other.cpu;
        self.mismatches += other.mismatches;
        self.first_mismatches.extend(other.first_mismatches);
        self.disk_bytes_at_uploads
            .extend(other.disk_bytes_at_uploads);
    }

    fn mismatch(&mut self, op: &Op, message: String) {
        self.mismatches += 1;
        if self.first_mismatches.len() < 3 {
            self.first_mismatches
                .push(format!("{}: {message}", op.path));
        }
    }
}

/// Per-client check state for `spill_churn`: the current upload's truth and
/// the fill of every working-set entry since that upload.
struct SpillState {
    truth: Option<Arc<Truth>>,
    fills: Vec<Option<Vec<u8>>>,
}

/// Runs whole rounds on every client until the next round would pass
/// `seconds` of timed work.
pub fn drive(env: &Env, seconds: f64, scrape_uploads: bool) -> Result<Phase, String> {
    let clients = env.plan.workload.clients(env.nproc);
    let limit = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let cpu_started = procfs::cpu_time();
    let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || drive_client(env, c, limit, clients == 1, scrape_uploads)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut phase = Phase::default();
    for result in results {
        phase.merge(result?);
    }
    if clients > 1 {
        phase.wall = started.elapsed();
        phase.cpu = procfs::cpu_time() - cpu_started;
    }
    Ok(phase)
}

fn drive_client(
    env: &Env,
    client: usize,
    limit: Duration,
    single: bool,
    scrape_uploads: bool,
) -> Result<Phase, String> {
    let mut conn = Conn::connect(env.addr).map_err(|e| format!("connect: {e}"))?;
    let mut phase = Phase::default();
    let mut spill = SpillState {
        truth: None,
        fills: vec![None; Plan::spill_keys()],
    };
    let mut busy = Duration::ZERO;
    for round in 0u64.. {
        if round > 0 && busy + busy / round as u32 > limit {
            break;
        }
        for op in env.plan.round(client, round) {
            let upload = match op.kind {
                OpKind::Upload { epoch } => Some(env.plan.upload(epoch)),
                _ => None,
            };
            if scrape_uploads && upload.is_some() {
                let stats = client::stats(env.addr)?;
                phase
                    .disk_bytes_at_uploads
                    .push(client::counter(&stats, "disk.bytes"));
            }
            let body = upload.as_ref().map_or(&[][..], |u| u.csv.as_bytes());
            let cpu_before = if single {
                procfs::cpu_time()
            } else {
                Duration::ZERO
            };
            let sent = Instant::now();
            let (status, response) = conn
                .send(op.post, &op.path, body)
                .map_err(|e| format!("{}: {e}", op.path))?;
            let latency = sent.elapsed();
            if single {
                phase.cpu += procfs::cpu_time() - cpu_before;
                phase.wall += latency;
            }
            busy += latency;
            phase.attempted += 1;
            let late = op.deadline().is_some_and(|deadline| latency > deadline);
            if late || status != 200 {
                phase.failed += 1;
            } else {
                phase.samples.push(latency);
            }
            if status != 200 {
                eprintln!("{} answered {status}", op.path);
                continue;
            }
            if op.is_label() {
                phase.labels += 1;
                phase.label_bytes += response.len() as u64;
            }
            check_response(
                env,
                &op,
                &response,
                upload.map(|u| u.truth),
                &mut spill,
                &mut phase,
            );
        }
    }
    Ok(phase)
}

/// Holds one response against what the workload says it must be.
fn check_response(
    env: &Env,
    op: &Op,
    response: &[u8],
    upload: Option<Truth>,
    spill: &mut SpillState,
    phase: &mut Phase,
) {
    let verdict = match op.kind {
        OpKind::Cold {
            expect,
            mc_seed,
            deadline_ms,
        } => check::check_label(
            response,
            &env.expect(expect, Some(mc_seed)),
            deadline_ms.is_some(),
        ),
        OpKind::Warm { key } => {
            if response == env.fills[key].as_slice() {
                Ok(())
            } else {
                Err("warm body differs from its fill".to_string())
            }
        }
        OpKind::Read { key } => {
            phase.reads += 1;
            match (&spill.fills[key], &spill.truth) {
                (Some(fill), _) if fill.as_slice() == response => Ok(()),
                (Some(_), _) => Err("disk-served body differs from its fill".to_string()),
                (None, Some(truth)) => {
                    let expect = Expect {
                        truth: Arc::clone(truth),
                        k: SPILL_KS.start() + key,
                        trials: TRIALS,
                        mc_seed: None,
                    };
                    spill.fills[key] = Some(response.to_vec());
                    check::check_label(response, &expect, false)
                }
                (None, None) => Ok(()),
            }
        }
        OpKind::Upload { .. } => {
            spill.truth = upload.map(Arc::new);
            spill.fills.iter_mut().for_each(|fill| *fill = None);
            let summary = String::from_utf8_lossy(response);
            if summary.contains("\"cache_cleared\": true") {
                Ok(())
            } else {
                Err(format!("upload summary lacks cache_cleared: {summary}"))
            }
        }
    };
    if let Err(message) = verdict {
        phase.mismatch(op, message);
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `values`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Checks that the timed phase used the mechanism the workload is about,
/// from `/stats` deltas around it.
fn mechanism(
    workload: Workload,
    phase: &Phase,
    before: &serde_json::Value,
    after: &serde_json::Value,
) -> Result<String, String> {
    let delta = |path: &str| client::counter(after, path) - client::counter(before, path);
    let (preparations, hits, misses) = (
        delta("preparations"),
        delta("cache.hits"),
        delta("cache.misses"),
    );
    let disk_hits = delta("disk.disk_hits");
    let summary = format!(
        "preparations {preparations}, memory hits {hits}, misses {misses}, disk hits {disk_hits}, \
         evictions {}",
        delta("cache.evictions")
    );
    let ok = match workload {
        Workload::DemoCold | Workload::Synth100kCold => {
            preparations == phase.attempted && hits == 0
        }
        Workload::WarmHttp => preparations == 0 && hits == phase.attempted && misses == 0,
        Workload::SpillChurn => disk_hits as f64 >= SPILL_MIN_DISK_SHARE * phase.reads as f64,
    };
    if ok {
        Ok(summary)
    } else {
        Err(format!(
            "mechanism check failed ({summary}; {} requests)",
            phase.attempted
        ))
    }
}

/// Checks the fills set-up made and runs the checks' self-test.
pub fn verify_set_up(env: &mut Env) -> Result<(), String> {
    env.compute_truth()?;
    let plan = &env.plan;
    let warm_up = plan.warm_up();
    let expect = match (plan.workload, &warm_up.kind) {
        (Workload::SpillChurn, _) => {
            let truth = Arc::new(plan.upload(crate::plan::SETUP_EPOCH).truth);
            Expect {
                truth,
                k: *SPILL_KS.start(),
                trials: TRIALS,
                mc_seed: None,
            }
        }
        (
            _,
            OpKind::Cold {
                expect, mc_seed, ..
            },
        ) => env.expect(*expect, Some(*mc_seed)),
        _ => env.warm_expect(0),
    };
    for (key, fill) in env.fills.iter().enumerate() {
        check::check_label(fill, &env.warm_expect(key), false)
            .map_err(|e| format!("fill {key}: {e}"))?;
    }
    check::self_test(&env.warm_up_body, &expect)
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let plan = Plan::new(workload, seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut env: Option<Env> = None;
    for i in 0..SETUPS {
        if let Some(previous) = env.take() {
            previous.stop()?;
        }
        let started = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        env = Some(Env::set_up(&plan, nproc)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let mut problems = Vec::new();
    if let Err(e) = verify_set_up(&mut env) {
        problems.push(e);
    }

    let before = client::stats(env.addr)?;
    let steal = procfs::steal_ticks();
    let phase = drive(&env, seconds, false)?;
    let steal = procfs::steal_ticks() - steal;
    let after = client::stats(env.addr)?;
    let peak_rss_mb = procfs::peak_rss_mb();
    match mechanism(workload, &phase, &before, &after) {
        Ok(summary) => println!("mechanism: {summary}"),
        Err(e) => problems.push(e),
    }
    env.stop()?;
    if phase.mismatches > 0 {
        problems.push(format!(
            "{} responses failed their checks, first: {}",
            phase.mismatches,
            phase.first_mismatches.join("; ")
        ));
    }
    if phase.samples.is_empty() {
        return Err("no request succeeded".to_string());
    }

    let mut latencies: Vec<f64> = phase.samples.iter().map(|d| ms(*d)).collect();
    let p50 = median(&mut latencies);
    let (tail, tail_name) = match workload.tail_percentile() {
        Some(p) => (percentile(&latencies, p), format!("p{p}")),
        None => (*latencies.last().expect("samples"), "max".to_string()),
    };
    println!(
        "{}: {} requests ({} failed) on {} connection(s), nproc {nproc}; tail = {tail_name} of {} samples; \
         {steal} ticks of CPU stolen by the host",
        workload.name(),
        phase.attempted,
        phase.failed,
        workload.clients(nproc),
        latencies.len()
    );
    let ladder: Vec<String> = [90.0, 99.0, 99.9, 99.99]
        .iter()
        .filter(|&&p| latencies.len() as f64 * (1.0 - p / 100.0) >= 10.0)
        .map(|&p| format!("p{p} {:.3}", percentile(&latencies, p)))
        .collect();
    println!(
        "latency ms: p50 {p50:.3}, {}, max {:.3}",
        ladder.join(", "),
        latencies.last().expect("samples")
    );
    for problem in &problems {
        eprintln!("check failed: {problem}");
    }
    Ok(Report {
        correct: problems.is_empty(),
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: vec![
            ("setup_s", median(&mut setups), "s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_tail_ms", tail, "ms"),
            (
                "throughput_rps",
                phase.attempted as f64 / phase.wall.as_secs_f64(),
                "req/s",
            ),
            (
                "cpu_ms_per_req",
                ms(phase.cpu) / phase.attempted as f64,
                "ms",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            (
                "label_bytes",
                phase.label_bytes as f64 / phase.labels as f64,
                "bytes",
            ),
        ],
    })
}
