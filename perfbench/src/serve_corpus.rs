//! The `serve-corpus` workload: an in-process `coverme serve` daemon with a
//! fresh corpus store, driven by two closed-loop clients.
//!
//! One **round** starts a daemon on an ephemeral port over a fresh corpus
//! directory, lets both clients drain their job scripts, and shuts the
//! daemon down. Rounds repeat until the run's time is spent; every round
//! replays the same scripts, so each job's report must repeat exactly.

use std::io;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coverme::report::schema::{self, JsonValue};
use coverme::{Campaign, CampaignConfig, CorpusStore, CoverMeConfig};
use coverme_fpir::{compile, generate_source, ENTRY_NAME};
use coverme_repro::serve::{serve, submit_job, ServeOptions};

use crate::campaigns::{mix, settle, WORKERS};
use crate::output::{num, object, text, Outcome};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Recorder;

/// Closed-loop clients; each waits for `done` before its next job.
pub const CLIENTS: usize = 2;
/// Generator seeds of the inline-FPIR programs; client `c` owns every
/// seed with `seed % CLIENTS == c`.
pub const FPIR_POOL: std::ops::Range<u64> = 10..26;
/// Fresh Fdlibm functions per job, and their starting points. Sized so
/// that even the lightest group searches for well over the daemon's
/// ~40 ms delayed-ACK stall (about 70 ms), so job round trips measure the
/// job's work rather than the stall's timer.
pub const FDLIBM_GROUP: usize = 5;
pub const FDLIBM_JOB_N_START: usize = 800;
/// Fresh inline-FPIR programs per job, and their starting points (the
/// lightest group searches for about 60 ms).
pub const FPIR_GROUP: usize = 4;
pub const FPIR_JOB_N_START: usize = 40;
/// Step fuel of every inline-FPIR job.
pub const JOB_FUEL: usize = 2_000;
/// Concurrent jobs the daemon admits (more than `CLIENTS`, so a closed
/// loop is never refused while a finished job's slot is still unwinding).
pub const MAX_JOBS: usize = 4;
/// Pings timed per round.
pub const PINGS: usize = 5;
/// Daemon set-ups timed per run for `setup_s`.
pub const SETUP_REPS: usize = 31;

/// The functions of one job, in inventory order.
#[derive(Debug, Clone)]
enum Items {
    /// Fdlibm function names.
    Fdlibm(Vec<String>),
    /// Inline FPIR sources.
    Fpir(Vec<String>),
}

impl Items {
    /// Starting points per function of a job of this kind.
    fn n_start(&self) -> usize {
        match self {
            Items::Fdlibm(_) => FDLIBM_JOB_N_START,
            Items::Fpir(_) => FPIR_JOB_N_START,
        }
    }
}

/// One job of a client script.
#[derive(Debug, Clone)]
struct Job {
    /// The request line.
    request: String,
    seed: u64,
    items: Items,
    /// Per inventory position: whether the function exactly repeats one of
    /// an earlier job (same program, seed and `n_start`).
    repeats: Vec<bool>,
}

fn campaign_request(tenant: &str, seed: u64, items: &Items) -> String {
    let inventory = match items {
        Items::Fdlibm(names) => vec![
            ("suite", text("fdlibm")),
            (
                "functions",
                JsonValue::Array(names.iter().map(|n| text(n.clone())).collect()),
            ),
        ],
        Items::Fpir(sources) => vec![
            ("fuel", num(JOB_FUEL as f64)),
            (
                "sources",
                JsonValue::Array(
                    sources
                        .iter()
                        .map(|source| {
                            object(vec![
                                ("path", text(format!("{ENTRY_NAME}.fpir"))),
                                ("text", text(source.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ],
    };
    let mut members = vec![
        ("op", text("campaign")),
        ("tenant", text(tenant)),
        ("seed", num(seed as f64)),
        ("n_start", num(items.n_start() as f64)),
    ];
    members.extend(inventory);
    // Newline-terminated, so `submit_job` sends the frame in one write.
    let mut line = object(members).to_compact();
    line.push('\n');
    line
}

/// Shuffles `items` with a seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The inventories of one kind of job: `pool` dealt round-robin into
/// groups of `size` (so each group mixes light and heavy functions the
/// same way for every seed), the groups in seeded order. Job `k` searches
/// group `k` fresh and carries group `k - 1` once more as exact repeats.
///
/// Generated FPIR programs all share the entry function's name, so the
/// campaign derives each one's search seed from its position among them.
/// Group `k` therefore always sits in slot `k % 2` of the inventory
/// (positions `0..size` or `size..2 * size`), where its repeat finds it
/// again.
fn kind_jobs(pool: Vec<String>, size: usize, seed: u64) -> Vec<(Vec<String>, Vec<bool>)> {
    let count = pool.len() / size;
    let mut groups: Vec<Vec<String>> = vec![Vec::new(); count];
    for (position, item) in pool.into_iter().enumerate() {
        groups[position % count].push(item);
    }
    shuffle(&mut groups, seed);
    (0..count)
        .map(|k| {
            let fresh = (groups[k].clone(), vec![false; size]);
            if k == 0 {
                return fresh;
            }
            let repeat = (groups[k - 1].clone(), vec![true; size]);
            let (first, second) = if k % 2 == 0 {
                (fresh, repeat)
            } else {
                (repeat, fresh)
            };
            ([first.0, second.0].concat(), [first.1, second.1].concat())
        })
        .collect()
}

/// The job script of client `client`. The client's 20 Fdlibm functions
/// make 4 jobs and its 8 FPIR programs 2 jobs (see [`kind_jobs`]), the two
/// kinds interleaved in seeded order. Every job after the first of its
/// kind repeats the previous one's fresh functions, so about half of all
/// searched functions are exact repeats. All jobs of one kind share a
/// search seed, which keeps a repeated function's search key. The two
/// clients' pools are disjoint, so their corpus entries never interact.
fn script(seed: u64, client: usize) -> Vec<Job> {
    let tenant = format!("client-{client}");
    let client_seed = mix(seed, 1000 + client as u64);
    let fdlibm: Vec<String> = coverme_fdlibm::suite::all()
        .iter()
        .enumerate()
        .filter(|(index, _)| index % CLIENTS == client)
        .map(|(_, b)| b.name.to_string())
        .collect();
    let fpir: Vec<String> = FPIR_POOL
        .filter(|s| *s as usize % CLIENTS == client)
        .map(generate_source)
        .collect();
    let mut fdlibm_jobs = kind_jobs(fdlibm, FDLIBM_GROUP, mix(client_seed, 1)).into_iter();
    let mut fpir_jobs = kind_jobs(fpir, FPIR_GROUP, mix(client_seed, 2)).into_iter();

    let mut jobs = Vec::new();
    for step in 0.. {
        let (left_fdlibm, left_fpir) = (fdlibm_jobs.len(), fpir_jobs.len());
        if left_fdlibm + left_fpir == 0 {
            break;
        }
        let draw = mix(client_seed, 4000 + step) % (left_fdlibm + left_fpir) as u64;
        let (items, repeats, kind) = if (draw as usize) < left_fdlibm {
            let (names, repeats) = fdlibm_jobs.next().expect("an Fdlibm job is left");
            (Items::Fdlibm(names), repeats, 3)
        } else {
            let (sources, repeats) = fpir_jobs.next().expect("an FPIR job is left");
            (Items::Fpir(sources), repeats, 4)
        };
        let job_seed = mix(client_seed, kind) >> 11;
        jobs.push(Job {
            request: campaign_request(&tenant, job_seed, &items),
            seed: job_seed,
            items,
            repeats,
        });
    }
    jobs
}

/// Timing fields of a campaign report, which differ between runs.
const TIMING_KEYS: &[&str] = &[
    "wall_time_s",
    "evals_per_second",
    "effective_evals_per_second",
    "suite_evals_per_second",
    "suite_effective_evals_per_second",
];

/// `value` without its timing fields, for comparing two reports.
fn without_timing(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Object(members) => JsonValue::Object(
            members
                .iter()
                .filter(|(key, _)| !TIMING_KEYS.contains(&key.as_str()))
                .map(|(key, value)| (key.clone(), without_timing(value)))
                .collect(),
        ),
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(without_timing).collect()),
        other => other.clone(),
    }
}

/// Report figures of one served function.
#[derive(Debug, Clone, Default)]
struct FnFacts {
    covered: f64,
    branches: f64,
    /// The report's span of the function.
    span_s: f64,
    /// The function warm-started from the corpus.
    warm: bool,
}

/// What one job delivered, reduced to the figures the metrics use.
#[derive(Debug, Clone, Default)]
struct JobFacts {
    round_trip_ms: f64,
    /// The rejection or error message, when the job got no report.
    refused: Option<String>,
    /// Every function of the job completed.
    completed: bool,
    /// The report equals the in-process campaign's, timing aside.
    matches: bool,
    /// The report's campaign wall time.
    wall_time_s: f64,
    evals: f64,
    cache_hits: f64,
    timeouts: f64,
    traps: f64,
    infeasible_blamed: f64,
    barriers_skipped: f64,
    warm_replayed: f64,
    epochs: f64,
    /// Per function, in inventory order.
    functions: Vec<FnFacts>,
}

impl JobFacts {
    fn new(round_trip_ms: f64, report: Result<JsonValue, String>, expected: &JsonValue) -> Self {
        let report = match report {
            Ok(report) => report,
            Err(message) => {
                return JobFacts {
                    round_trip_ms,
                    refused: Some(message),
                    ..JobFacts::default()
                }
            }
        };
        let number = |key: &str| report.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let functions = report
            .get("functions")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        let field =
            |f: &JsonValue, key: &str| f.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        JobFacts {
            round_trip_ms,
            refused: None,
            completed: number("completed") == functions.len() as f64,
            matches: &without_timing(&report) == expected,
            wall_time_s: number("wall_time_s"),
            evals: number("total_evaluations"),
            cache_hits: number("total_cache_hits"),
            timeouts: number("total_timeouts"),
            traps: number("total_traps"),
            infeasible_blamed: number("total_infeasible_blamed"),
            barriers_skipped: number("total_barriers_skipped"),
            warm_replayed: number("total_warm_replayed"),
            epochs: functions.iter().map(|f| field(f, "epochs_run")).sum(),
            functions: functions
                .iter()
                .map(|f| FnFacts {
                    covered: field(f, "covered_branches"),
                    branches: field(f, "branches"),
                    span_s: field(f, "wall_time_s"),
                    warm: f
                        .get("corpus_warm_start")
                        .and_then(JsonValue::as_bool)
                        .unwrap_or(false),
                })
                .collect(),
        }
    }

    fn covered(&self) -> f64 {
        self.functions.iter().map(|f| f.covered).sum()
    }
}

/// One daemon lifetime.
struct Round {
    traced: bool,
    open_s: f64,
    drain_s: f64,
    pings_ms: Vec<f64>,
    entries: usize,
    /// Jobs per client, in script order.
    jobs: Vec<Vec<JobFacts>>,
}

impl Round {
    fn all_jobs(&self) -> impl Iterator<Item = &JobFacts> {
        self.jobs.iter().flatten()
    }
}

/// Submits one job through `serve::submit_job` and returns the embedded
/// report, or the rejection or error message.
fn submit(addr: &str, request: &str) -> io::Result<Result<JsonValue, String>> {
    Ok(submit_job(addr, request, |_| {})?
        .and_then(|report| report.ok_or_else(|| "no report before `done`".to_string()))
        .and_then(|report| schema::parse(&report).map_err(|error| error.to_string())))
}

/// A `ping` through `serve::submit_job`.
fn ping(addr: &str) -> io::Result<()> {
    submit_job(addr, "{\"op\":\"ping\"}\n", |_| {})?.map_err(io::Error::other)?;
    Ok(())
}

/// Starts a daemon on an ephemeral port over a fresh corpus in `dir`,
/// runs `body` against it once it has answered a first ping, then shuts it
/// down and removes `dir`. Returns the set-up time (corpus open to the
/// first `pong`), the corpus open time, and what `body` returned.
fn with_daemon<R>(
    dir: &Path,
    recorder: Option<&Recorder>,
    body: impl FnOnce(&str, &CorpusStore) -> io::Result<R>,
) -> io::Result<(f64, f64, R)> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let setup_start = Instant::now();
    let store = Arc::new(CorpusStore::open(dir)?);
    let open_s = setup_start.elapsed().as_secs_f64();
    if let Some(recorder) = recorder {
        recorder.span("CorpusStore::open", "corpus", setup_start);
    }
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    let options = ServeOptions {
        max_jobs: MAX_JOBS,
        workers: WORKERS,
        corpus: Some(Arc::clone(&store)),
        tiers: Vec::new(),
        base: CoverMeConfig::default(),
    };
    let result = std::thread::scope(|scope| {
        let daemon = scope.spawn(move || serve(listener, options));
        let measured = ping(&addr).and_then(|()| {
            let setup_s = setup_start.elapsed().as_secs_f64();
            if let Some(recorder) = recorder {
                recorder.span("serve set-up", "serve", setup_start);
            }
            Ok((setup_s, open_s, body(&addr, &store)?))
        });
        // Stop the daemon whatever happened above, then report.
        let stopped = submit_job(&addr, "{\"op\":\"shutdown\"}\n", |_| {});
        let served = daemon.join().expect("daemon thread panicked");
        let measured = measured?;
        stopped?.map_err(io::Error::other)?;
        served?;
        Ok(measured)
    });
    std::fs::remove_dir_all(dir)?;
    result
}

/// One round: a daemon over a fresh corpus in `dir`, a few timed pings,
/// then every client's script drained against it.
fn run_round(
    scripts: &[Vec<Job>],
    expected: &[Vec<JsonValue>],
    dir: &Path,
    recorder: Option<&Recorder>,
) -> io::Result<Round> {
    let client =
        |addr: &str, script: &[Job], expected: &[JsonValue]| -> io::Result<Vec<JobFacts>> {
            script
                .iter()
                .zip(expected)
                .map(|(job, expected)| {
                    let start = Instant::now();
                    let report = submit(addr, &job.request)?;
                    let round_trip_ms = start.elapsed().as_secs_f64() * 1e3;
                    if let Some(recorder) = recorder {
                        recorder.span("campaign job", "serve", start);
                    }
                    Ok(JobFacts::new(round_trip_ms, report, expected))
                })
                .collect()
        };
    let (_, open_s, (pings_ms, drain_s, entries, jobs)) =
        with_daemon(dir, recorder, |addr, store| {
            let mut pings_ms = Vec::with_capacity(PINGS);
            for _ in 0..PINGS {
                let start = Instant::now();
                ping(addr)?;
                pings_ms.push(start.elapsed().as_secs_f64() * 1e3);
                if let Some(recorder) = recorder {
                    recorder.span("serve::submit_job ping", "serve", start);
                }
            }
            let drain_start = Instant::now();
            let jobs = std::thread::scope(|clients| {
                let handles: Vec<_> = scripts
                    .iter()
                    .zip(expected)
                    .map(|(script, expected)| clients.spawn(|| client(addr, script, expected)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("client thread panicked"))
                    .collect::<io::Result<Vec<_>>>()
            })?;
            let drain_s = drain_start.elapsed().as_secs_f64();
            Ok((pings_ms, drain_s, store.stats().entries, jobs))
        })?;
    Ok(Round {
        traced: recorder.is_some(),
        open_s,
        drain_s,
        pings_ms,
        entries,
        jobs,
    })
}

/// Runs the script in-process, one `Campaign` per job over a shadow
/// corpus, and returns each job's report without timing fields.
fn in_process(script: &[Job], dir: &Path) -> io::Result<Vec<JsonValue>> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let store = Arc::new(CorpusStore::open(dir)?);
    let reports = script
        .iter()
        .map(|job| {
            let config = CampaignConfig::new()
                .with_base(
                    CoverMeConfig::default()
                        .with_seed(job.seed)
                        .with_n_start(job.items.n_start()),
                )
                .with_workers(1)
                .with_corpus(Arc::clone(&store));
            let campaign = Campaign::new(config);
            let report = match &job.items {
                Items::Fpir(sources) => {
                    let programs: Vec<_> = sources
                        .iter()
                        .map(|source| {
                            compile(source, ENTRY_NAME)
                                .expect("generated programs compile")
                                .with_fuel(JOB_FUEL)
                        })
                        .collect();
                    campaign.run(&programs)
                }
                Items::Fdlibm(names) => {
                    let inventory: Vec<_> = names
                        .iter()
                        .map(|n| coverme_fdlibm::suite::by_name(n).expect("suite function"))
                        .collect();
                    campaign.run(&inventory)
                }
            };
            without_timing(&schema::parse(&report.to_json()).expect("report JSON parses"))
        })
        .collect();
    std::fs::remove_dir_all(dir)?;
    Ok(reports)
}

/// Runs the workload for `seconds` and records its metrics and checks.
pub fn measure(
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    session: Option<&Arc<Recorder>>,
    out: &mut Outcome,
) -> io::Result<()> {
    // Set-up, several times: build both clients' job scripts (generating
    // their FPIR sources), then start a daemon over a fresh corpus and wait
    // for its first `pong`. The daemon part alone is a fraction of a
    // millisecond of thread and socket wake-ups, which on a shared host
    // varies several-fold from run to run.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut scripts: Vec<Vec<Job>> = Vec::new();
    for k in 0..SETUP_REPS {
        let start = Instant::now();
        scripts = (0..CLIENTS).map(|c| script(seed, c)).collect();
        let scripts_s = start.elapsed().as_secs_f64();
        let (daemon_s, _, ()) =
            with_daemon(&work_dir.join(format!("setup-{k}")), None, |_, _| Ok(()))?;
        setups.push(scripts_s + daemon_s);
    }
    out.metric("setup_s", median(&setups), setups.len());

    // The reference every served report is checked against.
    let expected: Vec<Vec<JsonValue>> = scripts
        .iter()
        .enumerate()
        .map(|(client, script)| in_process(script, &work_dir.join(format!("in-process-{client}"))))
        .collect::<io::Result<_>>()?;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = session.is_some() && rounds.len() % 2 == 1;
        let recorder = if traced {
            session.map(Arc::as_ref)
        } else {
            None
        };
        let dir = work_dir.join(format!("serve-corpus-{}", rounds.len()));
        let round = run_round(&scripts, &expected, &dir, recorder)?;
        settle();
        for (client, jobs) in round.jobs.iter().enumerate() {
            for (k, job) in jobs.iter().enumerate() {
                out.attempted += 1;
                let r = rounds.len();
                if let Some(message) = &job.refused {
                    out.failed += 1;
                    eprintln!("perfbench: round {r} client {client} job {k}: {message}");
                } else if !job.completed {
                    out.failed += 1;
                    eprintln!("perfbench: round {r} client {client} job {k} did not complete");
                } else if !job.matches {
                    out.check_failed(format!(
                        "round {r} client {client} job {k}: the served report differs \
                         from an in-process campaign of the same job"
                    ));
                }
            }
        }
        rounds.push(round);
        let pairs_done = session.is_none() || rounds.len().is_multiple_of(2);
        if rounds.len() >= 2 && pairs_done && Instant::now() >= deadline {
            break;
        }
    }

    // Every served function with its job's script entry: (facts, repeat).
    let served = |round: &Round| -> Vec<(FnFacts, bool)> {
        round
            .jobs
            .iter()
            .zip(&scripts)
            .flat_map(|(jobs, script)| jobs.iter().zip(script))
            .flat_map(|(facts, job)| facts.functions.iter().cloned().zip(job.repeats.clone()))
            .collect()
    };
    let bare: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let round_trips: Vec<f64> = bare
        .iter()
        .flat_map(|r| r.all_jobs().map(|j| j.round_trip_ms))
        .collect();
    let drains: Vec<f64> = bare.iter().map(|r| r.drain_s).collect();
    // Suite coverage: the fresh functions of the first round, which cover
    // each function and program of the pools once.
    let fresh: Vec<FnFacts> = served(&rounds[0])
        .into_iter()
        .filter(|(_, repeat)| !repeat)
        .map(|(facts, _)| facts)
        .collect();
    out.metric("wall_s", median(&drains), drains.len());
    out.metric(
        "coverage_pct",
        100.0
            * ratio(
                fresh.iter().map(|f| f.covered).sum(),
                fresh.iter().map(|f| f.branches).sum(),
            ),
        fresh.len(),
    );
    out.metric(
        "branches_per_s",
        median(
            &bare
                .iter()
                .map(|r| r.all_jobs().map(JobFacts::covered).sum::<f64>() / r.drain_s)
                .collect::<Vec<_>>(),
        ),
        bare.len(),
    );
    out.metric("job_ms_p50", quantile(&round_trips, 0.5), round_trips.len());
    out.metric("job_ms_p90", quantile(&round_trips, 0.9), round_trips.len());
    out.metric(
        "jobs_per_s",
        ratio(round_trips.len() as f64, drains.iter().sum()),
        bare.len(),
    );
    out.details.push((
        "wall_samples_s",
        JsonValue::Array(drains.iter().map(|&w| num(w)).collect()),
    ));
    out.details.push((
        "scripts",
        object(vec![
            ("clients", num(CLIENTS as f64)),
            ("jobs_per_client", num(scripts[0].len() as f64)),
            (
                "functions_per_client",
                num(scripts[0].iter().map(|j| j.repeats.len()).sum::<usize>() as f64),
            ),
            (
                "repeats_per_client",
                num(scripts[0]
                    .iter()
                    .flat_map(|j| &j.repeats)
                    .filter(|r| **r)
                    .count() as f64),
            ),
            ("fdlibm_job_n_start", num(FDLIBM_JOB_N_START as f64)),
            ("fpir_job_n_start", num(FPIR_JOB_N_START as f64)),
            ("job_fuel", num(JOB_FUEL as f64)),
            ("fpir_pool", text(format!("{FPIR_POOL:?}"))),
            ("max_jobs", num(MAX_JOBS as f64)),
            ("rounds", num(rounds.len() as f64)),
        ]),
    ));

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    if traced.is_empty() {
        return Ok(());
    }
    let n = traced.len();
    let jobs: Vec<&JobFacts> = traced
        .iter()
        .flat_map(|r| r.all_jobs())
        .filter(|j| j.refused.is_none())
        .collect();
    let functions: Vec<(FnFacts, bool)> = traced.iter().flat_map(|r| served(r)).collect();
    let per_round = |value: f64| value / n as f64;
    let sum = |field: fn(&JobFacts) -> f64| -> f64 { jobs.iter().map(|j| field(j)).sum() };
    let evals = sum(|j| j.evals);
    let executed = evals - sum(|j| j.cache_hits);
    let span_ms = |repeat: bool| -> Vec<f64> {
        functions
            .iter()
            .filter(|(_, r)| *r == repeat)
            .map(|(f, _)| f.span_s * 1e3)
            .collect()
    };
    let (fresh_ms, repeat_ms) = (span_ms(false), span_ms(true));
    let overheads: Vec<f64> = jobs
        .iter()
        .map(|j| j.round_trip_ms - 1e3 * j.wall_time_s)
        .collect();
    let spans: Vec<f64> = functions.iter().map(|(f, _)| f.span_s).collect();
    let submitted_kb: f64 = scripts
        .iter()
        .flatten()
        .map(|job| match &job.items {
            Items::Fpir(sources) => sources.iter().map(|s| s.len() as f64 / 1024.0).sum(),
            Items::Fdlibm(_) => 0.0,
        })
        .sum();
    let pings: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.pings_ms.iter().copied())
        .collect();
    let refused = traced
        .iter()
        .flat_map(|r| r.all_jobs())
        .filter(|j| j.refused.is_some())
        .count();
    out.metric(
        "fpir.source_kb",
        submitted_kb,
        scripts.iter().map(Vec::len).sum(),
    );
    out.metric(
        "exec.timeout_share",
        ratio(sum(|j| j.timeouts), executed),
        n,
    );
    out.metric("exec.trap_share", ratio(sum(|j| j.traps), executed), n);
    out.metric("engine.evals", per_round(evals), n);
    out.metric(
        "engine.cache_hit_ratio",
        ratio(sum(|j| j.cache_hits), evals),
        n,
    );
    out.metric(
        "engine.aborted_share",
        ratio(sum(|j| j.timeouts + j.traps), evals),
        n,
    );
    out.metric(
        "search.infeasible_blamed",
        per_round(sum(|j| j.infeasible_blamed)),
        n,
    );
    out.metric("sync.epochs", per_round(sum(|j| j.epochs)), n);
    out.metric(
        "sync.barriers_skipped",
        per_round(sum(|j| j.barriers_skipped)),
        n,
    );
    out.metric("campaign.fn_span_s_p50", quantile(&spans, 0.5), spans.len());
    out.metric(
        "campaign.fn_span_s_p75",
        quantile(&spans, 0.75),
        spans.len(),
    );
    out.metric(
        "corpus.open_s",
        median(&traced.iter().map(|r| r.open_s).collect::<Vec<_>>()),
        n,
    );
    out.metric(
        "corpus.entries",
        mean(&traced.iter().map(|r| r.entries as f64).collect::<Vec<_>>()),
        n,
    );
    out.metric(
        "corpus.warm_replayed",
        per_round(sum(|j| j.warm_replayed)),
        n,
    );
    out.metric(
        "corpus.warm_fn_share",
        ratio(
            functions.iter().filter(|(f, _)| f.warm).count() as f64,
            functions.len() as f64,
        ),
        functions.len(),
    );
    out.metric("serve.ping_ms_p50", median(&pings), pings.len());
    out.metric(
        "serve.job_overhead_ms_p50",
        median(&overheads),
        overheads.len(),
    );
    out.metric("serve.fresh_fn_ms_p50", median(&fresh_ms), fresh_ms.len());
    out.metric(
        "serve.repeat_fn_ms_p50",
        median(&repeat_ms),
        repeat_ms.len(),
    );
    out.metric("serve.rejected", per_round(refused as f64), n);
    let traced_drains: Vec<f64> = traced.iter().map(|r| r.drain_s).collect();
    out.metric(
        "trace.overhead_share",
        ratio(median(&traced_drains), median(&drains)) - 1.0,
        n,
    );
    Ok(())
}
