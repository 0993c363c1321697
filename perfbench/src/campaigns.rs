//! The two campaign workloads, `fdlibm-suite` and `fpir-gen`: repeated
//! `Campaign::run_with` calls over one inventory, each with its own
//! campaign seed derived from the workload seed.

use std::sync::Arc;
use std::time::Instant;

use coverme::report::schema::JsonValue;
use coverme::{
    BranchSet, Campaign, CampaignConfig, CampaignEvent, CampaignReport, CoverMeConfig, ExecCtx,
    FunctionStatus, Program,
};
use coverme_fpir::{compile, generate_source, IrProgram, ENTRY_NAME};

use crate::output::{num, object, text, Outcome};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{Collected, Counter, Recorder, TracedProgram};

/// Campaign search budget of `fdlibm-suite`: starting points per function.
pub const FDLIBM_N_START: usize = 800;
/// Generator seeds of the `fpir-gen` draw: `generate_source(s)` for every
/// `s` in this range, unfiltered.
pub const FPIR_GEN_SEEDS: std::ops::Range<u64> = 0..24;
/// Per-evaluation step fuel of the `fpir-gen` programs.
pub const FPIR_GEN_FUEL: usize = 10_000;
/// Starting points per function of `fpir-gen`.
pub const FPIR_GEN_N_START: usize = 80;
/// Shards per function of `fpir-gen`.
pub const FPIR_GEN_SHARDS: usize = 2;
/// Sync epochs of `fpir-gen`.
pub const FPIR_GEN_EPOCHS: usize = 4;
/// Worker threads of every campaign.
pub const WORKERS: usize = 2;

/// One campaign workload, set up and ready to run.
pub struct CampaignWorkload<P> {
    /// The inventory handed to the campaign.
    pub programs: Vec<P>,
    /// Row label of each program: its name, or `gen<seed>` for generated
    /// FPIR programs, which all share the entry function's name.
    pub labels: Vec<String>,
    /// Whether the programs lower to an FPIR tape.
    pub lowers: bool,
    /// Campaign configuration; the seed is replaced per campaign.
    pub config: CampaignConfig,
    /// The workload seed; campaign `k` runs with seed `mix(seed, k)`.
    pub seed: u64,
    /// Builds the inventory from scratch, returning it with the seconds
    /// spent compiling; records compile spans when given a recorder.
    pub build: fn(Option<&Recorder>) -> (Vec<P>, f64),
}

impl<P: Program + Sync> CampaignWorkload<P> {
    /// One timed set-up: build the inventory, then run the campaign
    /// configuration over it at `n_start` 0. That campaign starts its
    /// workers, builds every function's engine and backend (lowering FPIR
    /// programs), finishes each function without a search and assembles
    /// the report: the part of a campaign's cost that comes before and
    /// around its searches. Returns the seconds of the whole set-up and of
    /// its compiling.
    fn set_up(&self, session: Option<&Recorder>) -> (f64, f64) {
        let start = Instant::now();
        let (programs, compile_s) = (self.build)(session);
        let mut config = self.config.clone();
        config.base = config.base.with_n_start(0);
        std::hint::black_box(Campaign::new(config).run(&programs));
        (start.elapsed().as_secs_f64(), compile_s)
    }
}

/// A SplitMix64 step: the workload's seed derivation.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Set-ups timed back to back before the first campaign, for `setup_s`.
/// (Spread over the run with a pause before each, the set-ups met idle
/// CPUs, and on a 2-vCPU VM their median varied more between runs: 27%
/// against 12–19%.)
pub const SETUP_REPS: usize = 25;

/// The `fdlibm-suite` workload: the 40-function inventory.
pub fn fdlibm_suite(seed: u64) -> CampaignWorkload<coverme_fdlibm::suite::Benchmark> {
    let programs = coverme_fdlibm::suite::all();
    CampaignWorkload {
        labels: programs.iter().map(|p| p.name().to_string()).collect(),
        programs,
        lowers: false,
        config: CampaignConfig::new()
            .with_base(CoverMeConfig::default().with_n_start(FDLIBM_N_START))
            .with_workers(WORKERS),
        seed,
        build: |_| (coverme_fdlibm::suite::all(), 0.0),
    }
}

/// Generates and compiles the `fpir-gen` draw. Returns the programs and
/// the seconds spent compiling them, and records a span per compile when
/// `session` is given.
fn fpir_draw(session: Option<&Recorder>) -> (Vec<IrProgram>, f64) {
    let mut compile_s = 0.0;
    let programs = FPIR_GEN_SEEDS
        .map(|generator_seed| {
            let source = generate_source(generator_seed);
            let start = Instant::now();
            let program = compile(&source, ENTRY_NAME)
                .expect("generated programs compile")
                .with_fuel(FPIR_GEN_FUEL);
            compile_s += start.elapsed().as_secs_f64();
            if let Some(session) = session {
                session.span(format!("compile gen{generator_seed}"), "fpir", start);
            }
            program
        })
        .collect();
    (programs, compile_s)
}

/// The `fpir-gen` workload: the generated draw. Records its size
/// distribution.
pub fn fpir_gen(seed: u64, out: &mut Outcome) -> CampaignWorkload<IrProgram> {
    let (programs, _) = fpir_draw(None);
    let sizes: Vec<f64> = FPIR_GEN_SEEDS
        .map(|s| generate_source(s).len() as f64)
        .collect();
    out.metric(
        "fpir.source_kb",
        sizes.iter().sum::<f64>() / 1024.0,
        sizes.len(),
    );
    out.metric(
        "fpir.sites",
        programs.iter().map(|p| p.num_sites() as f64).sum(),
        programs.len(),
    );
    out.details.push((
        "draw",
        object(vec![
            ("generator_seeds", text(format!("{:?}", FPIR_GEN_SEEDS))),
            ("fuel", num(FPIR_GEN_FUEL as f64)),
            ("source_bytes_p50", num(quantile(&sizes, 0.5))),
            ("source_bytes_p90", num(quantile(&sizes, 0.9))),
            ("source_bytes_max", num(quantile(&sizes, 1.0))),
            ("source_bytes_total", num(sizes.iter().sum())),
        ]),
    ));
    CampaignWorkload {
        labels: FPIR_GEN_SEEDS.map(|s| format!("gen{s}")).collect(),
        programs,
        lowers: true,
        config: CampaignConfig::new()
            .with_base(
                CoverMeConfig::default()
                    .with_n_start(FPIR_GEN_N_START)
                    .with_shards(FPIR_GEN_SHARDS)
                    .with_sync_epochs(FPIR_GEN_EPOCHS),
            )
            .with_workers(WORKERS),
        seed,
        build: fpir_draw,
    }
}

/// What one campaign produced, kept after its report is dropped.
struct Run {
    wall: f64,
    /// Seconds from the campaign start to each `FunctionFinished` event.
    finishes: Vec<f64>,
    workers: usize,
    coverage_pct: f64,
    covered: usize,
    /// Per function: evaluations and input bit patterns (the determinism
    /// check's key).
    identity: Vec<(usize, Vec<Vec<u64>>)>,
    functions: Vec<FunctionFacts>,
    traced: Option<Collected>,
}

/// Report facts of one function, summed over its shards.
#[derive(Debug, Clone, Default)]
struct FunctionFacts {
    status: &'static str,
    /// The search gave up because the program kept timing out or trapping
    /// (see `Run::new`), rather than being cut by a deadline or a cancel.
    degraded: bool,
    branches: usize,
    covered: usize,
    evals: usize,
    cache_hits: usize,
    timeouts: usize,
    traps: usize,
    rounds: usize,
    productive: usize,
    infeasible_blamed: usize,
    epochs: usize,
    barriers_skipped: usize,
    deltas_absorbed: usize,
    span_s: f64,
}

impl Run {
    /// `cuttable` says whether the campaign had a deadline or a cancel
    /// token. Without either, the library marks a function `partial` only
    /// when its search degraded: `ABORT_PATIENCE` rounds in a row ended in
    /// a timeout or trap, the designed verdict on a program that does not
    /// terminate on the inputs the search reaches.
    fn new(wall: f64, finishes: Vec<f64>, report: &CampaignReport, cuttable: bool) -> Run {
        let functions = report
            .results
            .iter()
            .map(|result| {
                let mut facts = FunctionFacts {
                    status: result.status.label(),
                    degraded: result.status == FunctionStatus::Partial
                        && !cuttable
                        && result.shards_run == report.shards,
                    ..FunctionFacts::default()
                };
                if let Some(r) = &result.report {
                    facts.branches = r.coverage.total_branches();
                    facts.covered = r.coverage.covered_count();
                    facts.evals = r.evaluations;
                    facts.cache_hits = r.cache_hits;
                    facts.timeouts = r.timeouts;
                    facts.traps = r.traps;
                    facts.rounds = r.rounds.len();
                    facts.productive = r.productive_rounds();
                    facts.infeasible_blamed = r.infeasible_blamed();
                    facts.epochs = r.epochs.len();
                    facts.barriers_skipped = r.barriers_skipped;
                    facts.deltas_absorbed = r.epochs.iter().map(|e| e.deltas_absorbed).sum();
                    facts.span_s = r.wall_time.as_secs_f64();
                }
                facts
            })
            .collect();
        Run {
            wall,
            finishes,
            workers: report.workers,
            coverage_pct: report.suite_branch_coverage_percent(),
            covered: report
                .results
                .iter()
                .filter_map(|r| r.report.as_ref())
                .map(|r| r.coverage.covered_count())
                .sum(),
            identity: report
                .results
                .iter()
                .map(|result| match &result.report {
                    Some(r) => (
                        r.evaluations,
                        r.inputs
                            .iter()
                            .map(|input| input.iter().map(|x| x.to_bits()).collect())
                            .collect(),
                    ),
                    None => (0, Vec::new()),
                })
                .collect(),
            functions,
            traced: None,
        }
    }

    fn sum(&self, field: impl Fn(&FunctionFacts) -> usize) -> f64 {
        self.functions.iter().map(field).sum::<usize>() as f64
    }
}

/// Runs one campaign, traced when `recorder` is given.
fn run_campaign<P: Program + Sync>(
    workload: &CampaignWorkload<P>,
    seed: u64,
    recorder: Option<&Arc<Recorder>>,
) -> (Run, CampaignReport) {
    let mut config = workload.config.clone();
    config.base.seed = seed;
    let campaign = Campaign::new(config);
    let mut finishes = Vec::with_capacity(workload.programs.len());
    let start = Instant::now();
    let on_event = |event: &CampaignEvent| {
        let CampaignEvent::FunctionFinished { .. } = event;
        finishes.push(start.elapsed().as_secs_f64());
    };
    let report = match recorder {
        None => campaign.run_with(&workload.programs, on_event),
        Some(recorder) => {
            let traced: Vec<TracedProgram<&P>> = workload
                .programs
                .iter()
                .enumerate()
                .map(|(index, program)| {
                    TracedProgram::new(program, index, workload.lowers, Arc::clone(recorder))
                })
                .collect();
            let report = campaign.run_with(&traced, on_event);
            recorder.span("campaign.run_with", "campaign", start);
            report
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let cuttable = workload.config.time_budget.is_some() || workload.config.cancel.is_some();
    let mut run = Run::new(wall, finishes, &report, cuttable);
    run.traced = recorder.map(|recorder| recorder.collect());
    (run, report)
}

/// Pauses between two timed campaigns (or serve rounds). Scoped worker
/// threads count as joined before their thread-local teardown has run, so
/// without a pause the next campaign's workers can start while the last
/// ones still hold their allocator arenas, get fresh arenas, and grow the
/// heap by a run-dependent amount, which shows as noise in `peak_rss_mb`.
pub fn settle() {
    std::thread::sleep(std::time::Duration::from_millis(20));
}

/// Re-executes every generated input through `Program::execute` with a
/// recording context; the union of their coverage must be the report's
/// covered set. Returns the inventory indices of the functions that
/// disagree.
fn reexecute<P: Program>(programs: &[P], report: &CampaignReport) -> Vec<usize> {
    let mut mismatches = Vec::new();
    for (index, (program, result)) in programs.iter().zip(&report.results).enumerate() {
        let Some(r) = &result.report else { continue };
        let mut covered = BranchSet::new();
        for input in &r.inputs {
            let mut ctx = ExecCtx::observe();
            program.execute(input, &mut ctx);
            covered.union_with(ctx.covered());
        }
        let replayed: Vec<usize> = covered.iter().map(|b| b.index()).collect();
        let reported: Vec<usize> = r.coverage.covered().iter().map(|b| b.index()).collect();
        if replayed != reported {
            mismatches.push(index);
        }
    }
    mismatches
}

/// Runs the measurement loop for `seconds` and records the workload's
/// metrics, per-function rows and check results into `out`.
///
/// Every campaign gets a fresh seed, so a run's median spans many searches
/// rather than a few seeds' worth. Untraced, every campaign is timed bare
/// and the first seed runs twice, which gives the determinism check its
/// pair. Traced, campaigns alternate bare and traced on the same seed, so
/// the tracing overhead is measured against neighbours, every traced
/// campaign is checked against its bare twin, and the per-layer metrics
/// come from the traced ones.
pub fn measure<P: Program + Sync>(
    workload: &CampaignWorkload<P>,
    seconds: f64,
    session: Option<&Arc<Recorder>>,
    epoch: Instant,
    out: &mut Outcome,
) {
    let labels = &workload.labels;
    // (set-up seconds, compile seconds); the first set-up records the
    // compile spans of a traced run.
    let setups: Vec<(f64, f64)> = (0..SETUP_REPS)
        .map(|k| workload.set_up(session.filter(|_| k == 0).map(Arc::as_ref)))
        .collect();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    // Per seed: its value and the index of its first run.
    let mut firsts: Vec<(u64, usize)> = Vec::new();
    let mut runs: Vec<Run> = Vec::new();
    let mut index = 0usize;
    loop {
        let (seed_index, traced) = match session {
            None => (index.saturating_sub(1), false),
            Some(_) => (index / 2, index % 2 == 1),
        };
        let seed = mix(workload.seed, seed_index as u64);
        let recorder = traced.then(|| Recorder::new(epoch, workload.programs.len()));
        let (run, report) = run_campaign(workload, seed, recorder.as_ref());
        if let (Some(recorder), Some(session)) = (&recorder, session) {
            recorder.drain_into(session, labels, 100 * (index as u64 + 1));
        }
        out.attempted += run.functions.len() as u64;
        for (label, facts) in labels.iter().zip(&run.functions) {
            if facts.status != FunctionStatus::Complete.label() && !facts.degraded {
                out.failed += 1;
                eprintln!("perfbench: {label} ended {}", facts.status);
            }
        }
        match firsts.get(seed_index) {
            None => {
                for index in reexecute(&workload.programs, &report) {
                    out.check_failed(format!(
                        "seed {seed}: re-executed inputs of {} do not reproduce its coverage",
                        labels[index]
                    ));
                }
                firsts.push((seed, runs.len()));
            }
            Some(&(_, first)) => {
                let reference = &runs[first];
                if run.coverage_pct.to_bits() != reference.coverage_pct.to_bits() {
                    out.check_failed(format!(
                        "seed {seed}: coverage {} differs from the first run's {}",
                        run.coverage_pct, reference.coverage_pct
                    ));
                }
                for ((label, now), then) in
                    labels.iter().zip(&run.identity).zip(&reference.identity)
                {
                    if now != then {
                        out.check_failed(format!(
                            "seed {seed}: {label} evaluations or inputs differ between two runs"
                        ));
                    }
                }
            }
        }
        drop(report);
        settle();
        runs.push(run);
        index += 1;
        // At least one determinism pair; traced runs end on a whole
        // bare/traced pair.
        let enough = runs.len() >= 2 && (session.is_none() || index.is_multiple_of(2));
        if enough && Instant::now() >= deadline {
            break;
        }
    }

    let bare: Vec<&Run> = runs.iter().filter(|r| r.traced.is_none()).collect();
    let walls: Vec<f64> = bare.iter().map(|r| r.wall).collect();
    let total_wall: f64 = walls.iter().sum();
    let finishes: Vec<f64> = bare
        .iter()
        .flat_map(|r| r.finishes.iter().map(|t| t * 1e3))
        .collect();
    let per_seed_coverage: Vec<f64> = firsts
        .iter()
        .map(|&(_, first)| runs[first].coverage_pct)
        .collect();
    let setup_times: Vec<f64> = setups.iter().map(|s| s.0).collect();
    out.metric("setup_s", median(&setup_times), setups.len());
    if workload.lowers {
        let compile_times: Vec<f64> = setups.iter().map(|s| s.1).collect();
        out.metric("fpir.compile_s", median(&compile_times), setups.len());
    }
    out.metric("wall_s", median(&walls), walls.len());
    out.metric(
        "coverage_pct",
        mean(&per_seed_coverage),
        per_seed_coverage.len(),
    );
    out.metric(
        "branches_per_s",
        median(
            &bare
                .iter()
                .map(|r| r.covered as f64 / r.wall)
                .collect::<Vec<_>>(),
        ),
        bare.len(),
    );
    out.metric("job_ms_p50", quantile(&finishes, 0.5), finishes.len());
    out.metric("job_ms_p90", quantile(&finishes, 0.9), finishes.len());
    out.metric(
        "jobs_per_s",
        ratio(
            bare.iter().map(|r| r.functions.len() as f64).sum(),
            total_wall,
        ),
        bare.len(),
    );
    out.metric(
        "degraded_functions",
        mean(
            &bare
                .iter()
                .map(|r| r.functions.iter().filter(|f| f.degraded).count() as f64)
                .collect::<Vec<_>>(),
        ),
        bare.len(),
    );
    out.metric(
        "evals_per_s",
        ratio(bare.iter().map(|r| r.sum(|f| f.evals)).sum(), total_wall),
        bare.len(),
    );

    let traced: Vec<&Run> = runs.iter().filter(|r| r.traced.is_some()).collect();
    // Per-function rows: the first traced campaign when there is one (it
    // carries busy times), else the first campaign.
    let row_run = traced.first().copied().unwrap_or(&runs[0]);
    out.rows = row_run
        .functions
        .iter()
        .enumerate()
        .map(|(index, facts)| {
            let mut members = vec![
                ("name", text(labels[index].clone())),
                ("status", text(facts.status)),
                ("degraded", JsonValue::Bool(facts.degraded)),
                ("branches", num(facts.branches as f64)),
                ("covered", num(facts.covered as f64)),
                ("evals", num(facts.evals as f64)),
                ("cache_hits", num(facts.cache_hits as f64)),
                ("timeouts", num(facts.timeouts as f64)),
                ("traps", num(facts.traps as f64)),
                ("span_s", num(facts.span_s)),
            ];
            if let Some(collected) = &row_run.traced {
                let totals = &collected.functions[index];
                members.push(("exec_busy_s", num(totals.exec_ns() / 1e9)));
                members.push(("busy_s", num(totals.get(Counter::BusyNs) as f64 / 1e9)));
            }
            object(members)
        })
        .collect();
    out.details.push((
        "wall_samples_s",
        JsonValue::Array(walls.iter().map(|&w| num(w)).collect()),
    ));
    out.details.push((
        "campaign_seeds",
        JsonValue::Array(firsts.iter().map(|(s, _)| text(s.to_string())).collect()),
    ));
    if !traced.is_empty() {
        layer_metrics(&traced, median(&walls), out);
    }
}

/// The accumulators of a traced run.
fn collected(run: &Run) -> &Collected {
    run.traced.as_ref().expect("traced run")
}

/// Per-layer metrics from the traced campaigns.
fn layer_metrics(traced: &[&Run], bare_wall: f64, out: &mut Outcome) {
    let n = traced.len();
    let total = |counter: Counter| -> f64 {
        traced
            .iter()
            .map(|r| collected(r).total(counter) as f64)
            .sum()
    };
    let facts =
        |field: fn(&FunctionFacts) -> usize| -> f64 { traced.iter().map(|r| r.sum(field)).sum() };
    let scalar_calls = total(Counter::ScalarCalls);
    let scalar_ns: f64 = traced.iter().map(|r| collected(r).scalar_ns()).sum();
    let lane_calls = total(Counter::LaneCalls);
    let lane_evals = total(Counter::LaneEvals);
    let lane_ns = total(Counter::LaneNs);
    let exec_ns = scalar_ns + lane_ns;
    let executed = scalar_calls + lane_evals;
    let busy_ns = total(Counter::BusyNs);
    let capacity: f64 = traced.iter().map(|r| r.wall * r.workers as f64).sum();
    let evals = facts(|f| f.evals);
    let rounds = facts(|f| f.rounds);
    let per_campaign = |value: f64| value / n as f64;

    out.metric(
        "fpir.lower_calls",
        per_campaign(total(Counter::LowerCalls)),
        n,
    );
    out.metric(
        "fpir.lower_s",
        per_campaign(total(Counter::LowerNs) / 1e9),
        n,
    );
    out.metric("exec.scalar_calls", per_campaign(scalar_calls), n);
    out.metric("exec.scalar_ns_per_call", ratio(scalar_ns, scalar_calls), n);
    out.metric("exec.lane_calls", per_campaign(lane_calls), n);
    out.metric("exec.lane_evals_per_call", ratio(lane_evals, lane_calls), n);
    out.metric("exec.lane_ns_per_eval", ratio(lane_ns, lane_evals), n);
    out.metric("exec.evals_per_s", ratio(executed, exec_ns / 1e9), n);
    out.metric("exec.busy_share", ratio(exec_ns / 1e9, capacity), n);
    out.metric(
        "exec.timeout_share",
        ratio(facts(|f| f.timeouts), executed),
        n,
    );
    out.metric("exec.trap_share", ratio(facts(|f| f.traps), executed), n);
    out.metric("engine.evals", per_campaign(evals), n);
    out.metric(
        "engine.cache_hit_ratio",
        ratio(facts(|f| f.cache_hits), evals),
        n,
    );
    out.metric("engine.lane_share", ratio(lane_evals, executed), n);
    out.metric(
        "engine.aborted_share",
        ratio(facts(|f| f.timeouts + f.traps), evals),
        n,
    );
    out.metric("search.rounds", per_campaign(rounds), n);
    out.metric(
        "search.productive_ratio",
        ratio(facts(|f| f.productive), rounds),
        n,
    );
    out.metric("search.evals_per_round", ratio(evals, rounds), n);
    out.metric(
        "search.infeasible_blamed",
        per_campaign(facts(|f| f.infeasible_blamed)),
        n,
    );
    out.metric(
        "search.self_s",
        per_campaign((busy_ns - exec_ns).max(0.0) / 1e9),
        n,
    );
    out.metric("sync.epochs", per_campaign(facts(|f| f.epochs)), n);
    out.metric(
        "sync.barriers_skipped",
        per_campaign(facts(|f| f.barriers_skipped)),
        n,
    );
    out.metric(
        "sync.deltas_absorbed",
        per_campaign(facts(|f| f.deltas_absorbed)),
        n,
    );

    let spans: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.functions.iter().map(|f| f.span_s))
        .collect();
    let busy: Vec<f64> = traced
        .iter()
        .flat_map(|r| {
            collected(r)
                .functions
                .iter()
                .map(|t| t.get(Counter::BusyNs) as f64 / 1e9)
        })
        .collect();
    let tails: Vec<f64> = traced
        .iter()
        .map(|r| {
            let mut finishes = r.finishes.clone();
            finishes.sort_by(f64::total_cmp);
            // The moment fewer than `workers` functions remain unfinished.
            let cut = finishes.len().saturating_sub(r.workers);
            let from = finishes.get(cut).copied().unwrap_or(0.0);
            r.wall - from
        })
        .collect();
    out.metric("campaign.fn_span_s_p50", quantile(&spans, 0.5), spans.len());
    out.metric(
        "campaign.fn_span_s_p75",
        quantile(&spans, 0.75),
        spans.len(),
    );
    out.metric("campaign.fn_busy_s_p50", quantile(&busy, 0.5), busy.len());
    out.metric("campaign.straggler_tail_s", mean(&tails), n);
    out.metric(
        "campaign.worker_busy_share",
        ratio(busy_ns / 1e9, capacity),
        n,
    );

    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    out.metric(
        "trace.overhead_share",
        ratio(median(&traced_walls), bare_wall) - 1.0,
        n,
    );
}
