//! Micro-benchmark: evaluation throughput of the objective engine versus
//! the pre-engine scalar path, on the branch-dense Fdlibm hot functions.
//!
//! Columns:
//!
//! * **legacy** — what `RepresentingFunction::eval` did before the engine
//!   landed: a fresh representing-mode `ExecCtx` per call (cloning the
//!   saturation snapshot), coverage recorded, trace skipped;
//! * **engine** — `ObjectiveEngine::eval_scalar` with the default
//!   `CacheMode::Auto` (reused retargeted context, no coverage; memoized
//!   only for branch-dense programs), on an all-distinct input stream —
//!   the honest floor, since distinct points cannot hit the cache;
//! * **lane** — the same stream through the lane backend
//!   (`Objective::eval_batch`) in chunks of the engine's
//!   `Objective::preferred_batch` (the lane width): value-only recording
//!   per lane, lockstep finalize of the pending penalties per lane group;
//! * **star** — the lane backend fed compass-probe-star-shaped batches of
//!   4 candidates, the smallest batch the engine routes to the lanes
//!   ([`coverme_runtime::MIN_LANE_BATCH`]) and the shape NM/compass submit
//!   on the suite's 2-ary functions;
//! * **hot** — a forced-on cache re-evaluating a small working set, the
//!   shape of polish probes and of Powell re-searching lines from an
//!   unmoved incumbent (real searches measure 16–34% of their calls as
//!   cache hits).
//!
//! A second table covers the FPIR corpus (`examples/fpir/`), where the
//! execution-backend layer has a real choice to make: **interp** and
//! **interp lane** run the AST interpreter (scalar / lane-batched),
//! **tape** and **tape lane** run the compiled instruction tape — the
//! lane column being the true-SIMD path (per-lane tape VMs plus the
//! `resolve_pen_lanes` lockstep finalize). The machine-independent ratios
//! `tape_speedup_vs_interp` and `tape_lane_speedup_vs_interp_lane` feed
//! the CI gate, which additionally enforces an absolute 1.5x floor on the
//! lane ratio — the backend's reason to exist.
//!
//! A third table isolates the SIMD finalize kernels: one real
//! pending-event stream is harvested from `pow` through
//! [`LaneCtx::pending_lanes`] (late-search shape: one open site, so one
//! pen code and comparison), its packed distance kernel
//! ([`coverme_runtime::simd::distance_lanes`], the body of the lane
//! finalize) is timed per ISA on an L1-resident slice of the operands,
//! and the whole stream is re-finalized under every ISA
//! ([`resolve_pen_lanes_with`]) as a bit-identity check. The
//! machine-normalized `simd_speedup_vs_scalar_lane` column — per-ISA
//! kernel throughput over the portable scalar kernel on the same
//! operands — feeds the CI gate, which enforces an absolute 1.3x floor on
//! the AVX2 row plus the usual relative tolerance per ISA.
//!
//! Every measurement is best-of-R with a fresh engine per repetition, so
//! repetitions cannot warm each other's caches.
//!
//! Run modes follow the vendored criterion convention:
//!
//! * `cargo bench -p coverme-bench --bench objective_engine` — measured
//!   run; prints evals/sec per path and the speedups. This feeds the PR
//!   CI's regression gate;
//! * `--json PATH` (after `--bench`) — additionally writes the measured
//!   numbers as `BENCH_objective.json` for `scripts/bench_gate.py`, which
//!   compares the machine-independent speedup ratios against the
//!   committed `ci/bench_baseline.json`;
//! * `cargo test` — single-pass smoke (tiny iteration counts) so the
//!   target cannot rot unnoticed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use coverme::objective::ObjectiveEngine;
use coverme::{BackendMode, BranchId, BranchSet, Objective};
use coverme_fdlibm::by_name;
use coverme_fpir::{compile, IrProgram};
use coverme_runtime::simd::distance_lanes;
use coverme_runtime::{
    eager_value, pen_code, resolve_pen_lanes_with, Cmp, ExecCtx, LaneCtx, Program, SimdIsa,
    DEFAULT_EPSILON, LANE_WIDTH,
};

/// The benchmarked functions: the suite's most branch-dense members (the
/// auto-cache tier and its runners-up) plus two cheap-but-typical ones so
/// the gate also watches the small-program regime.
const FUNCTIONS: &[&str] = &["pow", "fmod", "expm1", "exp", "tanh", "sin"];

/// The FPIR corpus members benchmarked across the backend axis. `spin` is
/// excluded on purpose: every evaluation burns its whole fuel budget, so
/// it measures the fuel counter, not the backends.
const FPIR_FUNCTIONS: &[&str] = &["newton_sqrt", "sign_juggle"];

/// A half-saturated snapshot: the true branch of every even site. A partly
/// saturated set is the steady state of a real search and keeps `pen` on
/// its general path (the empty snapshot short-circuits to 0 everywhere).
fn snapshot(num_sites: usize) -> BranchSet {
    let mut set = BranchSet::with_sites(num_sites);
    for site in (0..num_sites).step_by(2) {
        set.insert(BranchId::true_of(site as u32));
    }
    set
}

/// A spread of inputs covering the exponent range the search actually
/// explores (the default starting-point box is ±100, perturbations ±0.5).
fn inputs(arity: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|i| {
            (0..arity)
                .map(|j| {
                    let t = (i * arity + j) as f64;
                    (t * 0.7297).sin() * 100.0 + (t * 0.013).cos()
                })
                .collect()
        })
        .collect()
}

/// Best-of-`reps` wall time of one pass of `routine` (fresh state per rep
/// comes from the `setup` closure).
fn best_of<S, F: FnMut(&mut S)>(
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut routine: F,
) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let mut state = setup();
        let start = Instant::now();
        routine(&mut state);
        best = best.min(start.elapsed());
    }
    best
}

/// Per-function measurement row, also serialized into the JSON artifact.
struct Row {
    name: &'static str,
    sites: usize,
    legacy: f64,
    engine: f64,
    lane: f64,
    star: f64,
    hot: f64,
}

impl Row {
    fn engine_speedup(&self) -> f64 {
        self.engine / self.legacy.max(1e-12)
    }

    fn lane_speedup(&self) -> f64 {
        self.lane / self.engine.max(1e-12)
    }

    fn star_speedup(&self) -> f64 {
        self.star / self.engine.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"function\": \"{}\",\n",
                "      \"sites\": {},\n",
                "      \"legacy_evals_per_sec\": {:.0},\n",
                "      \"engine_evals_per_sec\": {:.0},\n",
                "      \"lane_evals_per_sec\": {:.0},\n",
                "      \"star_evals_per_sec\": {:.0},\n",
                "      \"hot_evals_per_sec\": {:.0},\n",
                "      \"engine_speedup_vs_legacy\": {:.4},\n",
                "      \"lane_speedup_vs_engine\": {:.4},\n",
                "      \"star_speedup_vs_engine\": {:.4}\n",
                "    }}"
            ),
            self.name,
            self.sites,
            self.legacy,
            self.engine,
            self.lane,
            self.star,
            self.hot,
            self.engine_speedup(),
            self.lane_speedup(),
            self.star_speedup(),
        )
    }
}

fn measure(name: &'static str, measure_mode: bool) -> Row {
    let benchmark = by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let sites = Program::num_sites(&benchmark);
    let saturated = snapshot(sites);
    let epsilon = DEFAULT_EPSILON;
    let (point_count, reps) = if measure_mode { (40_000, 7) } else { (64, 1) };
    let points = inputs(Program::arity(&benchmark), point_count);
    let evs = |d: Duration, n: usize| n as f64 / d.as_secs_f64().max(1e-12);

    // Pre-engine scalar path: fresh context + snapshot clone + coverage
    // recording per evaluation.
    let legacy = evs(
        best_of(
            reps,
            || (),
            |_| {
                let mut sink = 0.0;
                for x in &points {
                    let mut ctx = ExecCtx::representing(saturated.clone())
                        .with_epsilon(epsilon)
                        .without_trace();
                    benchmark.execute(black_box(x), &mut ctx);
                    sink += ctx.representing_value();
                }
                black_box(sink);
            },
        ),
        points.len(),
    );

    // Engine fast path, default (Auto) cache policy, all-distinct points:
    // the miss path is the whole story.
    let fresh_engine = || {
        let mut engine = ObjectiveEngine::new(&benchmark, epsilon);
        engine.retarget(&saturated);
        engine
    };
    let engine = evs(
        best_of(reps, fresh_engine, |engine| {
            let mut sink = 0.0;
            for x in &points {
                sink += engine.eval_scalar(black_box(x));
            }
            black_box(sink);
        }),
        points.len(),
    );

    // Lane path: the same stream chunked at the engine's preferred batch
    // granularity (the lane width) — the chunk size a free batch producer
    // should pick.
    let lane = evs(
        best_of(reps, fresh_engine, |engine| {
            let chunk_size = engine.preferred_batch();
            let mut values = Vec::with_capacity(chunk_size);
            for chunk in points.chunks(chunk_size) {
                values.clear();
                engine.eval_batch(chunk, &mut values);
                black_box(&values);
            }
        }),
        points.len(),
    );

    // Probe-star shape: batches of 4, the smallest lane-dispatched batch.
    let star = evs(
        best_of(reps, fresh_engine, |engine| {
            let mut values = Vec::with_capacity(4);
            for chunk in points.chunks(4) {
                values.clear();
                engine.eval_batch(chunk, &mut values);
                black_box(&values);
            }
        }),
        points.len(),
    );

    // Hot working set through a forced-on cache: almost every call is a
    // hit after the first pass.
    let hot_set: Vec<Vec<f64>> = points.iter().take(8).cloned().collect();
    let hot_passes = if measure_mode { 2000 } else { 4 };
    let hot = evs(
        best_of(
            reps,
            || {
                let mut engine = ObjectiveEngine::new(&benchmark, epsilon).with_cache(true);
                engine.retarget(&saturated);
                engine
            },
            |engine| {
                let mut sink = 0.0;
                for _ in 0..hot_passes {
                    for x in &hot_set {
                        sink += engine.eval_scalar(black_box(x));
                    }
                }
                black_box(sink);
            },
        ),
        hot_set.len() * hot_passes,
    );

    // Whatever the timings, the paths must agree bit for bit with the
    // eager `pen` fold.
    let mut check_engine = ObjectiveEngine::new(&benchmark, epsilon).with_cache(true);
    check_engine.retarget(&saturated);
    let mut lane_engine = ObjectiveEngine::new(&benchmark, epsilon).with_cache(false);
    lane_engine.retarget(&saturated);
    let mut lane_values = Vec::new();
    lane_engine.eval_lanes(&points[..16.min(points.len())], &mut lane_values);
    for (x, lane_value) in points.iter().zip(&lane_values) {
        let mut ctx = ExecCtx::observe();
        benchmark.execute(x, &mut ctx);
        let eager = eager_value(ctx.trace(), &saturated, epsilon);
        assert_eq!(
            check_engine.eval_scalar(x).to_bits(),
            eager.to_bits(),
            "engine diverged from the eager fold on {name} at {x:?}"
        );
        assert_eq!(
            lane_value.to_bits(),
            eager.to_bits(),
            "lane path diverged from the eager fold on {name} at {x:?}"
        );
    }

    Row {
        name,
        sites,
        legacy,
        engine,
        lane,
        star,
        hot,
    }
}

/// Loads one FPIR corpus program (entry inferred from the file stem, the
/// CLI's rule).
fn load_fpir(name: &str) -> IrProgram {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/fpir")
        .join(format!("{name}.fpir"));
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"));
    compile(&source, name).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Per-FPIR-program measurement row across the backend axis.
struct FpirRow {
    name: &'static str,
    sites: usize,
    interp: f64,
    interp_lane: f64,
    tape: f64,
    tape_lane: f64,
}

impl FpirRow {
    fn tape_speedup(&self) -> f64 {
        self.tape / self.interp.max(1e-12)
    }

    fn tape_lane_speedup(&self) -> f64 {
        self.tape_lane / self.interp_lane.max(1e-12)
    }

    /// The SIMD-finalize gain: lane-batched tape over scalar tape.
    fn simd_finalize_speedup(&self) -> f64 {
        self.tape_lane / self.tape.max(1e-12)
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"function\": \"{}\",\n",
                "      \"sites\": {},\n",
                "      \"interp_evals_per_sec\": {:.0},\n",
                "      \"interp_lane_evals_per_sec\": {:.0},\n",
                "      \"tape_evals_per_sec\": {:.0},\n",
                "      \"tape_lane_evals_per_sec\": {:.0},\n",
                "      \"tape_speedup_vs_interp\": {:.4},\n",
                "      \"tape_lane_speedup_vs_interp_lane\": {:.4},\n",
                "      \"simd_finalize_speedup\": {:.4}\n",
                "    }}"
            ),
            self.name,
            self.sites,
            self.interp,
            self.interp_lane,
            self.tape,
            self.tape_lane,
            self.tape_speedup(),
            self.tape_lane_speedup(),
            self.simd_finalize_speedup(),
        )
    }
}

fn measure_fpir(name: &'static str, measure_mode: bool) -> FpirRow {
    let program = load_fpir(name);
    let sites = program.num_sites();
    let saturated = snapshot(sites);
    let epsilon = DEFAULT_EPSILON;
    let (point_count, reps) = if measure_mode { (8_000, 7) } else { (64, 1) };
    let points = inputs(program.arity(), point_count);
    let evs = |d: Duration, n: usize| n as f64 / d.as_secs_f64().max(1e-12);

    let fresh = |mode: BackendMode| {
        let program = load_fpir(name);
        let saturated = saturated.clone();
        move || {
            let mut engine = ObjectiveEngine::with_backend_mode(program.clone(), epsilon, mode)
                .with_cache(false);
            engine.retarget(&saturated);
            engine
        }
    };
    let scalar_pass = |engine: &mut ObjectiveEngine<IrProgram>| {
        let mut sink = 0.0;
        for x in &points {
            sink += engine.eval_scalar(black_box(x));
        }
        black_box(sink);
    };
    let lane_pass = |engine: &mut ObjectiveEngine<IrProgram>| {
        let chunk_size = engine.preferred_batch();
        let mut values = Vec::with_capacity(chunk_size);
        for chunk in points.chunks(chunk_size) {
            values.clear();
            engine.eval_batch(chunk, &mut values);
            black_box(&values);
        }
    };

    let interp = evs(
        best_of(reps, fresh(BackendMode::Interp), scalar_pass),
        points.len(),
    );
    let interp_lane = evs(
        best_of(reps, fresh(BackendMode::Interp), lane_pass),
        points.len(),
    );
    let tape = evs(
        best_of(reps, fresh(BackendMode::Tape), scalar_pass),
        points.len(),
    );
    let tape_lane = evs(
        best_of(reps, fresh(BackendMode::Tape), lane_pass),
        points.len(),
    );

    // Whatever the timings, the backends must agree bit for bit.
    let mut tape_engine = fresh(BackendMode::Tape)();
    let mut interp_engine = fresh(BackendMode::Interp)();
    assert_eq!(tape_engine.backend_name(), "tape", "{name}: no tape");
    let mut tape_values = Vec::new();
    tape_engine.eval_lanes(&points[..16.min(points.len())], &mut tape_values);
    for (x, tape_value) in points.iter().zip(&tape_values) {
        assert_eq!(
            tape_value.to_bits(),
            interp_engine.eval_scalar(x).to_bits(),
            "tape lane path diverged from the interpreter on {name} at {x:?}"
        );
    }

    FpirRow {
        name,
        sites,
        interp,
        interp_lane,
        tape,
        tape_lane,
    }
}

/// A harvested pending-event stream (SoA), the input to the finalize
/// kernels.
struct EventStream {
    codes: Vec<u8>,
    ops: Vec<Cmp>,
    lhs: Vec<f64>,
    rhs: Vec<f64>,
}

/// Harvests `count` real pending-penalty events by recording `pow` (the
/// suite's most branch-dense function) through a [`LaneCtx`] against the
/// late-search snapshot: every site fully saturated except the true side
/// of site 0. This is the steady state the packed kernels target — a
/// converged search spends its rounds chasing the last open branches, so
/// the lanes of a batch agree on the surviving site (uniform chunks, the
/// `distance_lanes` fast path) while the operands still vary per lane.
/// Divergent mid-search batches fall back to the scalar per-lane resolve
/// on every ISA identically, so they would only dilute the kernel
/// comparison this table exists to make.
fn harvest_events(count: usize) -> EventStream {
    let benchmark = by_name("pow").expect("pow is in the suite");
    let sites = Program::num_sites(&benchmark);
    let mut saturated = BranchSet::with_sites(sites);
    for site in 0..sites {
        if site > 0 {
            saturated.insert(BranchId::true_of(site as u32));
        }
        saturated.insert(BranchId::false_of(site as u32));
    }
    let points = inputs(Program::arity(&benchmark), count);
    let mut lane = LaneCtx::new(saturated).with_epsilon(DEFAULT_EPSILON);
    let mut stream = EventStream {
        codes: Vec::with_capacity(count),
        ops: Vec::with_capacity(count),
        lhs: Vec::with_capacity(count),
        rhs: Vec::with_capacity(count),
    };
    let mut scratch = Vec::new();
    for chunk in points.chunks(LANE_WIDTH) {
        for point in chunk {
            lane.record(&benchmark, point);
        }
        let (codes, ops, lhs, rhs) = lane.pending_lanes();
        stream.codes.extend_from_slice(codes);
        stream.ops.extend_from_slice(ops);
        stream.lhs.extend_from_slice(lhs);
        stream.rhs.extend_from_slice(rhs);
        scratch.clear();
        lane.finalize_into(&mut scratch);
    }
    stream
}

/// Per-ISA finalize-kernel measurement row. `speedup` is throughput over
/// the portable scalar finalize on the same event stream — the
/// machine-normalized `simd_speedup_vs_scalar_lane` column the CI gate
/// watches (absolute 1.3x floor on the AVX2 row).
struct SimdRow {
    isa: &'static str,
    lane_width: usize,
    events_per_sec: f64,
    speedup: f64,
}

impl SimdRow {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\n",
                "      \"isa\": \"{}\",\n",
                "      \"lane_width\": {},\n",
                "      \"finalize_events_per_sec\": {:.0},\n",
                "      \"simd_speedup_vs_scalar_lane\": {:.4}\n",
                "    }}"
            ),
            self.isa, self.lane_width, self.events_per_sec, self.speedup,
        )
    }
}

/// Times each ISA's packed distance kernel ([`distance_lanes`], the body
/// of the lane finalize) on the harvested operand stream, normalized to
/// the portable scalar kernel on the same operands — plus the
/// non-negotiable cross-ISA bit-identity check over the full
/// [`resolve_pen_lanes_with`] dispatch.
///
/// The timed slice is kept L1-resident (1024 events ≈ 24 KiB of
/// lhs/rhs/out) so the column measures the kernel the ISA actually
/// changes, not the memory system: at full-stream sizes every ISA
/// converges on cache bandwidth and the ratio reads ~1.0 no matter what
/// the vector units do.
fn measure_simd(measure_mode: bool) -> Vec<SimdRow> {
    let events = if measure_mode { 4096 } else { 256 };
    let (passes, reps) = if measure_mode { (20_000, 7) } else { (4, 1) };
    let stream = harvest_events(events);
    let n = stream.codes.len();

    // The harvest chases one open site, so the stream carries one pen code
    // and one comparison — the uniform-run shape the packed kernel serves.
    let code = stream.codes[0];
    let op = stream.ops[0];
    assert!(
        stream.codes.iter().all(|&c| c == code) && stream.ops.iter().all(|&o| o == op),
        "harvested stream is not uniform; the kernel timing would be meaningless"
    );
    let kernel_op = match code {
        pen_code::FALSE_SATURATED => op,
        pen_code::TRUE_SATURATED => op.negate(),
        other => panic!("harvest produced non-distance pen code {other}"),
    };

    let timed = n.min(1024);
    let lhs = &stream.lhs[..timed];
    let rhs = &stream.rhs[..timed];
    let throughput_of = |isa: SimdIsa| {
        let elapsed = best_of(
            reps,
            || vec![0.0; timed],
            |out: &mut Vec<f64>| {
                for _ in 0..passes {
                    distance_lanes(isa, kernel_op, lhs, rhs, DEFAULT_EPSILON, out);
                    black_box(out.last());
                }
            },
        );
        (timed * passes) as f64 / elapsed.as_secs_f64().max(1e-12)
    };

    let portable = throughput_of(SimdIsa::Portable);
    let mut reference = Vec::new();
    resolve_pen_lanes_with(
        SimdIsa::Portable,
        &stream.codes,
        &stream.ops,
        &stream.lhs,
        &stream.rhs,
        DEFAULT_EPSILON,
        &mut reference,
    );

    SimdIsa::supported()
        .into_iter()
        .map(|isa| {
            let events_per_sec = if isa == SimdIsa::Portable {
                portable
            } else {
                throughput_of(isa)
            };
            // Whatever the timings, every ISA must finalize to the same bits.
            let mut values = Vec::new();
            resolve_pen_lanes_with(
                isa,
                &stream.codes,
                &stream.ops,
                &stream.lhs,
                &stream.rhs,
                DEFAULT_EPSILON,
                &mut values,
            );
            for (k, (v, r)) in values.iter().zip(&reference).enumerate() {
                assert_eq!(
                    v.to_bits(),
                    r.to_bits(),
                    "{isa} finalize diverged from portable at event {k}"
                );
            }
            SimdRow {
                isa: isa.label(),
                lane_width: isa.lane_width(),
                events_per_sec,
                speedup: events_per_sec / portable.max(1e-12),
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let measure_mode = args.iter().any(|a| a == "--bench");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).expect("--json needs a path").clone());

    println!(
        "{:<8} {:>6} {:>13} {:>13} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "function",
        "sites",
        "legacy ev/s",
        "engine ev/s",
        "lane ev/s",
        "star ev/s",
        "hot ev/s",
        "engine x",
        "lane x"
    );

    let mut rows = Vec::new();
    for name in FUNCTIONS {
        let row = measure(name, measure_mode);
        println!(
            "{:<8} {:>6} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>8.2}x {:>8.2}x",
            row.name,
            row.sites,
            row.legacy,
            row.engine,
            row.lane,
            row.star,
            row.hot,
            row.engine_speedup(),
            row.lane_speedup(),
        );
        rows.push(row);
    }

    println!();
    println!(
        "{:<12} {:>6} {:>13} {:>15} {:>13} {:>15} {:>8} {:>11}",
        "fpir",
        "sites",
        "interp ev/s",
        "interp lane",
        "tape ev/s",
        "tape lane",
        "tape x",
        "tape lane x"
    );

    let mut fpir_rows = Vec::new();
    for name in FPIR_FUNCTIONS {
        let row = measure_fpir(name, measure_mode);
        println!(
            "{:<12} {:>6} {:>13.0} {:>15.0} {:>13.0} {:>15.0} {:>7.2}x {:>10.2}x",
            row.name,
            row.sites,
            row.interp,
            row.interp_lane,
            row.tape,
            row.tape_lane,
            row.tape_speedup(),
            row.tape_lane_speedup(),
        );
        fpir_rows.push(row);
    }

    println!();
    println!(
        "{:<10} {:>10} {:>18} {:>22}   (active: {})",
        "simd",
        "lanes",
        "finalize ev/s",
        "speedup vs scalar",
        SimdIsa::active(),
    );
    let simd_rows = measure_simd(measure_mode);
    for row in &simd_rows {
        println!(
            "{:<10} {:>10} {:>18.0} {:>21.2}x",
            row.isa, row.lane_width, row.events_per_sec, row.speedup,
        );
    }

    if let Some(path) = json_path {
        let body: Vec<String> = rows.iter().map(Row::to_json).collect();
        let fpir_body: Vec<String> = fpir_rows.iter().map(FpirRow::to_json).collect();
        let simd_body: Vec<String> = simd_rows.iter().map(SimdRow::to_json).collect();
        let json = format!(
            "{{\n  \"schema\": 2,\n  \"bench\": \"objective_engine\",\n  \"measured\": {},\n  \"functions\": [\n{}\n  ],\n  \"fpir\": [\n{}\n  ],\n  \"simd\": [\n{}\n  ]\n}}\n",
            measure_mode,
            body.join(",\n"),
            fpir_body.join(",\n"),
            simd_body.join(",\n")
        );
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if !measure_mode {
        println!("(smoke mode: timings above are not meaningful; run with cargo bench)");
    }
}
