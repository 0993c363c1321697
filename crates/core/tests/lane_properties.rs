//! Property-based tests for the lane-parallel evaluation backend
//! (`coverme_runtime::lane` behind `coverme::objective::ObjectiveEngine`).
//!
//! The lane backend's contract:
//!
//! * the lane path agrees **bit for bit** with the scalar engine path on
//!   any program, any saturation snapshot, and any batch size — including
//!   NaN/inf inputs and operands, and sites masked out because both of
//!   their branches are saturated (`pen` case (c), where only the deferral
//!   algebra keeps the previous event alive);
//! * batch grouping is semantically invisible: one batch of `n` points,
//!   `n` scalar calls, and any chunked split produce identical values;
//! * the memoization cache composes with lanes: a batch evaluated after
//!   some of its points are already cached (partial hits, any interleaving)
//!   returns the same values and serves the cached points without
//!   re-executing;
//! * every evaluation path defers the penalty, and every one of them —
//!   `eval_scalar`, `eval_full` and the lanes — equals the eager `pen` fold
//!   of Algorithm 1 ([`eager_value`]) bit for bit, on generated programs,
//!   Fdlibm functions and generated FPIR; `eval_full` also records exactly
//!   the covered set and trace of an observe-mode run;
//! * the ISA is invisible to a search: campaigns report identical
//!   evaluation and cache-hit counts under every supported ISA, because
//!   every ISA packs the same lane width.
//!
//! Programs are generated from the same straight-line family the shard and
//! objective property suites use, extended with special-value injection so
//! comparisons see NaN and ±inf operands.

// `x - x` / `0/0` idioms deliberately materialize NaN from a runtime value,
// the same way the Fdlibm ports do.
#![allow(clippy::eq_op)]

use proptest::prelude::*;

use coverme::objective::{ObjectiveEngine, ABORTED_VALUE};
use coverme::{
    BackendMode, BranchId, BranchSet, Cmp, CoverMe, CoverMeConfig, ExecCtx, FnProgram, LocalMethod,
    Objective, Program, RepresentingFunction,
};
use coverme_fpir::{compile, generate_source, IrProgram, ENTRY_NAME};
use coverme_runtime::{eager_value, LaneCtx, SimdIsa, Trace, DEFAULT_EPSILON, LANE_WIDTH};

/// Specification of one conditional site of a generated program.
#[derive(Debug, Clone)]
struct SiteSpec {
    op: Cmp,
    /// The condition compares `coeff * x + offset` against `constant`.
    coeff: f64,
    offset: f64,
    constant: f64,
    /// Whether taking the true branch perturbs `x` before later sites.
    mutates: bool,
    /// Whether taking the false branch poisons `x` with `0/0` (NaN), so
    /// downstream comparisons exercise the NaN distance paths.
    poisons: bool,
}

/// A generated straight-line program over one double input with data flow
/// between sites, including NaN-producing paths.
fn build_program(specs: Vec<SiteSpec>) -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
    let num_sites = specs.len();
    FnProgram::new(
        "lane-gen",
        1,
        num_sites,
        move |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            for (site, spec) in specs.iter().enumerate() {
                let lhs = spec.coeff * x + spec.offset;
                if ctx.branch(site as u32, spec.op, lhs, spec.constant) {
                    if spec.mutates {
                        x = x * 0.5 + 1.0;
                    }
                } else if spec.poisons {
                    x = (x - x) / (x - x);
                }
            }
        },
    )
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Ne),
        Just(Cmp::Lt),
        Just(Cmp::Le),
        Just(Cmp::Gt),
        Just(Cmp::Ge),
    ]
}

fn site_strategy() -> impl Strategy<Value = SiteSpec> {
    (
        cmp_strategy(),
        -3.0..3.0f64,
        -10.0..10.0f64,
        -10.0..10.0f64,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(op, coeff, offset, constant, mutates, poisons)| SiteSpec {
            op,
            coeff,
            offset,
            constant,
            mutates,
            poisons,
        })
}

fn program_strategy() -> impl Strategy<Value = Vec<SiteSpec>> {
    prop::collection::vec(site_strategy(), 1..6)
}

/// Input points: finite values plus the IEEE specials (roughly 4:6 odds of
/// a special per draw, picked by discriminant since the vendored proptest
/// subset has no weighted `prop_oneof!`).
fn point_strategy() -> impl Strategy<Value = f64> {
    (0..10u8, -50.0..50.0f64).prop_map(|(kind, finite)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1e300,
        5 => 5e-324,
        _ => finite,
    })
}

/// A saturation snapshot over `num_sites` conditionals, derived from a
/// random bitmask (two bits per site). Masks with both bits set per site
/// exercise the `pen` keep-previous case — the "masked" sites of the lane
/// backend's deferral.
fn snapshot_from_mask(num_sites: usize, mask: u64) -> BranchSet {
    let mut snapshot = BranchSet::with_sites(num_sites);
    for site in 0..num_sites {
        if mask & (1 << (2 * site)) != 0 {
            snapshot.insert(BranchId::true_of(site as u32));
        }
        if mask & (1 << (2 * site + 1)) != 0 {
            snapshot.insert(BranchId::false_of(site as u32));
        }
    }
    snapshot
}

/// Operands for the eager-oracle properties: finite values plus ±0, the
/// smallest and a mid-range subnormal, `DBL_MIN`, ±inf, NaN and a huge
/// value (roughly even odds of a special per draw).
fn ieee_operand_strategy() -> impl Strategy<Value = f64> {
    (0..20u8, -50.0..50.0f64).prop_map(|(kind, finite)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 5e-324,
        3 => -1e-310,
        4 => f64::MIN_POSITIVE,
        5 => f64::INFINITY,
        6 => f64::NEG_INFINITY,
        7 => f64::NAN,
        8 => 1e300,
        9 => -1.0,
        _ => finite,
    })
}

/// One point per operand, of the program's arity, cycling through the
/// drawn operands so every arity gets the same number of points.
fn points_of_arity(operands: &[f64], arity: usize) -> Vec<Vec<f64>> {
    (0..operands.len())
        .map(|k| {
            (0..arity)
                .map(|j| operands[(k * arity + j) % operands.len()])
                .collect()
        })
        .collect()
}

/// A random saturation snapshot over `num_sites` conditionals, seeded:
/// each branch saturated with probability 3/8, so about one site in seven
/// is fully saturated (`pen` keeps `r` there).
fn random_snapshot(num_sites: usize, seed: u64) -> BranchSet {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % 8 < 3
    };
    let mut snapshot = BranchSet::with_sites(num_sites);
    for site in 0..num_sites as u32 {
        if next() {
            snapshot.insert(BranchId::true_of(site));
        }
        if next() {
            snapshot.insert(BranchId::false_of(site));
        }
    }
    snapshot
}

/// Compares two traces bit for bit (`TakenBranch`'s derived equality
/// treats NaN operands as unequal).
fn assert_traces_identical(actual: &Trace, expected: &Trace, context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: trace length");
    for (k, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(
            (a.site, a.direction, a.op, a.lhs.to_bits(), a.rhs.to_bits()),
            (e.site, e.direction, e.op, e.lhs.to_bits(), e.rhs.to_bits()),
            "{context}: trace event {k}"
        );
    }
}

/// The oracle property: against `snapshot`, the engine's scalar, full and
/// lane values equal the eager `pen` fold over an observe-mode run of the
/// same point (the abort sentinel for runs that did not finish), and
/// `eval_full` records that run's covered set, trace and outcome.
fn assert_every_path_matches_the_eager_fold<P: Program>(
    program: &P,
    snapshot: &BranchSet,
    points: &[Vec<f64>],
) {
    let mut engine = ObjectiveEngine::new(program, DEFAULT_EPSILON).with_cache(false);
    engine.retarget(snapshot);
    let mut lane_values = Vec::new();
    engine.eval_lanes(points, &mut lane_values);
    assert_eq!(lane_values.len(), points.len());
    for (point, lane_value) in points.iter().zip(&lane_values) {
        let context = format!("{} at {point:?} against {snapshot:?}", program.name());
        let mut observed = ExecCtx::observe();
        program.execute(point, &mut observed);
        let expected = if observed.run_outcome().is_done() {
            eager_value(observed.trace(), snapshot, DEFAULT_EPSILON)
        } else {
            ABORTED_VALUE
        };
        let scalar = engine.eval_scalar(point);
        let full = engine.eval_full(point);
        assert_eq!(
            scalar.to_bits(),
            expected.to_bits(),
            "{context}: eval_scalar"
        );
        assert_eq!(
            full.value.to_bits(),
            expected.to_bits(),
            "{context}: eval_full"
        );
        assert_eq!(lane_value.to_bits(), expected.to_bits(), "{context}: lanes");
        assert_eq!(full.outcome, observed.run_outcome(), "{context}: outcome");
        assert_eq!(&full.covered, observed.covered(), "{context}: covered set");
        assert_traces_identical(&full.trace, observed.trace(), &context);
    }
}

/// Fuel per FPIR evaluation: enough for the generator's terminating loops,
/// small enough that its timeout hazards abort quickly.
const FPIR_FUEL: usize = 20_000;

fn compile_generated(seed: u64) -> IrProgram {
    let source = generate_source(seed);
    compile(&source, ENTRY_NAME)
        .unwrap_or_else(|e| panic!("generator seed {seed} failed to compile: {e}"))
        .with_fuel(FPIR_FUEL)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lane evaluation equals scalar evaluation bit for bit at every batch
    /// size from 1 to 32, on any snapshot, with special-value inputs.
    #[test]
    fn lane_path_matches_scalar_path_at_every_batch_size(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(point_strategy(), 1..32),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        // Uncached engines so every lane value comes from a lane execution.
        let mut lane_engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        lane_engine.retarget(&snapshot);
        let mut lane_values = Vec::new();
        lane_engine.eval_lanes(&points, &mut lane_values);
        prop_assert_eq!(lane_values.len(), points.len());

        let mut scalar_engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        scalar_engine.retarget(&snapshot);
        for (point, lane_value) in points.iter().zip(&lane_values) {
            let scalar = scalar_engine.eval_scalar(point);
            prop_assert_eq!(
                scalar.to_bits(), lane_value.to_bits(),
                "lane {} vs scalar {} at {:?}", lane_value, scalar, point
            );
        }

        // The raw LaneCtx agrees too (no engine, no cache in the way).
        let mut raw = LaneCtx::new(snapshot.clone()).with_epsilon(DEFAULT_EPSILON);
        let mut raw_values = Vec::new();
        raw.eval_batch(&program, &points, &mut raw_values);
        for (raw_value, lane_value) in raw_values.iter().zip(&lane_values) {
            prop_assert_eq!(raw_value.to_bits(), lane_value.to_bits());
        }
    }

    /// Chunking is invisible: any split of the same point stream produces
    /// the values of the unsplit batch, in order.
    #[test]
    fn chunked_and_unchunked_batches_agree(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(point_strategy(), 2..24),
        chunk in 1..9usize,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        let fresh = || {
            let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON);
            engine.retarget(&snapshot);
            engine
        };
        let mut whole = Vec::new();
        fresh().eval_lanes(&points, &mut whole);
        let mut chunked = Vec::new();
        let mut chunked_engine = fresh();
        for piece in points.chunks(chunk) {
            // Dispatch through the Objective seam: small chunks take the
            // scalar path, large ones the lane path — the values must not
            // care.
            chunked_engine.eval_batch(piece, &mut chunked);
        }
        prop_assert_eq!(whole.len(), chunked.len());
        for (a, b) in whole.iter().zip(&chunked) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Fully saturated ("masked") sites keep the previous event alive
    /// across the deferral: a snapshot that saturates both branches of
    /// every site yields exactly 1.0 (the accumulator's initial value) on
    /// the lane path, matching the eager path.
    #[test]
    fn fully_masked_snapshots_preserve_the_initial_accumulator(
        specs in program_strategy(),
        xs in prop::collection::vec(point_strategy(), 1..16),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let mut snapshot = BranchSet::with_sites(num_sites);
        for site in 0..num_sites {
            snapshot.insert(BranchId::true_of(site as u32));
            snapshot.insert(BranchId::false_of(site as u32));
        }
        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        engine.retarget(&snapshot);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let mut values = Vec::new();
        engine.eval_lanes(&points, &mut values);
        for (point, value) in points.iter().zip(&values) {
            let foo_r = RepresentingFunction::new(&program, snapshot.clone());
            prop_assert_eq!(value.to_bits(), foo_r.eval(point).to_bits());
            prop_assert_eq!(*value, 1.0);
        }
    }

    /// ISA sweep: every SIMD dispatch this machine supports — portable,
    /// and SSE2/AVX2 where present — finalizes the same batch to the same
    /// bits, on random snapshots and on the fully-masked snapshot, with
    /// special-value inputs. The vector kernels trade speed, never
    /// semantics; the engine's `simd()` override and the raw `LaneCtx`
    /// must both honor that.
    #[test]
    fn every_simd_isa_finalizes_bit_identically(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(point_strategy(), 1..32),
        fully_masked in any::<bool>(),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = if fully_masked {
            let mut s = BranchSet::with_sites(num_sites);
            for site in 0..num_sites {
                s.insert(BranchId::true_of(site as u32));
                s.insert(BranchId::false_of(site as u32));
            }
            s
        } else {
            snapshot_from_mask(num_sites, mask)
        };
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        let eval_under = |isa: SimdIsa| {
            let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON)
                .with_cache(false)
                .simd(isa);
            engine.retarget(&snapshot);
            let mut values = Vec::new();
            engine.eval_lanes(&points, &mut values);
            values
        };
        let isas = SimdIsa::supported();
        prop_assert!(isas.contains(&SimdIsa::Portable));
        let reference = eval_under(SimdIsa::Portable);
        prop_assert_eq!(reference.len(), points.len());
        for &isa in &isas {
            let values = eval_under(isa);
            for (index, (r, v)) in reference.iter().zip(&values).enumerate() {
                prop_assert_eq!(
                    r.to_bits(), v.to_bits(),
                    "{} diverged from portable at point {} ({} vs {})",
                    isa, index, v, r
                );
            }
            // The raw LaneCtx path (no engine, no cache) agrees too.
            let mut raw = LaneCtx::new(snapshot.clone())
                .with_epsilon(DEFAULT_EPSILON)
                .with_simd(isa);
            let mut raw_values = Vec::new();
            raw.eval_batch(&program, &points, &mut raw_values);
            for (r, v) in reference.iter().zip(&raw_values) {
                prop_assert_eq!(r.to_bits(), v.to_bits());
            }
        }
    }

    /// The memo cache is ISA-blind: entries warmed by an engine pinned to
    /// one ISA are hits — with the same bits — for the identical points
    /// evaluated under any other ISA, because the cached values themselves
    /// are bit-identical.
    #[test]
    fn cache_entries_warmed_under_one_isa_serve_every_other(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(-50.0..50.0f64, 4..16),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();

        let mut reference = ObjectiveEngine::new(&program, DEFAULT_EPSILON)
            .with_cache(false)
            .simd(SimdIsa::Portable);
        reference.retarget(&snapshot);

        for &isa in &SimdIsa::supported() {
            // One cached engine per ISA: the scalar warm-up fills the memo
            // cache, the lane batch must agree with the uncached portable
            // engine bit for bit while serving hits.
            let mut cached = ObjectiveEngine::new(&program, DEFAULT_EPSILON)
                .with_cache(true)
                .simd(isa);
            cached.retarget(&snapshot);
            for point in &points {
                cached.eval_scalar(point);
            }
            let hits_before = cached.telemetry().cache_hits;
            let mut values = Vec::new();
            cached.eval_lanes(&points, &mut values);
            for (point, value) in points.iter().zip(&values) {
                prop_assert_eq!(
                    reference.eval_scalar(point).to_bits(),
                    value.to_bits(),
                    "cached {} engine diverged at {:?}", isa, point
                );
            }
            prop_assert!(cached.telemetry().cache_hits > hits_before);
        }
    }

    /// Cache interaction: a lane batch evaluated after an arbitrary prefix
    /// of its points was already evaluated (and therefore cached) returns
    /// the same values, and the cached points are served as hits without
    /// re-execution.
    #[test]
    fn lane_batches_after_partial_cache_hits_agree(
        specs in program_strategy(),
        mask in 0..4096u64,
        xs in prop::collection::vec(-50.0..50.0f64, 4..20),
        warm in 0..20usize,
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = snapshot_from_mask(num_sites, mask);
        let points: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let warm = warm.min(points.len());

        let mut engine = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(true);
        engine.retarget(&snapshot);
        // Warm the cache with a prefix through the scalar path.
        let mut warmed = Vec::new();
        for point in &points[..warm] {
            warmed.push(engine.eval_scalar(point));
        }
        let evals_before = engine.telemetry().evals;
        let hits_before = engine.telemetry().cache_hits;

        // Now the whole batch through the lane path.
        let mut values = Vec::new();
        engine.eval_lanes(&points, &mut values);
        let telemetry = engine.telemetry();

        // Values agree with an entirely uncached engine.
        let mut reference = ObjectiveEngine::new(&program, DEFAULT_EPSILON).with_cache(false);
        reference.retarget(&snapshot);
        for (point, value) in points.iter().zip(&values) {
            prop_assert_eq!(reference.eval_scalar(point).to_bits(), value.to_bits());
        }
        // And the warmed prefix matches what the scalar warm-up returned.
        for (value, warmed_value) in values.iter().zip(&warmed) {
            prop_assert_eq!(value.to_bits(), warmed_value.to_bits());
        }
        // Direct-mapped collisions may evict warmed entries (and duplicate
        // points within the batch re-execute), so hits are bounded by the
        // warmed prefix, and every non-hit was a real execution.
        let batch_hits = telemetry.cache_hits - hits_before;
        prop_assert!(batch_hits <= warm as u64);
        prop_assert_eq!(
            telemetry.evals - evals_before,
            points.len() as u64 - batch_hits
        );
    }

    /// Deferred vs eager on the generated straight-line family: every
    /// evaluation path equals the eager `pen` fold, and `eval_full` equals
    /// an observe-mode run.
    #[test]
    fn every_path_matches_the_eager_fold_on_generated_programs(
        specs in program_strategy(),
        snapshot_seed in 0..u64::MAX,
        operands in prop::collection::vec(ieee_operand_strategy(), 1..24),
    ) {
        let num_sites = specs.len();
        let program = build_program(specs);
        let snapshot = random_snapshot(num_sites, snapshot_seed);
        assert_every_path_matches_the_eager_fold(&program, &snapshot, &points_of_arity(&operands, 1));
    }

    /// Deferred vs eager on the Fdlibm suite.
    #[test]
    fn every_path_matches_the_eager_fold_on_fdlibm(
        function in 0..64usize,
        snapshot_seed in 0..u64::MAX,
        operands in prop::collection::vec(ieee_operand_strategy(), 1..24),
    ) {
        let suite = coverme_fdlibm::suite::all();
        let benchmark = &suite[function % suite.len()];
        let snapshot = random_snapshot(benchmark.num_sites(), snapshot_seed);
        let points = points_of_arity(&operands, benchmark.arity());
        assert_every_path_matches_the_eager_fold(benchmark, &snapshot, &points);
    }

    /// Deferred vs eager on generated FPIR, through the engine's default
    /// (tape) backend — timeouts and traps included.
    #[test]
    fn every_path_matches_the_eager_fold_on_generated_fpir(
        seed in 0..500u64,
        snapshot_seed in 0..u64::MAX,
        operands in prop::collection::vec(ieee_operand_strategy(), 1..24),
    ) {
        let program = compile_generated(seed);
        let snapshot = random_snapshot(program.num_sites(), snapshot_seed);
        let points = points_of_arity(&operands, program.arity());
        assert_every_path_matches_the_eager_fold(&program, &snapshot, &points);
    }
}

/// A deterministic end-to-end cross-check on a real Fdlibm benchmark: the
/// lane path and the eager `pen` fold agree on `ieee754_pow` (the suite's
/// most branch-dense function) against a half-saturated snapshot, on a
/// grid that includes special values.
#[test]
fn lane_path_matches_legacy_on_pow() {
    let benchmark = coverme_fdlibm::by_name("pow").expect("pow is in the suite");
    let num_sites = benchmark.num_sites();
    let mut saturated = BranchSet::with_sites(num_sites);
    for site in (0..num_sites).step_by(2) {
        saturated.insert(BranchId::true_of(site as u32));
    }
    let mut grid: Vec<Vec<f64>> = Vec::new();
    let specials = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        2.0,
        1e300,
        f64::NAN,
        f64::INFINITY,
    ];
    for &x in &specials {
        for &y in &specials {
            grid.push(vec![x, y]);
        }
    }
    let mut engine = ObjectiveEngine::new(&benchmark, DEFAULT_EPSILON).with_cache(false);
    engine.retarget(&saturated);
    let mut values = Vec::new();
    engine.eval_lanes(&grid, &mut values);
    for (point, value) in grid.iter().zip(&values) {
        let mut ctx = ExecCtx::observe();
        benchmark.execute(point, &mut ctx);
        assert_eq!(
            value.to_bits(),
            eager_value(ctx.trace(), &saturated, DEFAULT_EPSILON).to_bits(),
            "lane diverged from the eager fold on pow at {point:?}"
        );
    }
    // Partial last lane groups (the grid is not a LANE_WIDTH multiple)
    // still produce one value per point.
    assert!(!grid.len().is_multiple_of(LANE_WIDTH));
    assert_eq!(values.len(), grid.len());
}

/// Evaluation and cache-hit counts of one single-function search pinned to
/// `isa`.
fn search_counts<P: Program>(program: &P, config: &CoverMeConfig, isa: SimdIsa) -> (usize, usize) {
    let report = CoverMe::new(config.clone().simd(isa)).run(program);
    assert_eq!(report.lane_width, LANE_WIDTH, "{isa}");
    (report.evaluations, report.cache_hits)
}

/// The ISA is invisible to whole searches, not only to values: a `pow`
/// campaign (interpreter lanes, memoized) and a tape-backed FPIR campaign
/// report the same evaluations **and** cache hits under every supported
/// ISA. Lane width decides which duplicate points of a batch share one
/// lane group and so miss the cache; one width on every ISA keeps that
/// identical.
///
/// Both searches use compass search: Powell's line searches evaluate one
/// probe at a time and send no batches, while compass submits its whole
/// probe star (2 dimensions × 2 signs × depth 2 = 8 points for `pow` at
/// the 8-lane hint), never fewer than the engine's `MIN_LANE_BATCH` of 4,
/// so every sweep takes the lane path.
#[test]
fn searches_report_identical_telemetry_under_every_isa() {
    let pow = coverme_fdlibm::by_name("pow").expect("pow is in the suite");
    let pow_config = CoverMeConfig::new()
        .n_start(40)
        .seed(9)
        .local_method(LocalMethod::Compass);
    let fpir = compile_generated(11);
    let fpir_config = CoverMeConfig::new()
        .n_start(40)
        .seed(9)
        .local_method(LocalMethod::Compass)
        .backend(BackendMode::Tape);
    let pow_reference = search_counts(&pow, &pow_config, SimdIsa::Portable);
    let fpir_reference = search_counts(&fpir, &fpir_config, SimdIsa::Portable);
    assert!(
        pow_reference.1 > 0,
        "the pow search must exercise the cache"
    );
    for isa in SimdIsa::supported() {
        assert_eq!(
            search_counts(&pow, &pow_config, isa),
            pow_reference,
            "pow under {isa}"
        );
        assert_eq!(
            search_counts(&fpir, &fpir_config, isa),
            fpir_reference,
            "generated FPIR under {isa}"
        );
    }
}
