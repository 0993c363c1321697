//! The lane backend: data-parallel evaluation of a representing function
//! over a batch of independent inputs.
//!
//! The candidates a minimizer submits in one batch — a Nelder–Mead simplex,
//! a compass probe star, a shard's start schedule — are independent, so
//! their evaluations can execute in lockstep. Programs under test are
//! native code (hand-instrumented Rust ports, or the FPIR interpreter), so
//! their *control flow* cannot be run one-instruction-per-lane the way a
//! SIMT interpreter would; what fuses across lanes instead is the
//! instrumentation itself, split into two phases:
//!
//! 1. **record** — each lane executes the program once through a shared
//!    value-only representing [`ExecCtx`] (no coverage, no trace). Per
//!    conditional, the injected `r = pen(...)` assignment is the context's
//!    deferred penalty: a single *gather* into a per-site pen-code table
//!    plus an overwrite of the pending-event slot, with no distance
//!    arithmetic (see [`crate::context`] for why only the **last** event
//!    at a not-fully-saturated site matters). Per-lane divergence costs
//!    nothing here — lanes that branch differently simply record different
//!    pending events;
//! 2. **finalize** — the harvested pending events sit in structure-of-array
//!    lane buffers (`[f64; LANE_WIDTH]` operand arrays, one code byte per
//!    lane), and the one distance per lane that actually determines the
//!    value is computed for all lanes by the [`crate::simd`] vector
//!    kernels of the context's [`SimdIsa`] — real packed SSE2/AVX2
//!    instructions when the machine has them, the scalar reference loop
//!    otherwise.
//!
//! One finalize packs [`LANE_WIDTH`] = 8 lanes on every ISA (two 256-bit
//! vectors per operand array under AVX2, four 128-bit ones under SSE2).
//! The width is not an ISA property: it is the `preferred_batch` hint that
//! sizes Nelder–Mead's batched restarts and the compass probe star, so a
//! per-ISA width would make searches take different trajectories on
//! different machines. Batches come only from those two minimizers;
//! Powell's line searches evaluate one probe at a time.
//!
//! Bit-exactness with the scalar path is non-negotiable and holds by
//! construction: the finalize performs exactly the [`distance`] call
//! (same operands, same `ε`, same operation order) the scalar
//! [`ExecCtx::representing_value`] resolves — the vector kernels mirror
//! the scalar select structure operation for operation. The property
//! suites (`lane_properties` in `coverme-core`) pin this against the eager
//! `pen` fold ([`crate::pen::eager_value`]) on generated programs,
//! snapshots, and NaN/inf inputs at every batch size and under every
//! forced ISA.
//!
//! [`distance`]: crate::distance

use crate::branch::{BranchSet, Direction};
use crate::context::{pen_code, ExecCtx, PendingPen, RunOutcome};
use crate::distance::Cmp;
use crate::program::Program;
use crate::simd::{self, SimdIsa};

/// Number of lanes one lockstep finalize packs, on every [`SimdIsa`]. Batch
/// producers that size a candidate stream freely learn it through
/// `Objective::preferred_batch` in `coverme-optim`; fixed-size sets (a
/// probe star, a simplex) are evaluated as-is in partially filled chunks.
pub const LANE_WIDTH: usize = 8;

/// Smallest batch for which the lane path beats the scalar fast path.
/// Below this, per-batch setup (harvest + finalize) outweighs the deferred
/// per-branch savings, so batch dispatchers fall back to scalar evaluation.
/// Retuned against the vector kernels: the SIMD finalize lowers per-batch
/// cost further, so the historical threshold of 4 still holds with margin —
/// record (a full program execution per lane) dominates below it on every
/// ISA.
pub const MIN_LANE_BATCH: usize = 4;

/// The lane-parallel evaluation context. See the [module docs](self).
///
/// A `LaneCtx` is long-lived, like the objective engine's scalar context:
/// [`retarget`](Self::retarget) swaps the saturation snapshot per round
/// (one pen-code table rebuild), and recording reuses one value-only
/// [`ExecCtx`] across every lane of every batch.
#[derive(Debug, Clone)]
pub struct LaneCtx {
    /// The shared value-only recording context.
    ctx: ExecCtx,
    /// Pen-dispatch code per recorded lane ([`pen_code`] values).
    codes: [u8; LANE_WIDTH],
    /// Comparison operator per recorded lane.
    ops: [Cmp; LANE_WIDTH],
    /// Left comparison operand per recorded lane.
    lhs: [f64; LANE_WIDTH],
    /// Right comparison operand per recorded lane.
    rhs: [f64; LANE_WIDTH],
    /// Number of recorded, not-yet-finalized lanes.
    lanes: usize,
    /// The SIMD ISA the finalize dispatches to.
    isa: SimdIsa,
}

impl LaneCtx {
    /// Creates a lane context evaluating against the given saturation
    /// snapshot with the default `ε`, on the process's active SIMD ISA
    /// ([`SimdIsa::active`]).
    pub fn new(saturated: BranchSet) -> LaneCtx {
        LaneCtx {
            ctx: ExecCtx::representing(saturated)
                .without_trace()
                .without_coverage(),
            codes: [pen_code::IDLE; LANE_WIDTH],
            ops: [Cmp::Eq; LANE_WIDTH],
            lhs: [0.0; LANE_WIDTH],
            rhs: [0.0; LANE_WIDTH],
            lanes: 0,
            isa: SimdIsa::active(),
        }
    }

    /// Overrides the `ε` used by the branch distances.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive.
    pub fn with_epsilon(mut self, epsilon: f64) -> LaneCtx {
        self.ctx = self.ctx.with_epsilon(epsilon);
        self
    }

    /// Overrides the SIMD ISA this context finalizes with (per instance —
    /// no global state, so parallel tests can pin different ISAs).
    ///
    /// # Panics
    ///
    /// Panics if the machine cannot execute `isa`, or if lanes were
    /// recorded but not yet finalized.
    pub fn with_simd(mut self, isa: SimdIsa) -> LaneCtx {
        assert!(isa.is_supported(), "SIMD ISA {isa} unsupported here");
        assert_eq!(self.lanes, 0, "ISA change with unfinalized lanes pending");
        self.isa = isa;
        self
    }

    /// The `ε` in use.
    pub fn epsilon(&self) -> f64 {
        self.ctx.epsilon()
    }

    /// The SIMD ISA the finalize dispatches to.
    pub fn simd_isa(&self) -> SimdIsa {
        self.isa
    }

    /// The saturation snapshot the lanes evaluate against.
    pub fn saturated(&self) -> &BranchSet {
        self.ctx.saturated()
    }

    /// Replaces the saturation snapshot (one pen-code table rebuild, no
    /// per-evaluation cost).
    ///
    /// # Panics
    ///
    /// Panics if lanes were recorded but not yet finalized.
    pub fn retarget(&mut self, saturated: BranchSet) {
        assert_eq!(self.lanes, 0, "retarget with unfinalized lanes pending");
        self.ctx.retarget(saturated);
    }

    /// Number of recorded, not-yet-finalized lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether every lane slot is filled (the caller should finalize).
    pub fn is_full(&self) -> bool {
        self.lanes == LANE_WIDTH
    }

    /// Whether no lane is recorded.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Records one lane: executes `program` on `input` through the value-only
    /// context and harvests the surviving pending event into the lane
    /// buffers. Returns how the execution ended so a dispatcher can handle
    /// aborted runs (substitute a sentinel value, skip memoization) — the
    /// lane itself is recorded either way, keeping lane/value indices
    /// aligned.
    ///
    /// # Panics
    ///
    /// Panics if all [`LANE_WIDTH`] lanes are already filled.
    pub fn record<P: Program + ?Sized>(&mut self, program: &P, input: &[f64]) -> RunOutcome {
        assert!(self.lanes < LANE_WIDTH, "all lanes filled; finalize first");
        self.ctx.reset();
        program.execute(input, &mut self.ctx);
        let PendingPen { code, op, lhs, rhs } = self.ctx.pending_pen();
        let lane = self.lanes;
        self.codes[lane] = code;
        self.ops[lane] = op;
        self.lhs[lane] = lhs;
        self.rhs[lane] = rhs;
        self.lanes += 1;
        self.ctx.run_outcome()
    }

    /// Read-only view of the recorded, not-yet-finalized pending events as
    /// SoA slices `(codes, ops, lhs, rhs)`, in record order. This is the
    /// harvest the finalize consumes; the bench harness uses it to collect
    /// real event streams and re-finalize them under every ISA.
    pub fn pending_lanes(&self) -> (&[u8], &[Cmp], &[f64], &[f64]) {
        let lanes = self.lanes;
        (
            &self.codes[..lanes],
            &self.ops[..lanes],
            &self.lhs[..lanes],
            &self.rhs[..lanes],
        )
    }

    /// Resolves every recorded lane in one lockstep pass, appending one
    /// value per lane (in record order) to `values`, and clears the lanes.
    ///
    /// Delegates to [`resolve_pen_lanes_with`] on the context's ISA:
    /// chunks whose lanes agree on the pen code and comparison run the
    /// packed distance kernel over the SoA operand arrays; divergent
    /// chunks fall back to the scalar per-lane resolve. Either path
    /// computes exactly the `distance` call the scalar resolve makes, bit
    /// for bit.
    pub fn finalize_into(&mut self, values: &mut Vec<f64>) {
        let epsilon = self.epsilon();
        let lanes = self.lanes;
        resolve_pen_lanes_with(
            self.isa,
            &self.codes[..lanes],
            &self.ops[..lanes],
            &self.lhs[..lanes],
            &self.rhs[..lanes],
            epsilon,
            values,
        );
        self.lanes = 0;
    }

    /// Evaluates `FOO_R` over a whole batch: points are packed into
    /// [`LANE_WIDTH`]-wide chunks, each chunk recorded lane by
    /// lane and finalized in lockstep. One value per point is appended to
    /// `values` in input order; `values` is not cleared.
    ///
    /// # Panics
    ///
    /// Panics if lanes were recorded but not yet finalized.
    pub fn eval_batch<P: Program + ?Sized>(
        &mut self,
        program: &P,
        points: &[Vec<f64>],
        values: &mut Vec<f64>,
    ) {
        assert_eq!(self.lanes, 0, "eval_batch with unfinalized lanes pending");
        values.reserve(points.len());
        for chunk in points.chunks(LANE_WIDTH) {
            for point in chunk {
                self.record(program, point);
            }
            self.finalize_into(values);
        }
    }
}

impl Default for LaneCtx {
    fn default() -> LaneCtx {
        LaneCtx::new(BranchSet::new())
    }
}

/// Builds the per-site `pen` dispatch table for a saturation snapshot: one
/// [`pen_code`] byte per site, indexed by site id. Sites past the table's
/// end are [`pen_code::OPEN`] (a lookup should default to `OPEN`, exactly
/// like [`ExecCtx::branch`] does).
///
/// This is the table a representing [`ExecCtx`] gathers from per
/// conditional, and the one an out-of-crate lane executor uses too. A site
/// saturated on both sides lands on [`pen_code::KEEP`] (`|=`
/// accumulation).
pub fn pen_code_table(saturated: &BranchSet) -> Vec<u8> {
    let mut codes = Vec::new();
    for branch in saturated.iter() {
        let site = branch.site as usize;
        if site >= codes.len() {
            codes.resize(site + 1, pen_code::OPEN);
        }
        codes[site] |= match branch.direction {
            Direction::True => pen_code::TRUE_SATURATED,
            Direction::False => pen_code::FALSE_SATURATED,
        };
    }
    codes
}

/// Resolves one pending penalty event — the scalar counterpart of
/// [`resolve_pen_lanes`], bit-identical to the last live `pen` of the
/// eager fold.
///
/// # Panics
///
/// Panics if `code` is [`pen_code::KEEP`] (a kept event is never pending).
pub fn resolve_pen(code: u8, op: Cmp, lhs: f64, rhs: f64, epsilon: f64) -> f64 {
    PendingPen { code, op, lhs, rhs }.resolve(epsilon)
}

/// Resolves a structure-of-arrays batch of pending penalty events on the
/// process's active SIMD ISA ([`SimdIsa::active`]), appending one value
/// per event (in order) to `values`. See [`resolve_pen_lanes_with`].
///
/// # Panics
///
/// Panics if the slice lengths disagree or a code is [`pen_code::KEEP`].
pub fn resolve_pen_lanes(
    codes: &[u8],
    ops: &[Cmp],
    lhs: &[f64],
    rhs: &[f64],
    epsilon: f64,
    values: &mut Vec<f64>,
) {
    resolve_pen_lanes_with(SimdIsa::active(), codes, ops, lhs, rhs, epsilon, values);
}

/// Resolves a structure-of-arrays batch of pending penalty events with the
/// given ISA's kernels, appending one value per event (in order) to
/// `values`.
///
/// The batch is scanned for maximal *uniform runs* — consecutive lanes
/// carrying the same pen code and comparison operator, the common case
/// since a batch usually probes one program around one target. Each run
/// of at least [`MIN_LANE_BATCH`] lanes becomes a single packed
/// [`simd::distance_lanes`] kernel call over the operand slices, so the
/// non-inlinable `#[target_feature]` call cost amortizes over the whole
/// run (a full finalize group, or an entire harvested event stream).
/// Shorter or divergent runs resolve lane by lane. Both paths compute
/// exactly [`crate::distance`] on the recorded operands, so values are
/// bit-identical to scalar resolution whichever path (and whichever ISA)
/// runs.
///
/// # Panics
///
/// Panics if the slice lengths disagree or a code is [`pen_code::KEEP`].
pub fn resolve_pen_lanes_with(
    isa: SimdIsa,
    codes: &[u8],
    ops: &[Cmp],
    lhs: &[f64],
    rhs: &[f64],
    epsilon: f64,
    values: &mut Vec<f64>,
) {
    let n = codes.len();
    assert!(
        ops.len() == n && lhs.len() == n && rhs.len() == n,
        "SoA slice lengths disagree"
    );
    values.reserve(n);
    let mut start = 0;
    while start < n {
        let code = codes[start];
        let op = ops[start];
        let mut end = start + 1;
        while end < n && codes[end] == code && ops[end] == op {
            end += 1;
        }
        if code != pen_code::KEEP && end - start >= MIN_LANE_BATCH {
            let at = values.len();
            values.resize(at + (end - start), 0.0);
            let out = &mut values[at..];
            match code {
                pen_code::IDLE => out.fill(1.0),
                pen_code::OPEN => out.fill(0.0),
                pen_code::FALSE_SATURATED => {
                    simd::distance_lanes(isa, op, &lhs[start..end], &rhs[start..end], epsilon, out);
                }
                pen_code::TRUE_SATURATED => {
                    simd::distance_lanes(
                        isa,
                        op.negate(),
                        &lhs[start..end],
                        &rhs[start..end],
                        epsilon,
                        out,
                    );
                }
                _ => unreachable!(),
            }
        } else {
            for lane in start..end {
                values.push(resolve_pen(
                    codes[lane],
                    ops[lane],
                    lhs[lane],
                    rhs[lane],
                    epsilon,
                ));
            }
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchId;
    use crate::distance::DEFAULT_EPSILON;
    use crate::pen::eager_value;
    use crate::program::FnProgram;

    /// The paper's Fig. 3 program with `square` inlined.
    fn paper_example() -> FnProgram<impl Fn(&[f64], &mut ExecCtx)> {
        FnProgram::new("FOO", 1, 2, |input: &[f64], ctx: &mut ExecCtx| {
            let mut x = input[0];
            if ctx.branch(0, Cmp::Le, x, 1.0) {
                x += 2.5;
            }
            let y = x * x;
            if ctx.branch(1, Cmp::Eq, y, 4.0) {
                // target
            }
        })
    }

    /// The eager `pen` fold of one execution (the reference oracle).
    fn eager<P: Program>(program: &P, point: &[f64], saturated: &BranchSet, epsilon: f64) -> f64 {
        let mut observe = ExecCtx::observe();
        program.execute(point, &mut observe);
        eager_value(observe.trace(), saturated, epsilon)
    }

    fn snapshots() -> Vec<BranchSet> {
        vec![
            BranchSet::new(),
            [BranchId::false_of(1)].into_iter().collect(),
            [BranchId::true_of(0), BranchId::false_of(1)]
                .into_iter()
                .collect(),
            [
                BranchId::true_of(0),
                BranchId::false_of(0),
                BranchId::true_of(1),
                BranchId::false_of(1),
            ]
            .into_iter()
            .collect(),
        ]
    }

    #[test]
    fn lane_values_match_eager_execution_bit_for_bit() {
        let program = paper_example();
        for saturated in snapshots() {
            for isa in SimdIsa::supported() {
                let mut lane = LaneCtx::new(saturated.clone()).with_simd(isa);
                let points: Vec<Vec<f64>> = (0..23).map(|i| vec![i as f64 * 0.61 - 7.0]).collect();
                let mut values = Vec::new();
                lane.eval_batch(&program, &points, &mut values);
                assert_eq!(values.len(), points.len());
                for (point, value) in points.iter().zip(&values) {
                    assert_eq!(
                        value.to_bits(),
                        eager(&program, point, &saturated, DEFAULT_EPSILON).to_bits(),
                        "isa {isa}, snapshot {saturated:?}, point {point:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn deferred_context_matches_eager_on_specials() {
        let program = paper_example();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut fast = ExecCtx::representing(saturated.clone())
            .without_trace()
            .without_coverage();
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1e300,
            5e-324,
        ] {
            fast.reset();
            program.execute(&[x], &mut fast);
            assert_eq!(
                fast.representing_value().to_bits(),
                eager(&program, &[x], &saturated, DEFAULT_EPSILON).to_bits(),
                "x = {x}"
            );
        }
    }

    #[test]
    fn record_and_finalize_clear_the_lanes() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        assert!(lane.is_empty());
        lane.record(&program, &[0.5]);
        lane.record(&program, &[2.0]);
        assert_eq!(lane.lanes(), 2);
        let (codes, ops, lhs, rhs) = lane.pending_lanes();
        assert_eq!(codes.len(), 2);
        assert_eq!(ops.len(), 2);
        assert_eq!(lhs.len(), 2);
        assert_eq!(rhs.len(), 2);
        let mut values = Vec::new();
        lane.finalize_into(&mut values);
        assert_eq!(values, vec![0.0, 0.0]);
        assert!(lane.is_empty());
    }

    #[test]
    fn retarget_changes_the_target_snapshot() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        let mut values = Vec::new();
        lane.eval_batch(&program, &[vec![0.3]], &mut values);
        assert_eq!(values, vec![0.0]);
        lane.retarget([BranchId::false_of(1)].into_iter().collect());
        values.clear();
        lane.eval_batch(&program, &[vec![0.3]], &mut values);
        assert!(values[0] > 0.0);
    }

    #[test]
    fn partially_filled_last_chunk_is_finalized() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        let points: Vec<Vec<f64>> = (0..LANE_WIDTH + 3).map(|i| vec![i as f64]).collect();
        let mut values = Vec::new();
        lane.eval_batch(&program, &points, &mut values);
        assert_eq!(values.len(), LANE_WIDTH + 3);
    }

    #[test]
    fn every_isa_packs_the_same_width() {
        for isa in SimdIsa::supported() {
            let mut lane = LaneCtx::new(BranchSet::new()).with_simd(isa);
            assert_eq!(lane.simd_isa(), isa);
            for i in 0..LANE_WIDTH {
                assert!(!lane.is_full());
                lane.record(&paper_example(), &[i as f64]);
            }
            assert!(lane.is_full(), "{isa}");
        }
    }

    #[test]
    #[should_panic(expected = "all lanes filled")]
    fn overfilling_the_lanes_panics() {
        let program = paper_example();
        let mut lane = LaneCtx::new(BranchSet::new());
        for i in 0..=LANE_WIDTH {
            lane.record(&program, &[i as f64]);
        }
    }

    #[test]
    fn custom_epsilon_reaches_the_finalize() {
        let program = paper_example();
        // Both branches of site 1 saturated on one side only matters with
        // an equality op; use a snapshot whose pen goes through distance.
        let saturated: BranchSet = [BranchId::true_of(1)].into_iter().collect();
        for epsilon in [DEFAULT_EPSILON, 0.25, 2.0] {
            let mut lane = LaneCtx::new(saturated.clone()).with_epsilon(epsilon);
            let mut values = Vec::new();
            lane.eval_batch(&program, &[vec![2.0]], &mut values);
            let expect = eager(&program, &[2.0], &saturated, epsilon);
            assert_eq!(values[0].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn explicit_isa_resolution_is_bit_identical_across_isas() {
        // A mixed stream of pending events (every code, every op, special
        // operands) resolves to the same bits under every supported ISA.
        let ops_pool = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
        let operands = [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, -3.5, 1e300];
        let mut codes = Vec::new();
        let mut ops = Vec::new();
        let mut lhs = Vec::new();
        let mut rhs = Vec::new();
        let mut k = 0usize;
        for code in [
            pen_code::IDLE,
            pen_code::OPEN,
            pen_code::FALSE_SATURATED,
            pen_code::TRUE_SATURATED,
        ] {
            for &a in &operands {
                for &b in &operands {
                    codes.push(code);
                    ops.push(ops_pool[k % ops_pool.len()]);
                    lhs.push(a);
                    rhs.push(b);
                    k += 1;
                }
            }
        }
        let mut reference = Vec::new();
        resolve_pen_lanes_with(
            SimdIsa::Portable,
            &codes,
            &ops,
            &lhs,
            &rhs,
            DEFAULT_EPSILON,
            &mut reference,
        );
        for isa in SimdIsa::supported() {
            let mut values = Vec::new();
            resolve_pen_lanes_with(isa, &codes, &ops, &lhs, &rhs, DEFAULT_EPSILON, &mut values);
            assert_eq!(values.len(), reference.len());
            for (k, (v, r)) in values.iter().zip(&reference).enumerate() {
                assert_eq!(v.to_bits(), r.to_bits(), "{isa} lane {k}");
            }
        }
    }
}
