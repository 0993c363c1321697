//! The per-execution context threaded through an instrumented program.
//!
//! `ExecCtx` plays the role of the paper's injected global variable `r`
//! together with the Gcov-style coverage recorder. Every conditional of an
//! instrumented program calls [`ExecCtx::branch`] (or one of the integer
//! promotion helpers), which:
//!
//! 1. evaluates the comparison and records the taken branch (when the
//!    context records coverage or the trace),
//! 2. in [`ExecMode::Representing`] mode, stands in for the injected
//!    assignment `r = pen(l_i, op, a, b)` by remembering the event as the
//!    *pending* penalty unless the site is fully saturated, and
//! 3. returns the comparison outcome so the program can branch on it.
//!
//! The representing function `FOO_R(x)` of the paper is then: create a
//! representing-mode context (which stands for `r = 1`), execute the
//! program on `x`, and read [`ExecCtx::representing_value`].
//!
//! # Deferred penalty
//!
//! `pen` (Definition 4.2) either *overwrites* `r` with a value that does
//! not depend on the previous `r` (cases (a) and (b)) or keeps `r`
//! unchanged (case (c), both sides saturated). So the final `r` is fixed
//! by the **last** event at a site that is not fully saturated, and every
//! earlier distance is dead work. A representing-mode context therefore
//! does one gather into a per-site pen-code table per conditional plus an
//! overwrite of the pending-event slot, and computes the one surviving
//! [`distance`] when the value is read. The value is bit-for-bit what the
//! eager fold `r = pen(...)` at every conditional produces: the same
//! `distance` call on the same operands with the same `ε`. The eager fold
//! survives only as the test oracle ([`crate::pen::eager_value`]).

use crate::branch::{BranchId, BranchSet, Direction, SiteId};
use crate::distance::{distance, Cmp, DEFAULT_EPSILON};
use crate::lane::pen_code_table;
use crate::trace::{TakenBranch, Trace};

/// Per-site `pen` dispatch codes of the deferred penalty. The saturation
/// snapshot is indexed into one `u8` per site, so the per-branch work of a
/// representing execution is a single gather into this table plus an
/// overwrite of the pending-event slot.
///
/// Public so out-of-crate lane executors (the FPIR tape backend) can speak
/// the same deferred protocol: gather the site's code from a table built by
/// [`pen_code_table`](crate::lane::pen_code_table), overwrite the lane's
/// pending event unless the code is [`KEEP`](pen_code::KEEP), and resolve
/// pending events through
/// [`resolve_pen_lanes`](crate::lane::resolve_pen_lanes).
pub mod pen_code {
    /// Neither side saturated: `pen` would return `0`.
    pub const OPEN: u8 = 0;
    /// Only the false side saturated: `pen` would return
    /// `distance(op, a, b)` (the unsaturated true side is the target).
    pub const FALSE_SATURATED: u8 = 1;
    /// Only the true side saturated: `pen` would return
    /// `distance(op.negate(), a, b)`.
    pub const TRUE_SATURATED: u8 = 2;
    /// Both sides saturated: `pen` keeps the previous `r`, so the event
    /// cannot influence the final value and is dropped at record time.
    pub const KEEP: u8 = 3;
    /// Sentinel for "no live event recorded yet": the accumulator keeps its
    /// initial value `1`. Never stored in the per-site table.
    pub const IDLE: u8 = 4;
}

/// The deferred-penalty state of one execution: the last branch event whose
/// site was not fully saturated. Because `pen` either *overwrites* `r` with
/// a value that does not depend on the previous `r` (cases (a)/(b) of
/// Definition 4.2) or keeps it unchanged (case (c)), the final value of `r`
/// is a function of this one event alone (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PendingPen {
    /// One of the [`pen_code`] constants ([`pen_code::KEEP`] excluded).
    pub code: u8,
    /// Comparison operator of the event.
    pub op: Cmp,
    /// Left operand at the moment of the comparison.
    pub lhs: f64,
    /// Right operand at the moment of the comparison.
    pub rhs: f64,
}

impl PendingPen {
    pub(crate) const IDLE: PendingPen = PendingPen {
        code: pen_code::IDLE,
        op: Cmp::Eq,
        lhs: 0.0,
        rhs: 0.0,
    };

    /// Resolves the pending event into the final accumulator value,
    /// computing exactly the `distance` call the last live `pen` would have
    /// made (bit-for-bit: same function, same operands, same `ε`).
    pub(crate) fn resolve(self, epsilon: f64) -> f64 {
        match self.code {
            pen_code::IDLE => 1.0,
            pen_code::OPEN => 0.0,
            pen_code::FALSE_SATURATED => distance(self.op, self.lhs, self.rhs, epsilon),
            pen_code::TRUE_SATURATED => distance(self.op.negate(), self.lhs, self.rhs, epsilon),
            code => unreachable!("pen code {code} is never pending"),
        }
    }
}

/// How one execution of a program under test ended.
///
/// Interpreted or otherwise untrusted programs (the `coverme-fpir` front
/// end, generated test programs) may fail to terminate cleanly: they can
/// exhaust their step fuel in a loop or hit a runtime fault. Such runs used
/// to be indistinguishable from clean ones — the truncated trace and the
/// partial accumulator `r` fed the representing function as if they were a
/// real path. An executor classifies each run by marking the context
/// ([`ExecCtx::mark_timeout`]/[`ExecCtx::mark_trap`]); consumers read the
/// classification back with [`ExecCtx::run_outcome`] and must exclude
/// aborted runs from coverage, saturation and memoization updates.
///
/// Hand-instrumented native programs (fdlibm) never mark, so their contexts
/// always report [`RunOutcome::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// The program ran to completion; its trace and coverage are real.
    #[default]
    Done,
    /// The executor's step fuel ran out before the program finished (the
    /// usual fate of an infinite loop under a bounded interpreter).
    Timeout,
    /// The program faulted: recursion depth exceeded, a missing call
    /// target, or any other condition the executor cannot recover from.
    Trap,
}

impl RunOutcome {
    /// Whether the run finished cleanly.
    pub fn is_done(self) -> bool {
        self == RunOutcome::Done
    }

    /// Stable lowercase label (used by JSON artifacts and the CLI).
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Done => "done",
            RunOutcome::Timeout => "timeout",
            RunOutcome::Trap => "trap",
        }
    }
}

/// The two ways an instrumented program can be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Record coverage and the trace only; `r` is not maintained. This is
    /// what plain coverage measurement (and the baseline testers) use.
    Observe,
    /// Additionally maintain the representing-function accumulator `r`
    /// against a saturation snapshot.
    Representing,
}

/// Per-execution instrumentation state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecCtx {
    mode: ExecMode,
    epsilon: f64,
    /// Snapshot of the saturated branches (empty in observe mode).
    saturated: BranchSet,
    /// Per-site [`pen_code`] table of the snapshot, indexed by `SiteId`
    /// (empty in observe mode). Rebuilt whenever the snapshot changes;
    /// sites past the end are unsaturated ([`pen_code::OPEN`]).
    pen_codes: Vec<u8>,
    /// Last live branch event of the current representing execution: the
    /// deferred `r`.
    pending: PendingPen,
    /// Branches covered by this execution.
    covered: BranchSet,
    /// Ordered decisions taken by this execution.
    trace: Trace,
    /// Whether the trace is recorded.
    record_trace: bool,
    /// Whether the covered set is recorded. Disabled by value-only
    /// evaluations (the objective engine's scalar path, the lane backend),
    /// which only need `r`.
    record_coverage: bool,
    /// How the current execution ended. [`RunOutcome::Done`] unless the
    /// executor marked the run aborted; reset to `Done` by
    /// [`reset`](Self::reset).
    outcome: RunOutcome,
}

impl ExecCtx {
    fn with_mode(mode: ExecMode, saturated: BranchSet) -> ExecCtx {
        let pen_codes = match mode {
            ExecMode::Observe => Vec::new(),
            ExecMode::Representing => pen_code_table(&saturated),
        };
        ExecCtx {
            mode,
            epsilon: DEFAULT_EPSILON,
            saturated,
            pen_codes,
            pending: PendingPen::IDLE,
            covered: BranchSet::new(),
            trace: Trace::new(),
            record_trace: true,
            record_coverage: true,
            outcome: RunOutcome::Done,
        }
    }

    /// Creates a context that only observes coverage and the trace.
    pub fn observe() -> ExecCtx {
        ExecCtx::with_mode(ExecMode::Observe, BranchSet::new())
    }

    /// Creates a representing-function context against a saturation
    /// snapshot. The accumulator `r` starts at `1`, which guarantees
    /// `FOO_R(x) > 0` once every branch is saturated (condition C1/C2 of the
    /// paper's Sect. 3.2).
    pub fn representing(saturated: BranchSet) -> ExecCtx {
        ExecCtx::with_mode(ExecMode::Representing, saturated)
    }

    /// Overrides the `ε` used by the branch distances.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not strictly positive.
    pub fn with_epsilon(mut self, epsilon: f64) -> ExecCtx {
        assert!(epsilon > 0.0, "epsilon must be strictly positive");
        self.epsilon = epsilon;
        self
    }

    /// Disables trace recording (coverage is still recorded). Useful for the
    /// many millions of executions a fuzzing baseline performs.
    pub fn without_trace(mut self) -> ExecCtx {
        self.record_trace = false;
        self
    }

    /// Disables covered-set recording as well. This is the value-only path
    /// of the objective engine and the lane backend: an evaluation that only
    /// needs `FOO_R(x)` pays for neither the trace nor the per-branch
    /// coverage inserts — `r` is unaffected, because `pen` reads only the
    /// saturation snapshot. [`covered`](Self::covered) stays empty on such a
    /// context.
    pub fn without_coverage(mut self) -> ExecCtx {
        self.record_coverage = false;
        self
    }

    /// The execution mode of this context.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The `ε` in use.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Evaluates the instrumented conditional `a op b` at site `site`.
    ///
    /// Returns the concrete outcome of the comparison so the caller can
    /// branch on it, after recording coverage and (in representing mode)
    /// standing in for the injected `r = pen(site, op, a, b)` assignment:
    /// one gather into the pen-code table, and an overwrite of the pending
    /// event unless both sides of the site are saturated. The distance
    /// itself is deferred to [`representing_value`](Self::representing_value),
    /// because later live events overwrite it anyway.
    #[inline]
    pub fn branch(&mut self, site: SiteId, op: Cmp, a: f64, b: f64) -> bool {
        if self.mode == ExecMode::Representing {
            let code = self
                .pen_codes
                .get(site as usize)
                .copied()
                .unwrap_or(pen_code::OPEN);
            if code != pen_code::KEEP {
                self.pending = PendingPen {
                    code,
                    op,
                    lhs: a,
                    rhs: b,
                };
            }
        }
        let outcome = op.eval(a, b);
        if self.record_coverage || self.record_trace {
            self.record(site, op, a, b, outcome);
        }
        outcome
    }

    /// Records one decision in the covered set and the trace, as enabled.
    /// Kept out of line so value-only executions, which record nothing,
    /// inline only the pen-code gather at every conditional.
    #[inline(never)]
    fn record(&mut self, site: SiteId, op: Cmp, a: f64, b: f64, outcome: bool) {
        let direction = Direction::from_outcome(outcome);
        if self.record_coverage {
            self.covered.insert(BranchId { site, direction });
        }
        if self.record_trace {
            self.trace.push(TakenBranch {
                site,
                direction,
                op,
                lhs: a,
                rhs: b,
            });
        }
    }

    /// Instrumented conditional over `i64` operands.
    ///
    /// Real-world floating-point code (all of Fdlibm) branches on integer
    /// bit patterns extracted from doubles. The paper's Sect. 5.3 handles
    /// such comparisons by promoting the operands to doubles before calling
    /// `pen`; this helper does exactly that.
    pub fn branch_i64(&mut self, site: SiteId, op: Cmp, a: i64, b: i64) -> bool {
        self.branch(site, op, a as f64, b as f64)
    }

    /// Instrumented conditional over `i32` operands (promoted to doubles).
    pub fn branch_i32(&mut self, site: SiteId, op: Cmp, a: i32, b: i32) -> bool {
        self.branch(site, op, f64::from(a), f64::from(b))
    }

    /// Instrumented conditional over `u32` operands (promoted to doubles).
    pub fn branch_u32(&mut self, site: SiteId, op: Cmp, a: u32, b: u32) -> bool {
        self.branch(site, op, f64::from(a), f64::from(b))
    }

    /// Instrumented conditional over a boolean condition that is *not* an
    /// arithmetic comparison (e.g. a logical combination the front end chose
    /// not to decompose). Such conditionals cannot contribute a meaningful
    /// branch distance, so in representing mode they behave like an
    /// unsaturatable-site: coverage is recorded, and `r` is updated with the
    /// 0/ε distance of the boolean seen as `flag != 0` / `flag == 0`.
    pub fn branch_bool(&mut self, site: SiteId, value: bool) -> bool {
        let numeric = if value { 1.0 } else { 0.0 };
        self.branch(site, Cmp::Ne, numeric, 0.0)
    }

    /// Marks the current execution as aborted by step-fuel exhaustion.
    /// Called by bounded executors (the FPIR interpreter) when a run does
    /// not finish within its fuel; sticky until [`reset`](Self::reset).
    pub fn mark_timeout(&mut self) {
        if self.outcome == RunOutcome::Done {
            self.outcome = RunOutcome::Timeout;
        }
    }

    /// Marks the current execution as aborted by a runtime fault (depth
    /// exhaustion, missing call target, …); sticky until
    /// [`reset`](Self::reset).
    pub fn mark_trap(&mut self) {
        if self.outcome == RunOutcome::Done {
            self.outcome = RunOutcome::Trap;
        }
    }

    /// How the current execution ended. [`RunOutcome::Done`] unless the
    /// executor marked it; consumers must discard the trace, coverage and
    /// representing value of a non-`Done` run.
    pub fn run_outcome(&self) -> RunOutcome {
        self.outcome
    }

    /// The current value of the injected accumulator `r`.
    ///
    /// For a representing-mode context this is `FOO_R(x)` once the program
    /// has finished executing on `x`, resolved from the pending event with
    /// one `distance` call; for an observe-mode context it stays at its
    /// initial value `1`.
    pub fn representing_value(&self) -> f64 {
        match self.mode {
            ExecMode::Observe => 1.0,
            ExecMode::Representing => self.pending.resolve(self.epsilon),
        }
    }

    /// The pending last live event of a representing execution; used by
    /// the lane backend to harvest one lane into its SoA buffers.
    pub(crate) fn pending_pen(&self) -> PendingPen {
        self.pending
    }

    /// Branches covered by this execution (empty if coverage recording is
    /// disabled, see [`without_coverage`](Self::without_coverage)).
    pub fn covered(&self) -> &BranchSet {
        &self.covered
    }

    /// The saturation snapshot this context evaluates `pen` against (empty
    /// in observe mode).
    pub fn saturated(&self) -> &BranchSet {
        &self.saturated
    }

    /// Replaces the saturation snapshot while keeping the mode, `ε` and the
    /// recording flags. Together with [`reset`](Self::reset) this lets one
    /// long-lived context serve every round of a search: the snapshot is
    /// swapped (one clone and one O(sites) pen-code table rebuild per
    /// *round*) instead of a fresh context being built per *evaluation*.
    pub fn retarget(&mut self, saturated: BranchSet) {
        self.saturated = saturated;
        if self.mode == ExecMode::Representing {
            self.pen_codes = pen_code_table(&self.saturated);
        }
    }

    /// The ordered decision trace of this execution (empty if disabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the context, returning the covered set, the trace and the
    /// representing value.
    pub fn into_parts(self) -> (BranchSet, Trace, f64) {
        let value = self.representing_value();
        (self.covered, self.trace, value)
    }

    /// Resets the per-execution state (covered set, trace, `r`) while
    /// keeping the mode, the saturation snapshot and `ε`. This lets a caller
    /// reuse one allocation across many executions.
    #[inline]
    pub fn reset(&mut self) {
        self.covered.clear();
        self.trace.clear();
        self.pending = PendingPen::IDLE;
        self.outcome = RunOutcome::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-conditional program of the paper's Fig. 3:
    /// `l0: if (x <= 1) x += 2.5;  y = x*x;  l1: if (y == 4) {..}`.
    fn run_foo(ctx: &mut ExecCtx, x: f64) {
        let mut x = x;
        if ctx.branch(0, Cmp::Le, x, 1.0) {
            x += 2.5;
        }
        let y = x * x;
        if ctx.branch(1, Cmp::Eq, y, 4.0) {
            // nothing
        }
    }

    #[test]
    fn observe_mode_records_coverage_and_trace() {
        let mut ctx = ExecCtx::observe();
        run_foo(&mut ctx, 0.7);
        assert_eq!(ctx.trace().len(), 2);
        assert!(ctx.covered().contains(BranchId::true_of(0)));
        assert!(ctx.covered().contains(BranchId::false_of(1)));
        assert_eq!(ctx.covered().len(), 2);
        // r untouched in observe mode.
        assert_eq!(ctx.representing_value(), 1.0);
    }

    #[test]
    fn representing_r_is_zero_when_nothing_is_saturated() {
        // Table 1 row 1: Saturate = ∅ ⇒ FOO_R ≡ 0.
        for x in [-5.2, 0.7, 1.0, 42.0] {
            let mut ctx = ExecCtx::representing(BranchSet::new());
            run_foo(&mut ctx, x);
            assert_eq!(ctx.representing_value(), 0.0, "x = {x}");
        }
    }

    #[test]
    fn representing_r_matches_table1_row2() {
        // Saturate = {1F}. FOO_R(x) = ((x+2.5)^2 - 4)^2 for x <= 1,
        // (x^2 - 4)^2 otherwise (the paper plots the x+1 variant; the body
        // here adds 2.5, the shape is identical).
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let foo_r = |x: f64| {
            let mut ctx = ExecCtx::representing(saturated.clone());
            run_foo(&mut ctx, x);
            ctx.representing_value()
        };
        // x = -0.5 takes 0T: y = (x+2.5)^2 = 4 ⇒ distance 0.
        assert_eq!(foo_r(-0.5), 0.0);
        // x = 2 takes 0F: y = 4 ⇒ distance 0.
        assert_eq!(foo_r(2.0), 0.0);
        // x = 0 takes 0T: y = 6.25 ⇒ (6.25-4)^2.
        assert!((foo_r(0.0) - (6.25_f64 - 4.0).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn representing_r_is_one_when_everything_is_saturated() {
        // Table 1 row 4: all four branches saturated ⇒ FOO_R ≡ 1.
        let saturated: BranchSet = [
            BranchId::true_of(0),
            BranchId::false_of(0),
            BranchId::true_of(1),
            BranchId::false_of(1),
        ]
        .into_iter()
        .collect();
        for x in [-5.2, 0.7, 1.1, 2.0] {
            let mut ctx = ExecCtx::representing(saturated.clone());
            run_foo(&mut ctx, x);
            assert_eq!(ctx.representing_value(), 1.0, "x = {x}");
        }
    }

    #[test]
    fn representing_value_matches_the_eager_fold() {
        let snapshots: Vec<BranchSet> = vec![
            BranchSet::new(),
            [BranchId::false_of(1)].into_iter().collect(),
            [BranchId::true_of(0), BranchId::false_of(1)]
                .into_iter()
                .collect(),
            [BranchId::true_of(1), BranchId::false_of(1)]
                .into_iter()
                .collect(),
        ];
        for saturated in snapshots {
            for x in [-0.5, 0.0, -0.0, 0.7, 2.0, 5e-324, f64::INFINITY, f64::NAN] {
                let mut ctx = ExecCtx::representing(saturated.clone());
                run_foo(&mut ctx, x);
                let eager = crate::pen::eager_value(ctx.trace(), &saturated, DEFAULT_EPSILON);
                assert_eq!(
                    ctx.representing_value().to_bits(),
                    eager.to_bits(),
                    "x = {x}, snapshot {saturated:?}"
                );
            }
        }
    }

    #[test]
    fn integer_promotion_helpers_agree_with_double_branch() {
        let mut a = ExecCtx::observe();
        let mut b = ExecCtx::observe();
        let taken_int = a.branch_i32(0, Cmp::Ge, 0x7ff0_0000u32 as i32, 0x4036_0000);
        let taken_f64 = b.branch(
            0,
            Cmp::Ge,
            (0x7ff0_0000u32 as i32) as f64,
            0x4036_0000 as f64,
        );
        assert_eq!(taken_int, taken_f64);

        let mut c = ExecCtx::observe();
        assert!(c.branch_u32(1, Cmp::Lt, 1, 2));
        assert!(c.branch_i64(2, Cmp::Eq, -7, -7));
        assert!(c.branch_bool(3, true));
        assert!(!c.branch_bool(4, false));
    }

    #[test]
    fn without_trace_still_records_coverage() {
        let mut ctx = ExecCtx::observe().without_trace();
        run_foo(&mut ctx, 0.7);
        assert!(ctx.trace().is_empty());
        assert_eq!(ctx.covered().len(), 2);
    }

    #[test]
    fn reset_clears_per_execution_state() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut ctx = ExecCtx::representing(saturated);
        run_foo(&mut ctx, 0.0);
        assert!(ctx.representing_value() > 0.0);
        ctx.reset();
        assert_eq!(ctx.representing_value(), 1.0);
        assert!(ctx.covered().is_empty());
        assert!(ctx.trace().is_empty());
        // The saturation snapshot is retained.
        run_foo(&mut ctx, 0.0);
        assert!(ctx.representing_value() > 0.0);
    }

    #[test]
    fn without_coverage_still_computes_r() {
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut fast = ExecCtx::representing(saturated.clone())
            .without_trace()
            .without_coverage();
        let mut full = ExecCtx::representing(saturated);
        for x in [-4.5, -0.5, 0.0, 0.7, 2.0, 10.0] {
            fast.reset();
            full.reset();
            run_foo(&mut fast, x);
            run_foo(&mut full, x);
            assert_eq!(
                fast.representing_value().to_bits(),
                full.representing_value().to_bits(),
                "x = {x}"
            );
            assert!(fast.covered().is_empty());
            assert!(fast.trace().is_empty());
        }
    }

    #[test]
    fn retarget_swaps_the_snapshot_in_place() {
        let mut ctx = ExecCtx::representing(BranchSet::new())
            .without_trace()
            .without_coverage();
        run_foo(&mut ctx, 0.7);
        // Nothing saturated: FOO_R ≡ 0.
        assert_eq!(ctx.representing_value(), 0.0);

        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        ctx.retarget(saturated.clone());
        assert_eq!(ctx.saturated(), &saturated);
        ctx.reset();
        run_foo(&mut ctx, 0.7);
        let retargeted = ctx.representing_value();
        // Against {1F} the value matches a freshly built context.
        let mut fresh = ExecCtx::representing(saturated);
        run_foo(&mut fresh, 0.7);
        assert_eq!(retargeted.to_bits(), fresh.representing_value().to_bits());
        assert!(retargeted > 0.0);
    }

    #[test]
    #[should_panic(expected = "epsilon must be strictly positive")]
    fn rejects_non_positive_epsilon() {
        let _ = ExecCtx::observe().with_epsilon(0.0);
    }

    #[test]
    fn run_outcome_defaults_done_sticks_and_resets() {
        let mut ctx = ExecCtx::representing(BranchSet::new());
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
        ctx.mark_timeout();
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
        // The first classification wins: a later trap does not overwrite.
        ctx.mark_trap();
        assert_eq!(ctx.run_outcome(), RunOutcome::Timeout);
        ctx.reset();
        assert_eq!(ctx.run_outcome(), RunOutcome::Done);
        ctx.mark_trap();
        assert_eq!(ctx.run_outcome(), RunOutcome::Trap);
        // Value-only contexts reset the outcome too.
        let mut fast = ExecCtx::representing(BranchSet::new())
            .without_trace()
            .without_coverage();
        fast.mark_timeout();
        assert_eq!(fast.run_outcome(), RunOutcome::Timeout);
        fast.reset();
        assert_eq!(fast.run_outcome(), RunOutcome::Done);
    }

    #[test]
    fn into_parts_returns_everything() {
        let mut ctx = ExecCtx::observe();
        run_foo(&mut ctx, 3.0);
        let (covered, trace, r) = ctx.into_parts();
        assert_eq!(covered.len(), 2);
        assert_eq!(trace.len(), 2);
        assert_eq!(r, 1.0);
    }
}
