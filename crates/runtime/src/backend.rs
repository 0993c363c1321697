//! The execution-backend layer: how representing-function evaluations are
//! actually carried out.
//!
//! Historically the execution strategy was smeared across three places —
//! the scalar fast path executed the program directly against a long-lived
//! [`ExecCtx`], the lane path went through [`LaneCtx`], and the objective
//! engine hard-coded the dispatch between them (an inline
//! `MIN_LANE_BATCH` branch). [`ExecBackend`] makes that choice an explicit,
//! swappable layer:
//!
//! * [`InterpBackend`] reproduces the historical behavior exactly: scalar
//!   evaluations call [`Program::execute`] (whatever executor the program
//!   embeds — the fdlibm ports run native Rust, `coverme-fpir` programs run
//!   their tree-walking interpreter), and batches go through the
//!   deferred-penalty [`LaneCtx`] record/finalize protocol.
//! * A program can provide its own backend through
//!   [`Program::backend`](crate::Program::backend) — the FPIR front end
//!   lowers its AST to a flat instruction tape and returns a tape backend
//!   whose lane path runs all lanes through the tape in lockstep.
//!
//! Whatever the backend, the contract is **bit-exactness**: values,
//! coverage, traces, [`RunOutcome`] classification and cache visibility
//! must be indistinguishable from [`Program::execute`] under a
//! representing [`ExecCtx`]. The backend seam is a throughput knob, never a semantic
//! one.

use crate::branch::BranchSet;
use crate::context::{ExecCtx, RunOutcome};
use crate::lane::{LaneCtx, LANE_WIDTH, MIN_LANE_BATCH};
use crate::program::Program;
use crate::simd::SimdIsa;

/// Which execution backend an evaluation pipeline should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendMode {
    /// Let the program pick: programs that carry a compiled form (the FPIR
    /// tape) use it, everything else runs the interpreter/native backend.
    #[default]
    Auto,
    /// Force the historical backend: [`Program::execute`] per evaluation,
    /// [`LaneCtx`] for batches. Every program supports this.
    Interp,
    /// Force the compiled tape backend. Programs without a tape (native
    /// fdlibm ports, hand-written closures) fall back to
    /// [`BackendMode::Interp`].
    Tape,
}

impl BackendMode {
    /// Stable lowercase label (CLI flags, JSON artifacts).
    pub fn label(self) -> &'static str {
        match self {
            BackendMode::Auto => "auto",
            BackendMode::Interp => "interp",
            BackendMode::Tape => "tape",
        }
    }

    /// Parses a CLI-style label (the inverse of [`label`](Self::label)).
    pub fn parse(s: &str) -> Option<BackendMode> {
        match s {
            "auto" => Some(BackendMode::Auto),
            "interp" => Some(BackendMode::Interp),
            "tape" => Some(BackendMode::Tape),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Value and classification of one lane of a batched evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneEval {
    /// The resolved representing-function value. Meaningless (and discarded
    /// by consumers) when `outcome` is not [`RunOutcome::Done`].
    pub value: f64,
    /// How the lane's execution ended.
    pub outcome: RunOutcome,
}

/// An execution strategy for representing-function evaluations.
///
/// Implementations must be observably identical to executing the program
/// through [`Program::execute`]: same values (bit-for-bit), same coverage
/// and trace on recording contexts, same [`RunOutcome`] classification.
pub trait ExecBackend: std::fmt::Debug + Send {
    /// Stable backend name recorded in reports and bench artifacts.
    fn name(&self) -> &'static str;

    /// Number of evaluations the batched path processes in lockstep
    /// ([`LANE_WIDTH`] on every ISA).
    fn lane_width(&self) -> usize {
        LANE_WIDTH
    }

    /// The SIMD ISA the backend's lane finalize dispatches to. Recorded in
    /// reports so artifacts say which kernels produced them.
    fn simd_isa(&self) -> SimdIsa;

    /// Overrides the backend's SIMD ISA (the `--simd`/`COVERME_SIMD`
    /// knob, resolved per engine instance). Called only between batches,
    /// never with lanes in flight.
    ///
    /// # Panics
    ///
    /// Implementations panic if the machine cannot execute `isa` — CLI
    /// front ends validate with [`SimdIsa::is_supported`] first.
    fn set_simd(&mut self, isa: SimdIsa);

    /// Smallest batch for which the lane path beats scalar evaluation;
    /// dispatchers fall back to scalar calls below it.
    fn min_batch(&self) -> usize {
        MIN_LANE_BATCH
    }

    /// Sets the `ε` used by branch distances. Called once when the backend
    /// is installed into an evaluation pipeline.
    fn set_epsilon(&mut self, epsilon: f64);

    /// Points the backend at a new saturation snapshot. Called on round
    /// boundaries, never with lanes in flight.
    fn retarget(&mut self, saturated: &BranchSet);

    /// Executes `program` on `input` against `ctx` — the scalar/full path.
    /// `ctx` may be in any mode (representing, observe, …); the
    /// backend must report branches through it exactly as
    /// [`Program::execute`] would.
    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx);

    /// Evaluates the representing function at `points[i]` for every `i` in
    /// `indices`, appending one [`LaneEval`] per index (in order) to `out`.
    /// This is the deferred-penalty batch path: no coverage, no trace, just
    /// the value and the run classification.
    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    );

    /// Clones the backend into a box (manual object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn ExecBackend>;
}

impl Clone for Box<dyn ExecBackend> {
    fn clone(&self) -> Box<dyn ExecBackend> {
        self.clone_box()
    }
}

/// The historical backend: [`Program::execute`] for scalar evaluations,
/// the deferred-penalty [`LaneCtx`] for batches. Works for every program.
#[derive(Debug, Clone)]
pub struct InterpBackend {
    lane: LaneCtx,
    /// Per-chunk outcome scratch, aligned with the lane record order.
    outcomes: Vec<RunOutcome>,
    /// Per-chunk value scratch the finalize writes into.
    values: Vec<f64>,
}

impl InterpBackend {
    /// Creates the backend against the empty saturation snapshot.
    pub fn new() -> InterpBackend {
        InterpBackend {
            lane: LaneCtx::new(BranchSet::new()),
            outcomes: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl Default for InterpBackend {
    fn default() -> InterpBackend {
        InterpBackend::new()
    }
}

impl ExecBackend for InterpBackend {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn simd_isa(&self) -> SimdIsa {
        self.lane.simd_isa()
    }

    fn set_simd(&mut self, isa: SimdIsa) {
        let lane = std::mem::take(&mut self.lane);
        self.lane = lane.with_simd(isa);
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        let lane = std::mem::take(&mut self.lane);
        self.lane = lane.with_epsilon(epsilon);
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.lane.retarget(saturated.clone());
    }

    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        program.execute(input, ctx);
    }

    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        out.reserve(indices.len());
        for chunk in indices.chunks(LANE_WIDTH) {
            self.outcomes.clear();
            for &index in chunk {
                let outcome = self.lane.record(program, &points[index]);
                self.outcomes.push(outcome);
            }
            self.values.clear();
            self.lane.finalize_into(&mut self.values);
            debug_assert_eq!(self.values.len(), self.outcomes.len());
            for (&value, &outcome) in self.values.iter().zip(&self.outcomes) {
                out.push(LaneEval { value, outcome });
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchId;
    use crate::distance::{Cmp, DEFAULT_EPSILON};
    use crate::pen::eager_value;
    use crate::program::FnProgram;

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

    #[test]
    fn mode_labels_round_trip() {
        for mode in [BackendMode::Auto, BackendMode::Interp, BackendMode::Tape] {
            assert_eq!(BackendMode::parse(mode.label()), Some(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(BackendMode::parse("nope"), None);
        assert_eq!(BackendMode::default(), BackendMode::Auto);
    }

    #[test]
    fn interp_backend_lanes_match_eager_execution() {
        let program = paper_example();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        let mut backend = InterpBackend::new();
        backend.set_epsilon(DEFAULT_EPSILON);
        backend.retarget(&saturated);
        assert_eq!(backend.name(), "interp");
        assert_eq!(backend.lane_width(), LANE_WIDTH);
        assert_eq!(backend.min_batch(), MIN_LANE_BATCH);

        let points: Vec<Vec<f64>> = (0..19).map(|i| vec![i as f64 * 0.61 - 7.0]).collect();
        let indices: Vec<usize> = (0..points.len()).collect();
        let mut evals = Vec::new();
        backend.run_lanes(&paper_example(), &points, &indices, &mut evals);
        assert_eq!(evals.len(), points.len());
        for (point, eval) in points.iter().zip(&evals) {
            let mut observe = ExecCtx::observe();
            program.execute(point, &mut observe);
            let eager = eager_value(observe.trace(), &saturated, DEFAULT_EPSILON);
            assert_eq!(eval.value.to_bits(), eager.to_bits());
            assert_eq!(eval.outcome, RunOutcome::Done);
        }
    }

    #[test]
    fn interp_backend_run_reports_through_the_ctx() {
        let program = paper_example();
        let mut backend = InterpBackend::new();
        let mut ctx = ExecCtx::observe();
        backend.run(&program, &[2.0], &mut ctx);
        assert!(ctx.covered().contains(BranchId::false_of(0)));
        assert!(ctx.covered().contains(BranchId::true_of(1)));
    }

    #[test]
    fn boxed_backends_clone() {
        let backend: Box<dyn ExecBackend> = Box::new(InterpBackend::new());
        let clone = backend.clone();
        assert_eq!(clone.name(), "interp");
    }
}
