//! Benchmark-side tracing of the library's public seams.
//!
//! Nothing here changes the program under test. A traced campaign hands
//! the scheduler [`TracedProgram`]s instead of the bare programs: each
//! wrapper delegates `name`, `arity`, `num_sites`, `source_lines` and
//! `fingerprint` unchanged (so corpus keys, seeds and reports stay
//! identical) and times the calls that cross a layer boundary:
//!
//! * `Program::backend` and, for FPIR programs, `Program::fingerprint` —
//!   both lower the program to its instruction tape;
//! * `ExecBackend::run` (the scalar path) and `ExecBackend::run_lanes` (the
//!   batched path) of the backend the wrapper hands the engine;
//! * `Program::execute` when it is called outside a backend.
//!
//! Hot calls land in per-thread `(count, ns)` accumulators that only their
//! own thread writes; the main thread sums them after the campaign has
//! joined its workers. Every call is counted. Lane calls are all timed;
//! scalar calls, which take about a hundred nanoseconds on the Fdlibm
//! ports, are timed one in [`SCALAR_SAMPLE`] (and always on a switch to
//! another function), and their time is scaled up from that sample. Each thread also folds its calls into **stints**:
//! maximal runs of calls for one function with no gap longer than
//! [`STINT_GAP_NS`]. A stint is the time a worker was busy with that
//! function (search plus execution), so parked time at a sync barrier is
//! not counted. Coarse boundaries (compile, campaign, serve jobs, corpus
//! open) are recorded as [`Span`]s, kept in memory and exported at the end
//! as Chrome trace-event JSON.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coverme::report::schema::JsonValue;

use crate::output::{num, object, text};
use coverme_runtime::{BackendMode, BranchSet, ExecBackend, ExecCtx, LaneEval, Program, SimdIsa};

/// A gap between two calls for the same function longer than this ends
/// the worker's stint on it (the worker parked or switched tasks).
pub const STINT_GAP_NS: u64 = 5_000_000;

/// One in this many scalar calls of a thread is timed.
pub const SCALAR_SAMPLE: u64 = 8;

/// Per-function counters, one slot each in a thread's accumulator row.
#[derive(Debug, Clone, Copy)]
pub enum Counter {
    /// Scalar executions: `ExecBackend::run`, plus `Program::execute`
    /// called outside a backend.
    ScalarCalls,
    /// Scalar executions that were timed.
    ScalarTimed,
    /// Nanoseconds spent in the timed scalar executions.
    ScalarTimedNs,
    /// `ExecBackend::run_lanes` calls.
    LaneCalls,
    /// Points evaluated by those calls.
    LaneEvals,
    /// Nanoseconds spent in `run_lanes`.
    LaneNs,
    /// Lowerings to the FPIR tape (`backend` and `fingerprint` calls).
    LowerCalls,
    /// Nanoseconds spent lowering.
    LowerNs,
    /// Nanoseconds of closed stints.
    BusyNs,
}

const COUNTERS: usize = 9;

/// One coarse span, in nanoseconds since the session epoch.
#[derive(Debug, Clone)]
struct Span {
    /// Event name shown by the trace viewer.
    name: String,
    /// Layer the span belongs to (the trace-event category).
    cat: &'static str,
    /// Recording thread's id within the session.
    tid: u64,
    /// Start offset from the session epoch.
    start_ns: u64,
    /// Duration.
    dur_ns: u64,
}

/// The accumulators one thread owns. Only the owning thread stores into
/// the atomics (plain load + store, no read-modify-write); other threads
/// read them after a join, which orders the accesses.
#[derive(Debug)]
struct ThreadAcc {
    tid: u64,
    counters: Box<[AtomicU64]>,
    /// Scalar calls seen, for the one-in-[`SCALAR_SAMPLE`] timing.
    seen: AtomicU64,
    /// Open stint: function index + 1 (0 = none), start and last end.
    stint_fn: AtomicU64,
    stint_start: AtomicU64,
    stint_last: AtomicU64,
    /// Closed stints, `(function, start_ns, end_ns)`.
    stints: Mutex<Vec<(usize, u64, u64)>>,
}

impl ThreadAcc {
    fn add(&self, function: usize, counter: Counter, value: u64) {
        let slot = &self.counters[function * COUNTERS + counter as usize];
        slot.store(slot.load(Relaxed) + value, Relaxed);
    }

    fn close_stint(&self) {
        let open = self.stint_fn.load(Relaxed);
        if open == 0 {
            return;
        }
        let function = (open - 1) as usize;
        let start = self.stint_start.load(Relaxed);
        let end = self.stint_last.load(Relaxed);
        self.add(function, Counter::BusyNs, end - start);
        self.stints
            .lock()
            .expect("stint list poisoned")
            .push((function, start, end));
        self.stint_fn.store(0, Relaxed);
    }

    /// Extends the open stint with a call `[start, end]` for `function`,
    /// or closes it and opens a new one.
    fn touch(&self, function: usize, start: u64, end: u64) {
        let open = self.stint_fn.load(Relaxed);
        let last = self.stint_last.load(Relaxed);
        if open == function as u64 + 1 && start.saturating_sub(last) <= STINT_GAP_NS {
            self.stint_last.store(end, Relaxed);
            return;
        }
        self.close_stint();
        self.stint_fn.store(function as u64 + 1, Relaxed);
        self.stint_start.store(start, Relaxed);
        self.stint_last.store(end, Relaxed);
    }
}

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's accumulator for the recorder it last reported to.
    static SLOT: RefCell<Option<(u64, Arc<ThreadAcc>)>> = const { RefCell::new(None) };
    /// Set while a traced backend call is in flight, so the
    /// `Program::execute` calls it makes are not counted twice.
    static IN_BACKEND: Cell<bool> = const { Cell::new(false) };
}

/// Collects per-thread accumulators and spans for one traced campaign (or
/// one traced session).
#[derive(Debug)]
pub struct Recorder {
    id: u64,
    epoch: Instant,
    functions: usize,
    threads: Mutex<Vec<Arc<ThreadAcc>>>,
    spans: Mutex<Vec<Span>>,
}

/// Per-function totals summed over every thread of a recorder.
#[derive(Debug, Clone, Default)]
pub struct FunctionTotals {
    /// Counter totals, indexed by [`Counter`].
    counters: [u64; COUNTERS],
}

impl FunctionTotals {
    /// One counter's total.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Estimated nanoseconds of all scalar calls, scaled up from the
    /// timed ones.
    pub fn scalar_ns(&self) -> f64 {
        let timed = self.get(Counter::ScalarTimed);
        if timed == 0 {
            return 0.0;
        }
        self.get(Counter::ScalarTimedNs) as f64 * self.get(Counter::ScalarCalls) as f64
            / timed as f64
    }

    /// Estimated nanoseconds of all execution calls, scalar and lane.
    pub fn exec_ns(&self) -> f64 {
        self.scalar_ns() + self.get(Counter::LaneNs) as f64
    }
}

/// Everything a recorder measured, read after the traced work joined.
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Totals per function index.
    pub functions: Vec<FunctionTotals>,
}

impl Collected {
    /// Sum of one counter over every function.
    pub fn total(&self, counter: Counter) -> u64 {
        self.functions.iter().map(|f| f.get(counter)).sum()
    }

    /// Estimated scalar-call nanoseconds over every function.
    pub fn scalar_ns(&self) -> f64 {
        self.functions.iter().map(FunctionTotals::scalar_ns).sum()
    }
}

impl Recorder {
    /// A recorder for `functions` wrapped programs, timing against the
    /// session `epoch`.
    pub fn new(epoch: Instant, functions: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            id: NEXT_RECORDER.fetch_add(1, Relaxed),
            epoch,
            functions: functions.max(1),
            threads: Mutex::new(Vec::new()),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds from the session epoch to `at`.
    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn with_acc<R>(&self, f: impl FnOnce(&ThreadAcc) -> R) -> R {
        SLOT.with(|slot| {
            if let Some((id, acc)) = &*slot.borrow() {
                if *id == self.id {
                    return f(acc);
                }
            }
            let acc = {
                let mut threads = self.threads.lock().expect("thread list poisoned");
                let acc = Arc::new(ThreadAcc {
                    tid: threads.len() as u64 + 1,
                    counters: (0..self.functions * COUNTERS)
                        .map(|_| AtomicU64::new(0))
                        .collect(),
                    seen: AtomicU64::new(0),
                    stint_fn: AtomicU64::new(0),
                    stint_start: AtomicU64::new(0),
                    stint_last: AtomicU64::new(0),
                    stints: Mutex::new(Vec::new()),
                });
                threads.push(Arc::clone(&acc));
                acc
            };
            *slot.borrow_mut() = Some((self.id, Arc::clone(&acc)));
            f(&acc)
        })
    }

    /// Runs one scalar call of `function`: counts it, and times it when it
    /// is the thread's sampled call or starts work on another function.
    fn scalar<R>(&self, function: usize, call: impl FnOnce() -> R) -> R {
        self.with_acc(|acc| {
            let seen = acc.seen.load(Relaxed);
            acc.seen.store(seen + 1, Relaxed);
            acc.add(function, Counter::ScalarCalls, 1);
            let switching = acc.stint_fn.load(Relaxed) != function as u64 + 1;
            if seen % SCALAR_SAMPLE != 0 && !switching {
                return call();
            }
            let start = Instant::now();
            let result = call();
            let (start, end) = (self.offset(start), self.offset(Instant::now()));
            acc.add(function, Counter::ScalarTimed, 1);
            acc.add(function, Counter::ScalarTimedNs, end - start);
            acc.touch(function, start, end);
            result
        })
    }

    /// Runs one lane call of `function` evaluating `evals` points, timed.
    fn lanes<R>(&self, function: usize, evals: usize, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        let (start, end) = (self.offset(start), self.offset(Instant::now()));
        self.with_acc(|acc| {
            acc.add(function, Counter::LaneCalls, 1);
            acc.add(function, Counter::LaneEvals, evals as u64);
            acc.add(function, Counter::LaneNs, end - start);
            acc.touch(function, start, end);
        });
        result
    }

    /// Records a coarse span that started at `start` and ends now, on the
    /// calling thread.
    pub fn span(&self, name: impl Into<String>, cat: &'static str, start: Instant) {
        let end = Instant::now();
        let tid = self.with_acc(|acc| acc.tid);
        let start_ns = self.offset(start);
        self.spans.lock().expect("span list poisoned").push(Span {
            name: name.into(),
            cat,
            tid,
            start_ns,
            dur_ns: self.offset(end) - start_ns,
        });
    }

    /// Sums every thread's accumulators and closes the open stints. Call
    /// only after the traced work has joined its threads.
    pub fn collect(&self) -> Collected {
        let threads = self.threads.lock().expect("thread list poisoned");
        let mut collected = Collected {
            functions: vec![FunctionTotals::default(); self.functions],
        };
        for acc in threads.iter() {
            acc.close_stint();
            for (function, totals) in collected.functions.iter_mut().enumerate() {
                for (counter, total) in totals.counters.iter_mut().enumerate() {
                    *total += acc.counters[function * COUNTERS + counter].load(Relaxed);
                }
            }
        }
        collected
    }

    /// Moves this recorder's spans and stints into `session`, naming each
    /// stint after its function and shifting thread ids by `tid_base` so
    /// campaigns do not share timeline rows. Call after [`collect`].
    ///
    /// [`collect`]: Recorder::collect
    pub fn drain_into(&self, session: &Recorder, names: &[String], tid_base: u64) {
        let mut out = session.spans.lock().expect("span list poisoned");
        out.extend(
            self.spans
                .lock()
                .expect("span list poisoned")
                .drain(..)
                .map(|mut span| {
                    span.tid += tid_base;
                    span
                }),
        );
        for acc in self.threads.lock().expect("thread list poisoned").iter() {
            for (function, start, end) in acc.stints.lock().expect("stint list poisoned").drain(..)
            {
                out.push(Span {
                    name: names.get(function).cloned().unwrap_or_default(),
                    cat: "busy",
                    tid: acc.tid + tid_base,
                    start_ns: start,
                    dur_ns: end - start,
                });
            }
        }
    }

    /// The spans recorded so far as Chrome trace-event JSON (complete
    /// `"X"` events, microsecond timestamps), with `metadata` under
    /// `otherData`.
    pub fn chrome_trace(&self, metadata: Vec<(String, JsonValue)>) -> JsonValue {
        let spans = self.spans.lock().expect("span list poisoned");
        let events = spans
            .iter()
            .map(|span| {
                object(vec![
                    ("name", text(span.name.clone())),
                    ("cat", text(span.cat)),
                    ("ph", text("X")),
                    ("pid", num(1.0)),
                    ("tid", num(span.tid as f64)),
                    ("ts", num(span.start_ns as f64 / 1e3)),
                    ("dur", num(span.dur_ns as f64 / 1e3)),
                ])
            })
            .collect();
        object(vec![
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", text("ms")),
            ("otherData", JsonValue::Object(metadata)),
        ])
    }
}

/// A delegating wrapper that times the seams of one program.
pub struct TracedProgram<P> {
    inner: P,
    function: usize,
    /// Whether `backend`/`fingerprint` lower the program (FPIR programs).
    lowers: bool,
    recorder: Arc<Recorder>,
}

impl<P: Program> TracedProgram<P> {
    /// Wraps `inner` as function `function` of `recorder`.
    pub fn new(inner: P, function: usize, lowers: bool, recorder: Arc<Recorder>) -> Self {
        TracedProgram {
            inner,
            function,
            lowers,
            recorder,
        }
    }

    fn lowering<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.lowers {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.recorder.with_acc(|acc| {
            acc.add(self.function, Counter::LowerCalls, 1);
            acc.add(
                self.function,
                Counter::LowerNs,
                start.elapsed().as_nanos() as u64,
            );
        });
        self.recorder.span("lower", "fpir", start);
        result
    }
}

impl<P: Program> Program for TracedProgram<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn num_sites(&self) -> usize {
        self.inner.num_sites()
    }

    fn source_lines(&self) -> usize {
        self.inner.source_lines()
    }

    fn fingerprint(&self) -> u64 {
        self.lowering(|| self.inner.fingerprint())
    }

    fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        if IN_BACKEND.with(Cell::get) {
            return self.inner.execute(input, ctx);
        }
        self.recorder
            .scalar(self.function, || self.inner.execute(input, ctx));
    }

    fn backend(&self, mode: BackendMode) -> Option<Box<dyn ExecBackend>> {
        // Programs without a backend of their own run through the generic
        // interpreter backend; wrapping that one explicitly is what the
        // engine would construct anyway, so results stay identical.
        let inner = self
            .lowering(|| self.inner.backend(mode))
            .unwrap_or_else(|| Box::new(coverme_runtime::InterpBackend::new()));
        Some(Box::new(TracedBackend {
            inner,
            function: self.function,
            recorder: Arc::clone(&self.recorder),
        }))
    }
}

/// The backend a [`TracedProgram`] hands the engine: the program's own
/// backend, with `run` and `run_lanes` timed.
#[derive(Debug)]
struct TracedBackend {
    inner: Box<dyn ExecBackend>,
    function: usize,
    recorder: Arc<Recorder>,
}

/// Marks the current thread as inside a traced backend call until dropped.
struct BackendGuard;

impl BackendGuard {
    fn enter() -> BackendGuard {
        IN_BACKEND.with(|flag| flag.set(true));
        BackendGuard
    }
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        IN_BACKEND.with(|flag| flag.set(false));
    }
}

impl ExecBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    fn simd_isa(&self) -> SimdIsa {
        self.inner.simd_isa()
    }

    fn set_simd(&mut self, isa: SimdIsa) {
        self.inner.set_simd(isa)
    }

    fn min_batch(&self) -> usize {
        self.inner.min_batch()
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        self.inner.set_epsilon(epsilon)
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.inner.retarget(saturated)
    }

    fn run(&mut self, program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        let inner = &mut self.inner;
        self.recorder.scalar(self.function, || {
            let _guard = BackendGuard::enter();
            inner.run(program, input, ctx);
        });
    }

    fn run_lanes(
        &mut self,
        program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        let inner = &mut self.inner;
        self.recorder.lanes(self.function, indices.len(), || {
            let _guard = BackendGuard::enter();
            inner.run_lanes(program, points, indices, out);
        });
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(TracedBackend {
            inner: self.inner.clone_box(),
            function: self.function,
            recorder: Arc::clone(&self.recorder),
        })
    }
}
