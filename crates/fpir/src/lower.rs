//! Lowering instrumented FPIR modules to a flat, register-based
//! instruction tape, plus the tape executors.
//!
//! The tree-walking [`interp`](crate::interp) re-traverses the AST on every
//! evaluation — fine for one run, wasteful for the 100k+ evaluations a
//! search performs per function. This pass compiles the type-checked,
//! instrumented module **once** into a [`Tape`]: straight-line basic blocks
//! of register ops with explicit terminators (jumps, instrumented branch
//! sites, calls, returns, traps). Two executors run the tape:
//!
//! * [`Tape::execute`] — the scalar path, driving any [`ExecCtx`] mode
//!   (observe, representing) exactly like the interpreter;
//! * the lane executor inside [`TapeBackend`] — runs up to
//!   [`LANE_WIDTH`] evaluations with per-lane program counters,
//!   executing each basic block's ops in lockstep across the lanes
//!   currently parked on it, gathering deferred-penalty events from a
//!   shared [`pen_code_table`] and finalizing through the vectorized
//!   [`resolve_pen_lanes_with`] kernels of the backend's SIMD ISA.
//!
//! On top of the lockstep walk, lowering precomputes a **straight-line-SoA
//! plan** ([`SoaPlan`], private) per basic block: blocks whose ops are all
//! double-typed arithmetic/moves/math-calls get their register file
//! transposed into structure-of-arrays columns and executed as vector ops
//! ([`simd::vec_bin`]/[`simd::vec_neg`]) across every lane parked on the
//! block. Blocks that mix integer slots, or chunks where fewer than two
//! lanes are parked together, fall back to the per-lane op walk. The plan
//! is a pure execution detail: it is excluded from [`Tape::serialize`] and
//! the fingerprint, and the SoA kernels are bit-identical to the scalar
//! walk, so corpus keys and artifacts cannot observe it.
//!
//! # Bit-exactness
//!
//! The tape is a *throughput* representation, never a semantic one: values
//! (bit-for-bit), coverage, traces, [`RunOutcome`] classification and step
//! accounting all match the interpreter exactly. Two mechanics make the
//! step accounting work:
//!
//! * **Burn folding.** The interpreter burns one fuel step per statement
//!   and per expression node, checking the budget after each burn. The
//!   tape folds all burns of a basic block into one `cost` checked at the
//!   block header. This is observably equivalent because blocks are
//!   straight-line and contain no observable events (branch reports, pen
//!   updates, traps): within such a segment, "fuel ran out" is detected
//!   before the next observable either way, and nothing else distinguishes
//!   *where* inside the segment the budget tripped. Calls terminate their
//!   block, so the argument-evaluation burns are checked **before** the
//!   callee depth check — preserving the interpreter's Timeout-before-Trap
//!   classification order.
//! * **Short-circuit burns are control flow.** `&&`/`||` burn their right
//!   operand only when it is evaluated; the tape lowers them to branches,
//!   so the right operand's cost sits in a block that is only entered (and
//!   therefore only charged) when the interpreter would evaluate it.
//!
//! Lowering is conservative: anything the (type-checked) module should
//! rule out but this pass cannot mirror statically — unknown variables,
//! register overflow — aborts with a [`LowerError`] and the program simply
//! keeps using the interpreter backend.

use std::collections::HashMap;
use std::sync::Arc;

use coverme_runtime::simd::{self, VecBin};
use coverme_runtime::{
    pen_code, pen_code_table, resolve_pen_lanes_with, BackendMode, BranchSet, Cmp, ExecBackend,
    ExecCtx, LaneEval, Program, RunOutcome, SimdIsa, LANE_WIDTH,
};

use crate::ast::{BinOp, Block as AstBlock, Expr, Module, Stmt, Ty, UnOp};
use crate::instrument::as_comparison;
use crate::interp::{int_compare, IrProgram, MAX_DEPTH};

/// A runtime register value. Mirrors the interpreter's `Value` exactly —
/// same tag dynamics, same conversions — so the executors inherit its
/// semantics by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Int(i64),
    Double(f64),
}

impl Slot {
    fn as_f64(self) -> f64 {
        match self {
            Slot::Int(v) => v as f64,
            Slot::Double(v) => v,
        }
    }

    fn as_i64(self) -> i64 {
        match self {
            Slot::Int(v) => v,
            Slot::Double(v) => {
                if v.is_nan() {
                    0
                } else {
                    v.trunc().clamp(i64::MIN as f64, i64::MAX as f64) as i64
                }
            }
        }
    }

    fn truthy(self) -> bool {
        match self {
            Slot::Int(v) => v != 0,
            Slot::Double(v) => v != 0.0,
        }
    }

    fn coerce(self, ty: Ty) -> Slot {
        match ty {
            Ty::Int => Slot::Int(self.as_i64()),
            Ty::Double => Slot::Double(self.as_f64()),
            Ty::Void => self,
        }
    }
}

/// A builtin callable, resolved at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Builtin {
    Sqrt,
    Fabs,
    Floor,
    Sin,
    Cos,
    Exp,
    Log,
    Pow,
    HighWord,
    LowWord,
    FromWords,
    WithHighWord,
    WithLowWord,
    Scalbn,
}

impl Builtin {
    fn from_name(name: &str) -> Option<(Builtin, usize)> {
        Some(match name {
            "sqrt" => (Builtin::Sqrt, 1),
            "fabs" => (Builtin::Fabs, 1),
            "floor" => (Builtin::Floor, 1),
            "sin" => (Builtin::Sin, 1),
            "cos" => (Builtin::Cos, 1),
            "exp" => (Builtin::Exp, 1),
            "log" => (Builtin::Log, 1),
            "pow" => (Builtin::Pow, 2),
            "high_word" => (Builtin::HighWord, 1),
            "low_word" => (Builtin::LowWord, 1),
            "from_words" => (Builtin::FromWords, 2),
            "with_high_word" => (Builtin::WithHighWord, 2),
            "with_low_word" => (Builtin::WithLowWord, 2),
            "scalbn" => (Builtin::Scalbn, 2),
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Builtin::Sqrt => "sqrt",
            Builtin::Fabs => "fabs",
            Builtin::Floor => "floor",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Exp => "exp",
            Builtin::Log => "log",
            Builtin::Pow => "pow",
            Builtin::HighWord => "high_word",
            Builtin::LowWord => "low_word",
            Builtin::FromWords => "from_words",
            Builtin::WithHighWord => "with_high_word",
            Builtin::WithLowWord => "with_low_word",
            Builtin::Scalbn => "scalbn",
        }
    }

    /// Applies the builtin — formula-for-formula the interpreter's
    /// `eval_builtin`.
    fn eval(self, a: Slot, b: Slot) -> Slot {
        match self {
            Builtin::Sqrt => Slot::Double(a.as_f64().sqrt()),
            Builtin::Fabs => Slot::Double(a.as_f64().abs()),
            Builtin::Floor => Slot::Double(a.as_f64().floor()),
            Builtin::Sin => Slot::Double(a.as_f64().sin()),
            Builtin::Cos => Slot::Double(a.as_f64().cos()),
            Builtin::Exp => Slot::Double(a.as_f64().exp()),
            Builtin::Log => Slot::Double(a.as_f64().ln()),
            Builtin::Pow => Slot::Double(a.as_f64().powf(b.as_f64())),
            Builtin::HighWord => Slot::Int(i64::from((a.as_f64().to_bits() >> 32) as u32 as i32)),
            Builtin::LowWord => Slot::Int(i64::from(a.as_f64().to_bits() as u32)),
            Builtin::FromWords => {
                let hi = (a.as_i64() as u32 as u64) << 32;
                let lo = b.as_i64() as u32 as u64;
                Slot::Double(f64::from_bits(hi | lo))
            }
            Builtin::WithHighWord => {
                let bits = (a.as_f64().to_bits() & 0x0000_0000_ffff_ffff)
                    | ((b.as_i64() as u32 as u64) << 32);
                Slot::Double(f64::from_bits(bits))
            }
            Builtin::WithLowWord => {
                let bits =
                    (a.as_f64().to_bits() & 0xffff_ffff_0000_0000) | (b.as_i64() as u32 as u64);
                Slot::Double(f64::from_bits(bits))
            }
            Builtin::Scalbn => {
                Slot::Double(a.as_f64() * 2f64.powi(b.as_i64().clamp(-2100, 2100) as i32))
            }
        }
    }
}

/// A straight-line register operation.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    ConstInt {
        dst: u16,
        value: i64,
    },
    ConstDouble {
        dst: u16,
        value: f64,
    },
    Move {
        dst: u16,
        src: u16,
    },
    CoerceInt {
        dst: u16,
        src: u16,
    },
    CoerceDouble {
        dst: u16,
        src: u16,
    },
    Truth {
        dst: u16,
        src: u16,
    },
    Unary {
        op: UnOp,
        dst: u16,
        src: u16,
    },
    Binary {
        op: BinOp,
        dst: u16,
        lhs: u16,
        rhs: u16,
    },
    Builtin {
        which: Builtin,
        dst: u16,
        a: u16,
        b: u16,
    },
}

/// How a basic block hands off control.
#[derive(Debug, Clone, PartialEq)]
enum Term {
    /// Unconditional jump.
    Jump(usize),
    /// An instrumented conditional: report through the context (scalar) or
    /// the pen-code table (lanes), then branch on `op(lhs, rhs)`.
    BranchSite {
        site: u32,
        op: Cmp,
        lhs: u16,
        rhs: u16,
        on_true: usize,
        on_false: usize,
    },
    /// An uninstrumented conditional: branch on truthiness.
    BranchTruth {
        cond: u16,
        on_true: usize,
        on_false: usize,
    },
    /// Call a tape function; execution resumes at `ret` with the result
    /// (coerced per the interpreter's void-call rule) in `dst`.
    Call {
        func: u32,
        args: Vec<u16>,
        dst: Option<u16>,
        ret: usize,
    },
    /// Return from the current frame.
    Return { value: Option<u16> },
    /// Abort the run as a trap (statically-unresolvable call target).
    Trap,
}

/// A basic block: a fused fuel burn, straight-line ops, one terminator.
#[derive(Debug, Clone)]
struct TapeBlock {
    /// Fuel steps the interpreter would burn across this block's ops and
    /// the segment of control flow it models; charged (and checked) once
    /// at the block header.
    cost: u32,
    ops: Vec<Op>,
    term: Term,
}

/// A lowered function: parameter signature plus its slice of the block
/// graph (blocks are globally indexed across the whole tape).
#[derive(Debug, Clone)]
struct TapeFunc {
    name: String,
    params: Vec<Ty>,
    num_regs: u32,
    entry_block: usize,
}

/// Why lowering bailed out. A failed lowering is not a program error —
/// the program transparently stays on the interpreter backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A function needs more than `u16::MAX + 1` virtual registers.
    TooManyRegisters {
        /// The function being lowered.
        function: String,
    },
    /// An expression references a variable with no visible declaration
    /// (unreachable for type-checked modules).
    UnknownVariable {
        /// The function being lowered.
        function: String,
        /// The unresolved name.
        name: String,
    },
    /// A declaration form the tape cannot mirror statically (e.g. a
    /// `void`-typed local, which type checking rejects anyway).
    UnsupportedDecl {
        /// The function being lowered.
        function: String,
        /// The declared name.
        name: String,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::TooManyRegisters { function } => {
                write!(f, "function `{function}` exceeds the tape register budget")
            }
            LowerError::UnknownVariable { function, name } => {
                write!(f, "unknown variable `{name}` in function `{function}`")
            }
            LowerError::UnsupportedDecl { function, name } => {
                write!(
                    f,
                    "unsupported declaration `{name}` in function `{function}`"
                )
            }
        }
    }
}

impl std::error::Error for LowerError {}

/// A compiled FPIR program: flat blocks of register ops with explicit
/// control flow, bit-identical in behavior to the tree-walking
/// interpreter.
#[derive(Debug, Clone)]
pub struct Tape {
    name: String,
    arity: usize,
    num_sites: usize,
    fuel: usize,
    entry: usize,
    funcs: Vec<TapeFunc>,
    blocks: Vec<TapeBlock>,
    /// Per-block straight-line-SoA plans (see [`SoaPlan`]) — derived data
    /// computed from `blocks`, deliberately excluded from the listing and
    /// the fingerprint: the plan never changes semantics, so adding or
    /// improving it must not invalidate corpus warm-start keys.
    soa: Vec<Option<SoaPlan>>,
}

/// A call frame of a tape executor.
#[derive(Debug, Clone, Copy)]
struct Frame {
    base: usize,
    ret_block: usize,
    ret_dst: Option<u16>,
}

impl Tape {
    /// Entry function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of `f64` inputs the entry function takes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of instrumented sites.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Step fuel per execution (inherited from the source program).
    pub fn fuel(&self) -> usize {
        self.fuel
    }

    /// Number of lowered functions.
    pub fn num_funcs(&self) -> usize {
        self.funcs.len()
    }

    /// Number of basic blocks across all functions.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of blocks the straight-line-SoA compile step vectorized
    /// (diagnostics; divergent/int-typed blocks stay on the scalar walk).
    pub fn num_soa_blocks(&self) -> usize {
        self.soa.iter().filter(|p| p.is_some()).count()
    }

    /// Serializes the tape to its stable textual listing (the same text
    /// [`Display`](std::fmt::Display) produces) — one block per paragraph,
    /// one op per line, suitable for snapshotting and debugging.
    pub fn serialize(&self) -> String {
        self.to_string()
    }

    /// A stable 64-bit fingerprint of the compiled form: FNV-1a over the
    /// serialized listing plus the fuel allowance. This is what
    /// [`Program::fingerprint`](coverme_runtime::Program::fingerprint)
    /// returns for FPIR programs — any semantic edit to the source changes
    /// the lowered tape and therefore the key, so stale corpus entries
    /// never warm-start a changed function. A cache key, not a
    /// cryptographic digest.
    pub fn fingerprint64(&self) -> u64 {
        let mut hash = coverme_runtime::fingerprint_seed();
        hash = coverme_runtime::fingerprint_bytes(hash, self.serialize().as_bytes());
        coverme_runtime::fingerprint_bytes(hash, &(self.fuel as u64).to_le_bytes())
    }

    /// Executes the tape on `input` against `ctx` — the scalar path.
    /// Observably identical to interpreting the source program: branch
    /// reports, coverage, trace, outcome classification and fuel behavior
    /// all match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from [`Tape::arity`].
    pub fn execute(&self, input: &[f64], ctx: &mut ExecCtx) {
        assert_eq!(
            input.len(),
            self.arity,
            "tape {} expects {} inputs, got {}",
            self.name,
            self.arity,
            input.len()
        );
        let entry = &self.funcs[self.entry];
        let mut regs: Vec<Slot> = vec![Slot::Double(0.0); entry.num_regs as usize];
        for (reg, &v) in regs.iter_mut().zip(input) {
            *reg = Slot::Double(v);
        }
        let mut frames = vec![Frame {
            base: 0,
            ret_block: usize::MAX,
            ret_dst: None,
        }];
        let mut base = 0usize;
        let mut pc = entry.entry_block;
        let mut steps = 0usize;
        loop {
            let block = &self.blocks[pc];
            steps += block.cost as usize;
            if steps > self.fuel {
                ctx.mark_timeout();
                return;
            }
            for op in &block.ops {
                exec_op(op, base, &mut regs);
            }
            match block.term {
                Term::Jump(target) => pc = target,
                Term::BranchTruth {
                    cond,
                    on_true,
                    on_false,
                } => {
                    pc = if regs[base + cond as usize].truthy() {
                        on_true
                    } else {
                        on_false
                    };
                }
                Term::BranchSite {
                    site,
                    op,
                    lhs,
                    rhs,
                    on_true,
                    on_false,
                } => {
                    let a = regs[base + lhs as usize].as_f64();
                    let b = regs[base + rhs as usize].as_f64();
                    pc = if ctx.branch(site, op, a, b) {
                        on_true
                    } else {
                        on_false
                    };
                }
                Term::Call {
                    func,
                    ref args,
                    dst,
                    ret,
                } => {
                    if frames.len() > MAX_DEPTH {
                        ctx.mark_trap();
                        return;
                    }
                    let callee = &self.funcs[func as usize];
                    let new_base = regs.len();
                    regs.resize(new_base + callee.num_regs as usize, Slot::Double(0.0));
                    for (index, (&arg, &ty)) in args.iter().zip(&callee.params).enumerate() {
                        let value = regs[base + arg as usize].coerce(ty);
                        regs[new_base + index] = value;
                    }
                    frames.push(Frame {
                        base: new_base,
                        ret_block: ret,
                        ret_dst: dst,
                    });
                    base = new_base;
                    pc = callee.entry_block;
                }
                Term::Return { value } => {
                    let result = match value {
                        Some(reg) => regs[base + reg as usize],
                        None => Slot::Double(0.0),
                    };
                    let frame = frames.pop().expect("at least the entry frame");
                    regs.truncate(frame.base);
                    match frames.last() {
                        Some(caller) => {
                            base = caller.base;
                            if let Some(dst) = frame.ret_dst {
                                regs[base + dst as usize] = result;
                            }
                            pc = frame.ret_block;
                        }
                        None => return,
                    }
                }
                Term::Trap => {
                    ctx.mark_trap();
                    return;
                }
            }
        }
    }
}

impl std::fmt::Display for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "tape {} arity={} sites={} fuel={} funcs={} blocks={}",
            self.name,
            self.arity,
            self.num_sites,
            self.fuel,
            self.funcs.len(),
            self.blocks.len()
        )?;
        for (index, func) in self.funcs.iter().enumerate() {
            let params: Vec<String> = func.params.iter().map(|t| t.to_string()).collect();
            writeln!(
                f,
                "fn{index} {}({}) regs={} entry=b{}",
                func.name,
                params.join(","),
                func.num_regs,
                func.entry_block
            )?;
        }
        for (index, block) in self.blocks.iter().enumerate() {
            writeln!(f, "b{index}: cost={}", block.cost)?;
            for op in &block.ops {
                writeln!(f, "  {}", format_op(op))?;
            }
            writeln!(f, "  {}", format_term(&block.term))?;
        }
        Ok(())
    }
}

fn cmp_str(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "eq",
        Cmp::Ne => "ne",
        Cmp::Lt => "lt",
        Cmp::Le => "le",
        Cmp::Gt => "gt",
        Cmp::Ge => "ge",
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::BitAnd => "and",
        BinOp::BitOr => "or",
        BinOp::BitXor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Cmp(cmp) => cmp_str(cmp),
        BinOp::LogicalAnd => "land",
        BinOp::LogicalOr => "lor",
    }
}

fn format_op(op: &Op) -> String {
    match *op {
        Op::ConstInt { dst, value } => format!("r{dst} = const.i {value}"),
        Op::ConstDouble { dst, value } => format!("r{dst} = const.f {value:?}"),
        Op::Move { dst, src } => format!("r{dst} = r{src}"),
        Op::CoerceInt { dst, src } => format!("r{dst} = int r{src}"),
        Op::CoerceDouble { dst, src } => format!("r{dst} = double r{src}"),
        Op::Truth { dst, src } => format!("r{dst} = truth r{src}"),
        Op::Unary { op, dst, src } => {
            let name = match op {
                UnOp::Neg => "neg",
                UnOp::BitNot => "bnot",
                UnOp::Not => "not",
            };
            format!("r{dst} = {name} r{src}")
        }
        Op::Binary { op, dst, lhs, rhs } => {
            format!("r{dst} = {} r{lhs}, r{rhs}", bin_str(op))
        }
        Op::Builtin { which, dst, a, b } => {
            format!("r{dst} = {} r{a}, r{b}", which.name())
        }
    }
}

fn format_term(term: &Term) -> String {
    match term {
        Term::Jump(target) => format!("jump b{target}"),
        Term::BranchSite {
            site,
            op,
            lhs,
            rhs,
            on_true,
            on_false,
        } => format!(
            "branch.site s{site} {} r{lhs}, r{rhs} ? b{on_true} : b{on_false}",
            cmp_str(*op)
        ),
        Term::BranchTruth {
            cond,
            on_true,
            on_false,
        } => format!("branch.truth r{cond} ? b{on_true} : b{on_false}"),
        Term::Call {
            func,
            args,
            dst,
            ret,
        } => {
            let args: Vec<String> = args.iter().map(|r| format!("r{r}")).collect();
            let dst = match dst {
                Some(d) => format!("r{d}"),
                None => "_".to_string(),
            };
            format!("{dst} = call fn{func}({}) ret b{ret}", args.join(", "))
        }
        Term::Return { value: Some(reg) } => format!("ret r{reg}"),
        Term::Return { value: None } => "ret".to_string(),
        Term::Trap => "trap".to_string(),
    }
}

/// Applies one straight-line op on the register window at `base`.
#[inline]
fn exec_op(op: &Op, base: usize, regs: &mut [Slot]) {
    match *op {
        Op::ConstInt { dst, value } => regs[base + dst as usize] = Slot::Int(value),
        Op::ConstDouble { dst, value } => regs[base + dst as usize] = Slot::Double(value),
        Op::Move { dst, src } => {
            let v = regs[base + src as usize];
            regs[base + dst as usize] = v;
        }
        Op::CoerceInt { dst, src } => {
            let v = regs[base + src as usize].as_i64();
            regs[base + dst as usize] = Slot::Int(v);
        }
        Op::CoerceDouble { dst, src } => {
            let v = regs[base + src as usize].as_f64();
            regs[base + dst as usize] = Slot::Double(v);
        }
        Op::Truth { dst, src } => {
            let v = regs[base + src as usize].truthy();
            regs[base + dst as usize] = Slot::Int(i64::from(v));
        }
        Op::Unary { op, dst, src } => {
            let v = regs[base + src as usize];
            regs[base + dst as usize] = match op {
                UnOp::Neg => match v {
                    Slot::Int(i) => Slot::Int(i.wrapping_neg()),
                    Slot::Double(d) => Slot::Double(-d),
                },
                UnOp::BitNot => Slot::Int(!v.as_i64()),
                UnOp::Not => Slot::Int(i64::from(!v.truthy())),
            };
        }
        Op::Binary { op, dst, lhs, rhs } => {
            let l = regs[base + lhs as usize];
            let r = regs[base + rhs as usize];
            regs[base + dst as usize] = eval_binary(op, l, r);
        }
        Op::Builtin { which, dst, a, b } => {
            let a = regs[base + a as usize];
            let b = regs[base + b as usize];
            regs[base + dst as usize] = which.eval(a, b);
        }
    }
}

/// Non-short-circuit binary evaluation — arm-for-arm the interpreter's
/// `eval_binary` tail.
fn eval_binary(op: BinOp, l: Slot, r: Slot) -> Slot {
    let both_int = matches!((l, r), (Slot::Int(_), Slot::Int(_)));
    match op {
        BinOp::Add => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_add(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() + r.as_f64())
            }
        }
        BinOp::Sub => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_sub(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() - r.as_f64())
            }
        }
        BinOp::Mul => {
            if both_int {
                Slot::Int(l.as_i64().wrapping_mul(r.as_i64()))
            } else {
                Slot::Double(l.as_f64() * r.as_f64())
            }
        }
        BinOp::Div => {
            if both_int {
                let divisor = r.as_i64();
                if divisor == 0 {
                    Slot::Int(0)
                } else {
                    Slot::Int(l.as_i64().wrapping_div(divisor))
                }
            } else {
                Slot::Double(l.as_f64() / r.as_f64())
            }
        }
        BinOp::Rem => {
            let divisor = r.as_i64();
            if divisor == 0 {
                Slot::Int(0)
            } else {
                Slot::Int(l.as_i64().wrapping_rem(divisor))
            }
        }
        BinOp::BitAnd => Slot::Int(l.as_i64() & r.as_i64()),
        BinOp::BitOr => Slot::Int(l.as_i64() | r.as_i64()),
        BinOp::BitXor => Slot::Int(l.as_i64() ^ r.as_i64()),
        BinOp::Shl => Slot::Int(l.as_i64().wrapping_shl(r.as_i64() as u32 & 63)),
        BinOp::Shr => Slot::Int(l.as_i64().wrapping_shr(r.as_i64() as u32 & 63)),
        BinOp::Cmp(cmp) => {
            let holds = if both_int {
                int_compare(cmp, l.as_i64(), r.as_i64())
            } else {
                cmp.eval(l.as_f64(), r.as_f64())
            };
            Slot::Int(i64::from(holds))
        }
        BinOp::LogicalAnd | BinOp::LogicalOr => {
            unreachable!("short-circuit operators are lowered to control flow")
        }
    }
}

/// One vector operation of a block's straight-line-SoA plan, over SoA
/// virtual registers (columns of the lane scratch buffer). Each op writes
/// a *fresh* vreg strictly greater than every vreg it reads — the SSA-ish
/// discipline that lets the executor split the flat scratch buffer at the
/// destination column.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SoaOp {
    /// Broadcast a constant into every lane.
    Splat { dst: u16, value: f64 },
    /// Lane-wise copy (`Move`/`CoerceDouble` of an already-double value).
    Copy { dst: u16, src: u16 },
    /// Lane-wise IEEE negate.
    Neg { dst: u16, src: u16 },
    /// Lane-wise IEEE arithmetic through the [`simd`] kernels.
    Bin {
        op: VecBin,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// A one-argument `double -> double` builtin, applied per lane (libm
    /// calls do not vectorize; the win is the fused gather around them).
    Call1 { which: Builtin, dst: u16, src: u16 },
    /// `pow`, the only two-argument `double -> double` builtin.
    Call2 { dst: u16, a: u16, b: u16 },
}

/// The straight-line-SoA compile step's per-block artifact: a block whose
/// ops form a pure `double -> double` dataflow (const/move/neg/arith/math
/// builtins — no int-producing op anywhere) gets its op list re-emitted as
/// vector ops over lane columns. At runtime, when two or more live lanes
/// are parked on the block, their registers are gathered into SoA buffers,
/// the vector ops run once for all lanes, and the results scatter back —
/// replacing the op-outer/lane-inner scalar walk and its per-op `Slot` tag
/// dispatch.
///
/// Bit-exactness: every vector op computes exactly the `eval_binary`/
/// `exec_op` double-path formula (IEEE basic ops are correctly rounded;
/// builtins reuse the identical scalar math), and the plan only runs when
/// the runtime gather proves every live-in register holds a `Slot::Double`
/// in every active lane — any `Int` falls the whole block back to the
/// scalar walk. Fuel stays charged at the block header and terminators are
/// untouched, so Timeout-before-Trap classification order is preserved.
#[derive(Debug, Clone)]
struct SoaPlan {
    /// Tape registers read before written, with their gather columns. All
    /// must hold `Slot::Double` at block entry for the plan to run.
    live_in: Vec<(u16, u16)>,
    /// Tape registers the block writes, with the column holding each
    /// register's final value (scattered back as `Slot::Double`).
    writes: Vec<(u16, u16)>,
    ops: Vec<SoaOp>,
    num_vregs: u16,
}

/// Ceiling on a plan's virtual registers, bounding the scratch buffer.
const MAX_SOA_VREGS: usize = 256;

/// Vreg allocation state of [`plan_block`].
struct SoaPlanner {
    /// Current column of each tape register touched so far.
    vreg_of: HashMap<u16, u16>,
    live_in: Vec<(u16, u16)>,
    /// Tape registers written at least once, in first-write order.
    wrote: Vec<u16>,
    ops: Vec<SoaOp>,
    next: u16,
}

impl SoaPlanner {
    fn alloc(&mut self) -> Option<u16> {
        if self.next as usize >= MAX_SOA_VREGS {
            return None;
        }
        let vreg = self.next;
        self.next += 1;
        Some(vreg)
    }

    /// Column holding `reg`'s current value; first read of a block-foreign
    /// register records it as a live-in gather.
    fn read(&mut self, reg: u16) -> Option<u16> {
        if let Some(&vreg) = self.vreg_of.get(&reg) {
            return Some(vreg);
        }
        let vreg = self.alloc()?;
        self.vreg_of.insert(reg, vreg);
        self.live_in.push((reg, vreg));
        Some(vreg)
    }

    /// Fresh column for a write to `reg`.
    fn write(&mut self, reg: u16) -> Option<u16> {
        let vreg = self.alloc()?;
        self.vreg_of.insert(reg, vreg);
        if !self.wrote.contains(&reg) {
            self.wrote.push(reg);
        }
        Some(vreg)
    }
}

/// Attempts to compile one block's op list into a [`SoaPlan`]. Returns
/// `None` — block stays on the scalar walk — when any op can produce an
/// `Int` (consts, coercions, truthiness, comparisons, bit ops, `%`, the
/// word-surgery builtins, `scalbn`'s int exponent), or when the block is
/// too short for the gather/scatter to amortize.
fn plan_block(block: &TapeBlock) -> Option<SoaPlan> {
    // A single op cannot pay for its own gather + scatter.
    if block.ops.len() < 2 {
        return None;
    }
    let mut p = SoaPlanner {
        vreg_of: HashMap::new(),
        live_in: Vec::new(),
        wrote: Vec::new(),
        ops: Vec::new(),
        next: 0,
    };
    for op in &block.ops {
        match *op {
            Op::ConstDouble { dst, value } => {
                let dst = p.write(dst)?;
                p.ops.push(SoaOp::Splat { dst, value });
            }
            // A move of a double is a copy; `double r` of a double is the
            // identity (`as_f64` of `Slot::Double` returns the payload).
            // The gather validation guarantees the double-ness.
            Op::Move { dst, src } | Op::CoerceDouble { dst, src } => {
                let src = p.read(src)?;
                let dst = p.write(dst)?;
                p.ops.push(SoaOp::Copy { dst, src });
            }
            Op::Unary {
                op: UnOp::Neg,
                dst,
                src,
            } => {
                let src = p.read(src)?;
                let dst = p.write(dst)?;
                p.ops.push(SoaOp::Neg { dst, src });
            }
            Op::Binary { op, dst, lhs, rhs } => {
                let op = match op {
                    BinOp::Add => VecBin::Add,
                    BinOp::Sub => VecBin::Sub,
                    BinOp::Mul => VecBin::Mul,
                    BinOp::Div => VecBin::Div,
                    // Rem, comparisons, bit ops, shifts produce Ints.
                    _ => return None,
                };
                let a = p.read(lhs)?;
                let b = p.read(rhs)?;
                let dst = p.write(dst)?;
                p.ops.push(SoaOp::Bin { op, dst, a, b });
            }
            Op::Builtin { which, dst, a, b } => match which {
                Builtin::Sqrt
                | Builtin::Fabs
                | Builtin::Floor
                | Builtin::Sin
                | Builtin::Cos
                | Builtin::Exp
                | Builtin::Log => {
                    let src = p.read(a)?;
                    let dst = p.write(dst)?;
                    p.ops.push(SoaOp::Call1 { which, dst, src });
                }
                Builtin::Pow => {
                    let a = p.read(a)?;
                    let b = p.read(b)?;
                    let dst = p.write(dst)?;
                    p.ops.push(SoaOp::Call2 { dst, a, b });
                }
                // Word surgery consumes/produces Ints; scalbn's exponent
                // goes through `as_i64`.
                _ => return None,
            },
            // ConstInt / CoerceInt / Truth / BitNot / Not produce Ints.
            _ => return None,
        }
    }
    let writes: Vec<(u16, u16)> = p.wrote.iter().map(|&reg| (reg, p.vreg_of[&reg])).collect();
    Some(SoaPlan {
        live_in: p.live_in,
        writes,
        ops: p.ops,
        num_vregs: p.next,
    })
}

/// Column offset of a vreg in the flat SoA scratch buffer.
#[inline(always)]
fn soa_col(vreg: u16) -> usize {
    vreg as usize * LANE_WIDTH
}

/// Reusable flat lane buffer for [`SoaPlan`] execution: `num_vregs`
/// columns of [`LANE_WIDTH`] doubles.
#[derive(Debug, Clone, Default)]
struct SoaScratch {
    buf: Vec<f64>,
}

impl SoaScratch {
    fn ensure(&mut self, num_vregs: u16) {
        let need = num_vregs as usize * LANE_WIDTH;
        if self.buf.len() < need {
            self.buf.resize(need, 0.0);
        }
    }

    /// Runs the plan's vector ops over the first `lanes` slots of each
    /// column. Every op's destination column sits strictly above its
    /// sources, so splitting the buffer at the destination is safe.
    fn run(&mut self, plan: &SoaPlan, isa: SimdIsa, lanes: usize) {
        for op in &plan.ops {
            match *op {
                SoaOp::Splat { dst, value } => {
                    let d = soa_col(dst);
                    self.buf[d..d + lanes].fill(value);
                }
                SoaOp::Copy { dst, src } => {
                    let (d, s) = (soa_col(dst), soa_col(src));
                    let (head, tail) = self.buf.split_at_mut(d);
                    tail[..lanes].copy_from_slice(&head[s..s + lanes]);
                }
                SoaOp::Neg { dst, src } => {
                    let (d, s) = (soa_col(dst), soa_col(src));
                    let (head, tail) = self.buf.split_at_mut(d);
                    simd::vec_neg(isa, &head[s..s + lanes], &mut tail[..lanes]);
                }
                SoaOp::Bin { op, dst, a, b } => {
                    let (d, ca, cb) = (soa_col(dst), soa_col(a), soa_col(b));
                    let (head, tail) = self.buf.split_at_mut(d);
                    simd::vec_bin(
                        isa,
                        op,
                        &head[ca..ca + lanes],
                        &head[cb..cb + lanes],
                        &mut tail[..lanes],
                    );
                }
                SoaOp::Call1 { which, dst, src } => {
                    let (d, s) = (soa_col(dst), soa_col(src));
                    let (head, tail) = self.buf.split_at_mut(d);
                    let src = &head[s..s + lanes];
                    let out = &mut tail[..lanes];
                    // Formula-for-formula `Builtin::eval`'s double paths.
                    for k in 0..lanes {
                        out[k] = match which {
                            Builtin::Sqrt => src[k].sqrt(),
                            Builtin::Fabs => src[k].abs(),
                            Builtin::Floor => src[k].floor(),
                            Builtin::Sin => src[k].sin(),
                            Builtin::Cos => src[k].cos(),
                            Builtin::Exp => src[k].exp(),
                            Builtin::Log => src[k].ln(),
                            _ => unreachable!("planner admits double->double builtins only"),
                        };
                    }
                }
                SoaOp::Call2 { dst, a, b } => {
                    let (d, ca, cb) = (soa_col(dst), soa_col(a), soa_col(b));
                    let (head, tail) = self.buf.split_at_mut(d);
                    let (a, b) = (&head[ca..ca + lanes], &head[cb..cb + lanes]);
                    let out = &mut tail[..lanes];
                    for k in 0..lanes {
                        out[k] = a[k].powf(b[k]);
                    }
                }
            }
        }
    }
}

/// Lowers an instrumented program to its instruction tape.
///
/// # Errors
///
/// Returns a [`LowerError`] when the module uses something the tape cannot
/// mirror statically (see the variant docs); callers should treat that as
/// "stay on the interpreter", not as a failure.
pub fn lower(program: &IrProgram) -> Result<Tape, LowerError> {
    let inst = program.instrumented();
    let module = &inst.module;
    let mut func_ids: HashMap<&str, u32> = HashMap::new();
    for (index, func) in module.functions.iter().enumerate() {
        // Keep the first occurrence: `Module::function` resolves by first
        // match, so duplicate names (rejected upstream anyway) must not
        // rebind to a later definition.
        func_ids.entry(func.name.as_str()).or_insert(index as u32);
    }
    let mut blocks = Vec::new();
    let mut funcs = Vec::with_capacity(module.functions.len());
    for func in &module.functions {
        let lowered = FuncLowerer::lower_function(module, &func_ids, func, &mut blocks)?;
        funcs.push(lowered);
    }
    let entry = func_ids[inst.entry.as_str()] as usize;
    // The straight-line-SoA compile step: derived per-block vector plans.
    // Computed last so it sees the final block graph; never serialized, so
    // the listing and fingerprint (corpus keys!) are unaffected.
    let soa: Vec<Option<SoaPlan>> = blocks.iter().map(plan_block).collect();
    Ok(Tape {
        name: inst.entry.clone(),
        arity: program.arity(),
        num_sites: inst.num_sites(),
        fuel: program.fuel(),
        entry,
        funcs,
        blocks,
        soa,
    })
}

/// Per-function lowering state.
struct FuncLowerer<'m, 'b> {
    func_name: &'m str,
    func_ids: &'b HashMap<&'m str, u32>,
    blocks: &'b mut Vec<TapeBlock>,
    /// Flat lexically-scoped symbol stack: name, register, declared type.
    symbols: Vec<(&'m str, u16, Ty)>,
    scopes: Vec<usize>,
    next_reg: u32,
    current: usize,
}

impl<'m, 'b> FuncLowerer<'m, 'b> {
    fn lower_function(
        _module: &'m Module,
        func_ids: &'b HashMap<&'m str, u32>,
        func: &'m crate::ast::FunctionDef,
        blocks: &'b mut Vec<TapeBlock>,
    ) -> Result<TapeFunc, LowerError> {
        let entry_block = blocks.len();
        blocks.push(TapeBlock {
            cost: 0,
            ops: Vec::new(),
            term: Term::Return { value: None },
        });
        let mut lowerer = FuncLowerer {
            func_name: &func.name,
            func_ids,
            blocks,
            symbols: Vec::new(),
            scopes: Vec::new(),
            next_reg: 0,
            current: entry_block,
        };
        for param in &func.params {
            let reg = lowerer.alloc_reg()?;
            lowerer.symbols.push((&param.name, reg, param.ty));
        }
        lowerer.lower_ast_block(&func.body)?;
        // Falling off the end of a function returns "no value" (the caller
        // substitutes 0.0), exactly like the interpreter's `Flow::Normal`.
        lowerer.terminate(Term::Return { value: None });
        Ok(TapeFunc {
            name: func.name.clone(),
            params: func.params.iter().map(|p| p.ty).collect(),
            num_regs: lowerer.next_reg,
            entry_block,
        })
    }

    fn alloc_reg(&mut self) -> Result<u16, LowerError> {
        if self.next_reg > u16::MAX as u32 {
            return Err(LowerError::TooManyRegisters {
                function: self.func_name.to_string(),
            });
        }
        let reg = self.next_reg as u16;
        self.next_reg += 1;
        Ok(reg)
    }

    fn new_block(&mut self) -> usize {
        let id = self.blocks.len();
        self.blocks.push(TapeBlock {
            cost: 0,
            ops: Vec::new(),
            // Placeholder; overwritten by `terminate`. An unterminated
            // unreachable block (after a `return`) keeps this harmless
            // no-value return.
            term: Term::Return { value: None },
        });
        id
    }

    fn emit(&mut self, op: Op) {
        self.blocks[self.current].ops.push(op);
    }

    /// Adds interpreter fuel burns to the current block's header charge.
    fn add_cost(&mut self, steps: u32) {
        self.blocks[self.current].cost += steps;
    }

    fn terminate(&mut self, term: Term) {
        self.blocks[self.current].term = term;
    }

    fn lookup(&self, name: &str) -> Option<(u16, Ty)> {
        self.symbols
            .iter()
            .rev()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, reg, ty)| (reg, ty))
    }

    fn emit_coerce(&mut self, ty: Ty, dst: u16, src: u16) {
        match ty {
            Ty::Int => self.emit(Op::CoerceInt { dst, src }),
            Ty::Double => self.emit(Op::CoerceDouble { dst, src }),
            Ty::Void => self.emit(Op::Move { dst, src }),
        }
    }

    fn lower_ast_block(&mut self, block: &'m AstBlock) -> Result<(), LowerError> {
        self.scopes.push(self.symbols.len());
        for stmt in &block.stmts {
            self.lower_stmt(stmt)?;
        }
        let start = self.scopes.pop().expect("scope underflow");
        self.symbols.truncate(start);
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &'m Stmt) -> Result<(), LowerError> {
        // `exec_stmt` burns one step on entry, before dispatch.
        self.add_cost(1);
        match stmt {
            Stmt::Decl { ty, name, init, .. } => {
                let slot_ty = match ty {
                    Ty::Int => Ty::Int,
                    Ty::Double => Ty::Double,
                    Ty::Void => {
                        return Err(LowerError::UnsupportedDecl {
                            function: self.func_name.to_string(),
                            name: name.clone(),
                        })
                    }
                };
                let dst = self.alloc_reg()?;
                match init {
                    Some(init) => {
                        let value = self.lower_expr(init)?;
                        self.emit_coerce(slot_ty, dst, value);
                    }
                    None => {
                        // No initializer: no eval burn, zero of the
                        // declared representation.
                        match slot_ty {
                            Ty::Int => self.emit(Op::ConstInt { dst, value: 0 }),
                            _ => self.emit(Op::ConstDouble { dst, value: 0.0 }),
                        }
                    }
                }
                self.symbols.push((name, dst, slot_ty));
                Ok(())
            }
            Stmt::Assign { name, value, .. } => {
                let v = self.lower_expr(value)?;
                let Some((reg, ty)) = self.lookup(name) else {
                    return Err(LowerError::UnknownVariable {
                        function: self.func_name.to_string(),
                        name: name.clone(),
                    });
                };
                // The interpreter coerces to the slot's current tag, which
                // (invariantly, post-typecheck) is the declared type.
                self.emit_coerce(ty, reg, v);
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                site,
                ..
            } => {
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join = self.new_block();
                self.lower_condition(cond, *site, then_bb, else_bb)?;
                self.current = then_bb;
                self.lower_ast_block(then_block)?;
                self.terminate(Term::Jump(join));
                self.current = else_bb;
                if let Some(else_block) = else_block {
                    self.lower_ast_block(else_block)?;
                }
                self.terminate(Term::Jump(join));
                self.current = join;
                Ok(())
            }
            Stmt::While {
                cond, body, site, ..
            } => {
                let head = self.new_block();
                let body_bb = self.new_block();
                let exit = self.new_block();
                self.terminate(Term::Jump(head));
                self.current = head;
                self.lower_condition(cond, *site, body_bb, exit)?;
                self.current = body_bb;
                self.lower_ast_block(body)?;
                // The interpreter burns one latch step after each completed
                // body iteration, before re-evaluating the condition. The
                // stretch from here to the head's branch is observable-free,
                // so folding the burn into the back-edge block's header is
                // exact.
                self.add_cost(1);
                self.terminate(Term::Jump(head));
                self.current = exit;
                Ok(())
            }
            Stmt::Return { value, .. } => {
                let reg = match value {
                    Some(expr) => Some(self.lower_expr(expr)?),
                    None => None,
                };
                self.terminate(Term::Return { value: reg });
                // Anything lowered after a return lands in an unreachable
                // continuation block.
                self.current = self.new_block();
                Ok(())
            }
            Stmt::ExprStmt { expr, .. } => {
                self.lower_expr(expr)?;
                Ok(())
            }
        }
    }

    /// Lowers a conditional's condition into the current block(s) and
    /// terminates with the branch. Mirrors `eval_condition`: instrumented
    /// comparisons burn only their operand subtrees and report through the
    /// site; everything else evaluates the full expression and branches on
    /// truthiness.
    fn lower_condition(
        &mut self,
        cond: &'m Expr,
        site: Option<u32>,
        on_true: usize,
        on_false: usize,
    ) -> Result<(), LowerError> {
        if let (Some(site), Some((op, lhs, rhs))) = (site, as_comparison(cond)) {
            let lhs = self.lower_expr(lhs)?;
            let rhs = self.lower_expr(rhs)?;
            self.terminate(Term::BranchSite {
                site,
                op,
                lhs,
                rhs,
                on_true,
                on_false,
            });
        } else {
            let cond = self.lower_expr(cond)?;
            self.terminate(Term::BranchTruth {
                cond,
                on_true,
                on_false,
            });
        }
        Ok(())
    }

    /// Lowers an expression, returning the register holding its value.
    /// Charges the interpreter's one-burn-per-node pre-order accounting as
    /// it goes.
    fn lower_expr(&mut self, expr: &'m Expr) -> Result<u16, LowerError> {
        self.add_cost(1);
        match expr {
            Expr::Int(value) => {
                let dst = self.alloc_reg()?;
                self.emit(Op::ConstInt { dst, value: *value });
                Ok(dst)
            }
            Expr::Float(value) => {
                let dst = self.alloc_reg()?;
                self.emit(Op::ConstDouble { dst, value: *value });
                Ok(dst)
            }
            Expr::Var(name) => match self.lookup(name) {
                // Reading a variable is just its register: the language has
                // no assignment expressions, so nothing can clobber the
                // register between this read and the consuming op.
                Some((reg, _)) => Ok(reg),
                None => Err(LowerError::UnknownVariable {
                    function: self.func_name.to_string(),
                    name: name.clone(),
                }),
            },
            Expr::Unary { op, expr } => {
                let src = self.lower_expr(expr)?;
                let dst = self.alloc_reg()?;
                self.emit(Op::Unary { op: *op, dst, src });
                Ok(dst)
            }
            Expr::Cast { ty, expr } => {
                let src = self.lower_expr(expr)?;
                let dst = self.alloc_reg()?;
                self.emit_coerce(*ty, dst, src);
                Ok(dst)
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::LogicalAnd => self.lower_logical(lhs, rhs, true),
                BinOp::LogicalOr => self.lower_logical(lhs, rhs, false),
                _ => {
                    let l = self.lower_expr(lhs)?;
                    let r = self.lower_expr(rhs)?;
                    let dst = self.alloc_reg()?;
                    self.emit(Op::Binary {
                        op: *op,
                        dst,
                        lhs: l,
                        rhs: r,
                    });
                    Ok(dst)
                }
            },
            Expr::Call { name, args } => self.lower_call(name, args),
        }
    }

    /// Lowers `&&` / `||` to control flow so the right operand's burns (and
    /// effects) happen exactly when the interpreter would evaluate it.
    fn lower_logical(
        &mut self,
        lhs: &'m Expr,
        rhs: &'m Expr,
        is_and: bool,
    ) -> Result<u16, LowerError> {
        let l = self.lower_expr(lhs)?;
        let dst = self.alloc_reg()?;
        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let join = self.new_block();
        let (on_true, on_false) = if is_and {
            (rhs_bb, short_bb)
        } else {
            (short_bb, rhs_bb)
        };
        self.terminate(Term::BranchTruth {
            cond: l,
            on_true,
            on_false,
        });
        self.current = rhs_bb;
        let r = self.lower_expr(rhs)?;
        self.emit(Op::Truth { dst, src: r });
        self.terminate(Term::Jump(join));
        self.current = short_bb;
        self.emit(Op::ConstInt {
            dst,
            value: i64::from(!is_and),
        });
        self.terminate(Term::Jump(join));
        self.current = join;
        Ok(dst)
    }

    fn lower_call(&mut self, name: &'m str, args: &'m [Expr]) -> Result<u16, LowerError> {
        let mut arg_regs = Vec::with_capacity(args.len());
        for arg in args {
            arg_regs.push(self.lower_expr(arg)?);
        }
        // Builtins shadow user functions, exactly like the interpreter's
        // `eval_builtin`-first dispatch.
        if let Some((which, builtin_arity)) = Builtin::from_name(name) {
            if args.len() >= builtin_arity {
                let dst = self.alloc_reg()?;
                let a = arg_regs[0];
                let b = if builtin_arity > 1 { arg_regs[1] } else { a };
                self.emit(Op::Builtin { which, dst, a, b });
                return Ok(dst);
            }
            // Under-applied builtin: the interpreter would panic indexing
            // the argument slice; type checking rejects this, so refuse to
            // lower rather than invent a behavior.
            return Err(LowerError::UnknownVariable {
                function: self.func_name.to_string(),
                name: name.to_string(),
            });
        }
        let dst = self.alloc_reg()?;
        match self.func_ids.get(name) {
            Some(&func) => {
                let ret = self.new_block();
                self.terminate(Term::Call {
                    func,
                    args: arg_regs,
                    dst: Some(dst),
                    ret,
                });
                self.current = ret;
            }
            None => {
                // Unknown call target: arguments evaluate (and burn), then
                // the run traps — the interpreter's exact order.
                self.terminate(Term::Trap);
                self.current = self.new_block();
            }
        }
        Ok(dst)
    }
}

/// One lane of the batched tape executor: an independent virtual machine
/// with its own program counter, frames and registers, plus the lane's
/// pending deferred-penalty event.
#[derive(Debug, Clone)]
struct LaneVm {
    pc: usize,
    base: usize,
    steps: usize,
    alive: bool,
    outcome: RunOutcome,
    regs: Vec<Slot>,
    frames: Vec<Frame>,
    pend_code: u8,
    pend_op: Cmp,
    pend_lhs: f64,
    pend_rhs: f64,
}

impl LaneVm {
    fn new() -> LaneVm {
        LaneVm {
            pc: 0,
            base: 0,
            steps: 0,
            alive: false,
            outcome: RunOutcome::Done,
            regs: Vec::new(),
            frames: Vec::new(),
            pend_code: pen_code::IDLE,
            pend_op: Cmp::Eq,
            pend_lhs: 0.0,
            pend_rhs: 0.0,
        }
    }

    fn reset(&mut self, tape: &Tape, input: &[f64]) {
        let entry = &tape.funcs[tape.entry];
        self.regs.clear();
        self.regs.resize(entry.num_regs as usize, Slot::Double(0.0));
        for (reg, &v) in self.regs.iter_mut().zip(input) {
            *reg = Slot::Double(v);
        }
        self.frames.clear();
        self.frames.push(Frame {
            base: 0,
            ret_block: usize::MAX,
            ret_dst: None,
        });
        self.base = 0;
        self.pc = entry.entry_block;
        self.steps = 0;
        self.alive = true;
        self.outcome = RunOutcome::Done;
        self.pend_code = pen_code::IDLE;
        self.pend_op = Cmp::Eq;
        self.pend_lhs = 0.0;
        self.pend_rhs = 0.0;
    }

    /// Applies a block terminator to this lane.
    fn step_term(&mut self, tape: &Tape, pen_codes: &[u8], term: &Term) {
        match *term {
            Term::Jump(target) => self.pc = target,
            Term::BranchTruth {
                cond,
                on_true,
                on_false,
            } => {
                self.pc = if self.regs[self.base + cond as usize].truthy() {
                    on_true
                } else {
                    on_false
                };
            }
            Term::BranchSite {
                site,
                op,
                lhs,
                rhs,
                on_true,
                on_false,
            } => {
                let a = self.regs[self.base + lhs as usize].as_f64();
                let b = self.regs[self.base + rhs as usize].as_f64();
                // The deferred-context protocol: a fully-saturated (KEEP)
                // site cannot change the accumulator, every other code
                // overwrites the pending event.
                let code = pen_codes
                    .get(site as usize)
                    .copied()
                    .unwrap_or(pen_code::OPEN);
                if code != pen_code::KEEP {
                    self.pend_code = code;
                    self.pend_op = op;
                    self.pend_lhs = a;
                    self.pend_rhs = b;
                }
                self.pc = if op.eval(a, b) { on_true } else { on_false };
            }
            Term::Call {
                func,
                ref args,
                dst,
                ret,
            } => {
                if self.frames.len() > MAX_DEPTH {
                    self.alive = false;
                    self.outcome = RunOutcome::Trap;
                    return;
                }
                let callee = &tape.funcs[func as usize];
                let new_base = self.regs.len();
                self.regs
                    .resize(new_base + callee.num_regs as usize, Slot::Double(0.0));
                for (index, (&arg, &ty)) in args.iter().zip(&callee.params).enumerate() {
                    let value = self.regs[self.base + arg as usize].coerce(ty);
                    self.regs[new_base + index] = value;
                }
                self.frames.push(Frame {
                    base: new_base,
                    ret_block: ret,
                    ret_dst: dst,
                });
                self.base = new_base;
                self.pc = callee.entry_block;
            }
            Term::Return { value } => {
                let result = match value {
                    Some(reg) => self.regs[self.base + reg as usize],
                    None => Slot::Double(0.0),
                };
                let frame = self.frames.pop().expect("at least the entry frame");
                self.regs.truncate(frame.base);
                match self.frames.last() {
                    Some(caller) => {
                        self.base = caller.base;
                        if let Some(dst) = frame.ret_dst {
                            self.regs[self.base + dst as usize] = result;
                        }
                        self.pc = frame.ret_block;
                    }
                    None => self.alive = false,
                }
            }
            Term::Trap => {
                self.alive = false;
                self.outcome = RunOutcome::Trap;
            }
        }
    }
}

/// Gathers a plan's live-in registers from the active lanes into the SoA
/// scratch, runs the vector ops, and scatters the written registers back.
/// Returns `false` — without touching any register — when a live-in holds
/// an `Int` in any lane; the caller then runs the scalar walk.
fn run_block_soa(
    plan: &SoaPlan,
    isa: SimdIsa,
    scratch: &mut SoaScratch,
    vms: &mut [LaneVm],
    active: &[usize],
) -> bool {
    scratch.ensure(plan.num_vregs);
    let lanes = active.len();
    for &(reg, vreg) in &plan.live_in {
        let column = soa_col(vreg);
        for (slot, &index) in active.iter().enumerate() {
            let vm = &vms[index];
            match vm.regs[vm.base + reg as usize] {
                Slot::Double(v) => scratch.buf[column + slot] = v,
                Slot::Int(_) => return false,
            }
        }
    }
    scratch.run(plan, isa, lanes);
    for &(reg, vreg) in &plan.writes {
        let column = soa_col(vreg);
        for (slot, &index) in active.iter().enumerate() {
            let vm = &mut vms[index];
            let base = vm.base;
            vm.regs[base + reg as usize] = Slot::Double(scratch.buf[column + slot]);
        }
    }
    true
}

/// Runs a chunk of lanes to completion. Each scheduling round picks the
/// lowest live program counter and advances every lane parked on that
/// block together: the fuel charge, then the block body — through the
/// block's [`SoaPlan`] vector ops when two or more lanes are parked here
/// and every live-in register is a double, through the scalar op-outer/
/// lane-inner walk otherwise — then the terminator per lane. Lanes whose
/// paths diverge simply wait their turn; lanes on the same path stay in
/// lockstep the whole run.
fn run_lane_chunk(
    tape: &Tape,
    pen_codes: &[u8],
    vms: &mut [LaneVm],
    isa: SimdIsa,
    scratch: &mut SoaScratch,
) {
    // The round's active-lane set, built once so the op-outer loop touches
    // only the lanes actually parked on this block — when lanes diverge
    // (data-dependent loop trip counts), rescanning every lane per op is
    // what ate the lockstep advantage.
    debug_assert!(vms.len() <= LANE_WIDTH);
    let mut active = [0usize; LANE_WIDTH];
    loop {
        let mut next: Option<usize> = None;
        for vm in vms.iter() {
            if vm.alive {
                next = Some(next.map_or(vm.pc, |pc| pc.min(vm.pc)));
            }
        }
        let Some(pc) = next else { break };
        let block = &tape.blocks[pc];
        // Fuel first (a lane that times out here must not run the ops),
        // then collect the survivors.
        let mut live = 0;
        for (index, vm) in vms.iter_mut().enumerate() {
            if vm.alive && vm.pc == pc {
                vm.steps += block.cost as usize;
                if vm.steps > tape.fuel {
                    vm.alive = false;
                    vm.outcome = RunOutcome::Timeout;
                } else {
                    active[live] = index;
                    live += 1;
                }
            }
        }
        let ran_soa = live >= 2
            && tape.soa[pc]
                .as_ref()
                .is_some_and(|plan| run_block_soa(plan, isa, scratch, vms, &active[..live]));
        if !ran_soa {
            for op in &block.ops {
                for &index in &active[..live] {
                    let vm = &mut vms[index];
                    exec_op(op, vm.base, &mut vm.regs);
                }
            }
        }
        for &index in &active[..live] {
            vms[index].step_term(tape, pen_codes, &block.term);
        }
    }
}

/// The compiled execution backend for FPIR programs: scalar evaluations
/// run the tape against the caller's [`ExecCtx`], batched evaluations run
/// [`LANE_WIDTH`] tape VMs in lockstep and finalize the deferred penalties
/// through the SIMD kernels. Installed automatically by
/// [`IrProgram`]'s [`Program::backend`] under
/// [`BackendMode::Auto`]/[`BackendMode::Tape`].
#[derive(Debug, Clone)]
pub struct TapeBackend {
    tape: Arc<Tape>,
    epsilon: f64,
    /// The SIMD ISA the block kernels and the finalize dispatch to.
    isa: SimdIsa,
    pen_codes: Vec<u8>,
    vms: Vec<LaneVm>,
    /// Lane buffer for the straight-line-SoA block kernels.
    soa_scratch: SoaScratch,
    // SoA scratch for the finalize kernels.
    codes: Vec<u8>,
    ops: Vec<Cmp>,
    lhs: Vec<f64>,
    rhs: Vec<f64>,
    values: Vec<f64>,
}

impl TapeBackend {
    /// Wraps a lowered tape with default (unset) tuning; the objective
    /// engine injects `ε` and the saturation snapshot on installation.
    pub fn new(tape: Tape) -> TapeBackend {
        TapeBackend {
            tape: Arc::new(tape),
            epsilon: coverme_runtime::DEFAULT_EPSILON,
            isa: SimdIsa::active(),
            pen_codes: Vec::new(),
            vms: Vec::new(),
            soa_scratch: SoaScratch::default(),
            codes: Vec::new(),
            ops: Vec::new(),
            lhs: Vec::new(),
            rhs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The tape this backend executes.
    pub fn tape(&self) -> &Tape {
        &self.tape
    }
}

impl ExecBackend for TapeBackend {
    fn name(&self) -> &'static str {
        "tape"
    }

    fn simd_isa(&self) -> SimdIsa {
        self.isa
    }

    fn set_simd(&mut self, isa: SimdIsa) {
        assert!(isa.is_supported(), "SIMD ISA {isa} unsupported here");
        self.isa = isa;
    }

    fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon;
    }

    fn retarget(&mut self, saturated: &BranchSet) {
        self.pen_codes = pen_code_table(saturated);
    }

    fn run(&mut self, _program: &dyn Program, input: &[f64], ctx: &mut ExecCtx) {
        self.tape.execute(input, ctx);
    }

    fn run_lanes(
        &mut self,
        _program: &dyn Program,
        points: &[Vec<f64>],
        indices: &[usize],
        out: &mut Vec<LaneEval>,
    ) {
        out.reserve(indices.len());
        if self.vms.len() < LANE_WIDTH {
            self.vms.resize_with(LANE_WIDTH, LaneVm::new);
        }
        for chunk in indices.chunks(LANE_WIDTH) {
            let lanes = chunk.len();
            let tape = Arc::clone(&self.tape);
            for (vm, &index) in self.vms[..lanes].iter_mut().zip(chunk) {
                vm.reset(&tape, &points[index]);
            }
            run_lane_chunk(
                &tape,
                &self.pen_codes,
                &mut self.vms[..lanes],
                self.isa,
                &mut self.soa_scratch,
            );
            self.codes.clear();
            self.ops.clear();
            self.lhs.clear();
            self.rhs.clear();
            for vm in &self.vms[..lanes] {
                self.codes.push(vm.pend_code);
                self.ops.push(vm.pend_op);
                self.lhs.push(vm.pend_lhs);
                self.rhs.push(vm.pend_rhs);
            }
            self.values.clear();
            resolve_pen_lanes_with(
                self.isa,
                &self.codes,
                &self.ops,
                &self.lhs,
                &self.rhs,
                self.epsilon,
                &mut self.values,
            );
            for (vm, &value) in self.vms[..lanes].iter().zip(&self.values) {
                out.push(LaneEval {
                    value,
                    outcome: vm.outcome,
                });
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ExecBackend> {
        Box::new(self.clone())
    }
}

/// Builds the backend [`IrProgram::backend`] hands out: `None` for
/// [`BackendMode::Interp`], the lowered tape for `Auto`/`Tape` (or `None`
/// when lowering bails, which transparently keeps the interpreter).
pub(crate) fn program_backend(
    program: &IrProgram,
    mode: BackendMode,
) -> Option<Box<dyn ExecBackend>> {
    match mode {
        BackendMode::Interp => None,
        BackendMode::Auto | BackendMode::Tape => lower(program)
            .ok()
            .map(|tape| Box::new(TapeBackend::new(tape)) as Box<dyn ExecBackend>),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use coverme_runtime::{eager_value, BranchId, InterpBackend, DEFAULT_EPSILON};

    /// Runs `program` both ways on `input` in observe mode and asserts the
    /// full observable state matches: coverage, trace, outcome.
    fn assert_observably_equal(program: &IrProgram, input: &[f64]) {
        let tape = lower(program).expect("lowers");
        let mut interp_ctx = ExecCtx::observe();
        program.execute(input, &mut interp_ctx);
        let mut tape_ctx = ExecCtx::observe();
        tape.execute(input, &mut tape_ctx);
        assert_eq!(
            tape_ctx.run_outcome(),
            interp_ctx.run_outcome(),
            "outcome diverged on {input:?}"
        );
        let interp_cov: Vec<BranchId> = interp_ctx.covered().iter().collect();
        let tape_cov: Vec<BranchId> = tape_ctx.covered().iter().collect();
        assert_eq!(tape_cov, interp_cov, "coverage diverged on {input:?}");
        assert_eq!(
            format!("{:?}", tape_ctx.trace()),
            format!("{:?}", interp_ctx.trace()),
            "trace diverged on {input:?}"
        );
    }

    #[test]
    fn tape_matches_interpreter_on_arithmetic_and_calls() {
        let p = compile(
            r#"
            double square(double x) { return x * x; }
            double f(double x) {
                double y = square(x) + 1.0;
                if (y >= 5.0) { return y; }
                return -y;
            }
            "#,
            "f",
        )
        .unwrap();
        for v in [-3.0, -1.0, 0.0, 1.0, 2.0, 4.5, f64::NAN, f64::INFINITY] {
            assert_observably_equal(&p, &[v]);
        }
    }

    #[test]
    fn tape_matches_interpreter_on_loops_and_bit_builtins() {
        let p = compile(
            r#"
            double f(double x) {
                int hx = high_word(x) & 0x7fffffff;
                double acc = 0.0;
                int i = 0;
                while (i < 6) {
                    acc = acc + scalbn(x, i % 3);
                    i = i + 1;
                }
                if (hx >= 0x7ff00000) { return acc; }
                if (acc != 0.0 && x > 0.5) { return acc * 2.0; }
                return from_words(hx, low_word(acc));
            }
            "#,
            "f",
        )
        .unwrap();
        for v in [0.0, 0.3, 0.7, -2.5, 1e300, f64::NAN, f64::INFINITY, 5e-324] {
            assert_observably_equal(&p, &[v]);
        }
    }

    #[test]
    fn tape_preserves_timeout_and_trap_classification() {
        let spin = compile(
            "double f(double x) { while (x > 0.0) { x = x + 1.0; } return x; }",
            "f",
        )
        .unwrap();
        assert_observably_equal(&spin, &[1.0]);
        assert_observably_equal(&spin, &[-1.0]);
        // Same program, starved fuel: the exact step where the budget trips
        // must classify identically.
        let starved = spin.with_fuel(17);
        assert_observably_equal(&starved, &[1.0]);

        let recurse = compile(
            "double f(double x) { if (x > 0.0) { return f(x); } return x; }",
            "f",
        )
        .unwrap();
        assert_observably_equal(&recurse, &[1.0]);
        assert_observably_equal(&recurse, &[-1.0]);
    }

    #[test]
    fn tape_representing_values_are_bit_identical() {
        let p = compile(
            r#"
            double f(double x) {
                if (x <= 1.0) { x = x + 2.5; }
                double y = x * x;
                if (y == 4.0) { return 1.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        let saturated: BranchSet = [BranchId::false_of(1)].into_iter().collect();
        for i in 0..40 {
            let input = [i as f64 * 0.37 - 6.0];
            let mut interp_ctx = ExecCtx::representing(saturated.clone());
            p.execute(&input, &mut interp_ctx);
            let mut tape_ctx = ExecCtx::representing(saturated.clone());
            tape.execute(&input, &mut tape_ctx);
            assert_eq!(
                tape_ctx.representing_value().to_bits(),
                interp_ctx.representing_value().to_bits(),
                "representing value diverged on {input:?}"
            );
        }
    }

    #[test]
    fn lane_backend_matches_the_interp_backend_bit_for_bit() {
        let p = compile(
            r#"
            double helper(double a, int k) { return scalbn(a, k) - 1.0; }
            double f(double x) {
                double y = helper(x, 2);
                if (y <= 1.0) { y = y + 2.5; }
                if (y * y == 4.0) { return 1.0; }
                return y;
            }
            "#,
            "f",
        )
        .unwrap();
        let saturated: BranchSet = [BranchId::false_of(0), BranchId::true_of(0)]
            .into_iter()
            .collect();
        let mut tape_backend = p
            .backend(BackendMode::Tape)
            .expect("tape backend available");
        let mut interp_backend: Box<dyn ExecBackend> = Box::new(InterpBackend::new());
        for backend in [&mut tape_backend, &mut interp_backend] {
            backend.set_epsilon(DEFAULT_EPSILON);
            backend.retarget(&saturated);
        }
        let points: Vec<Vec<f64>> = (0..29).map(|i| vec![i as f64 * 0.23 - 3.0]).collect();
        let indices: Vec<usize> = (0..points.len()).collect();
        let mut tape_out = Vec::new();
        tape_backend.run_lanes(&p, &points, &indices, &mut tape_out);
        let mut interp_out = Vec::new();
        interp_backend.run_lanes(&p, &points, &indices, &mut interp_out);
        assert_eq!(tape_out.len(), interp_out.len());
        for (t, i) in tape_out.iter().zip(&interp_out) {
            assert_eq!(t.outcome, i.outcome);
            assert_eq!(t.value.to_bits(), i.value.to_bits());
        }
    }

    #[test]
    fn backend_discovery_respects_the_mode() {
        let p = compile(
            "double f(double x) { if (x < 1.0) { return x; } return 1.0; }",
            "f",
        )
        .unwrap();
        assert!(p.backend(BackendMode::Interp).is_none());
        let auto = p.backend(BackendMode::Auto).expect("auto resolves to tape");
        assert_eq!(auto.name(), "tape");
        let forced = p.backend(BackendMode::Tape).expect("tape available");
        assert_eq!(forced.name(), "tape");
        assert_eq!(forced.lane_width(), LANE_WIDTH);
    }

    #[test]
    fn tapes_serialize_to_a_readable_listing() {
        let p = compile(
            r#"
            double f(double x) {
                if (x <= 1.0) { x = sqrt(x) + 2.0; }
                while (x > 0.0 && x < 9.0) { x = x * 2.0; }
                return x;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        let listing = tape.serialize();
        assert!(listing.contains("tape f arity=1"));
        assert!(listing.contains("branch.site s0 le"));
        assert!(listing.contains("sqrt"));
        assert!(listing.contains("branch.truth"));
        assert!(listing.contains("jump b"));
        assert!(listing.contains("ret"));
        assert_eq!(listing, tape.to_string());
        assert!(tape.num_blocks() > 4);
        assert_eq!(tape.num_funcs(), 1);
        assert_eq!(tape.name(), "f");
        assert_eq!(tape.arity(), 1);
        // Only the `<=` conditional is instrumentable; the `&&` condition
        // stays uninstrumented (truthiness branch).
        assert_eq!(tape.num_sites(), 1);
        assert_eq!(tape.fuel(), crate::interp::DEFAULT_FUEL);
    }

    #[test]
    fn soa_plans_cover_arithmetic_blocks_without_leaking_into_the_listing() {
        let p = compile(
            r#"
            double f(double x, double y) {
                double a = x * y + 2.0;
                double b = sqrt(fabs(a)) - x / 3.0;
                double c = sin(b) * cos(a) + exp(x * 0.001);
                if (c <= 1.0) { return c + a; }
                return c - b;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        assert!(
            tape.num_soa_blocks() > 0,
            "straight-line double arithmetic should plan at least one SoA block"
        );
        // The plan is a pure execution detail: listings (and therefore the
        // fingerprint/corpus keys built from them) never mention it.
        assert!(!tape.serialize().contains("soa"));
    }

    #[test]
    fn soa_planner_bails_on_integer_blocks() {
        let p = compile(
            r#"
            double f(double x) {
                int hx = high_word(x) & 0x7fffffff;
                int k = hx >> 20;
                int j = k - 1023;
                double z = from_words(hx, low_word(x));
                return z + j;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        assert_eq!(
            tape.num_soa_blocks(),
            0,
            "int-producing ops must disable the SoA plan for the block"
        );
    }

    #[test]
    fn soa_lane_path_is_bit_identical_across_isas() {
        let p = compile(
            r#"
            double f(double x, double y) {
                double a = x * y + 2.0;
                double b = sqrt(fabs(a)) - x / 3.0;
                double c = sin(b) * cos(a) + exp(x * 0.001);
                if (c <= 1.0) { return c + a; }
                if (a == b) { return 0.0; }
                return c - b;
            }
            "#,
            "f",
        )
        .unwrap();
        let tape = lower(&p).unwrap();
        assert!(tape.num_soa_blocks() > 0);
        let saturated: BranchSet = [BranchId::false_of(0), BranchId::true_of(1)]
            .into_iter()
            .collect();
        let specials = [
            -3.5,
            0.25,
            1.0,
            7.5,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            1e300,
        ];
        let mut points = Vec::new();
        for &a in &specials {
            for &b in &specials {
                points.push(vec![a, b]);
            }
        }
        let indices: Vec<usize> = (0..points.len()).collect();
        // Reference: the eager `pen` fold over the interpreter's trace.
        let reference: Vec<u64> = points
            .iter()
            .map(|point| {
                let mut ctx = ExecCtx::observe();
                p.execute(point, &mut ctx);
                eager_value(ctx.trace(), &saturated, DEFAULT_EPSILON).to_bits()
            })
            .collect();
        for isa in SimdIsa::supported() {
            let mut backend = p.backend(BackendMode::Tape).expect("tape available");
            backend.set_simd(isa);
            backend.set_epsilon(DEFAULT_EPSILON);
            backend.retarget(&saturated);
            assert_eq!(backend.simd_isa(), isa);
            assert_eq!(backend.lane_width(), LANE_WIDTH);
            let mut evals = Vec::new();
            backend.run_lanes(&p, &points, &indices, &mut evals);
            assert_eq!(evals.len(), points.len());
            for ((eval, &expect), point) in evals.iter().zip(&reference).zip(&points) {
                assert_eq!(eval.outcome, RunOutcome::Done);
                assert_eq!(
                    eval.value.to_bits(),
                    expect,
                    "{isa} diverged from the eager fold on {point:?}"
                );
            }
        }
    }

    #[test]
    fn short_circuit_burns_follow_the_taken_path() {
        // The rhs of `&&` burns fuel only when evaluated; with fuel tuned
        // to the boundary, interpreter and tape must classify identically
        // on both the short-circuiting and the full-evaluation path.
        let p = compile(
            r#"
            double g(double a) { return a + 1.0; }
            double f(double x) {
                if (x > 0.0 && g(x) > 2.0) { return 1.0; }
                if (x < 0.0 || g(x) < 0.5) { return 2.0; }
                return 0.0;
            }
            "#,
            "f",
        )
        .unwrap();
        for fuel in 1..40 {
            let starved = p.clone().with_fuel(fuel);
            for v in [-1.0, 0.2, 3.0] {
                assert_observably_equal(&starved, &[v]);
            }
        }
    }
}
