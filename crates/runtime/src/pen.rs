//! The penalty function `pen` — Definition 4.2 of the paper.
//!
//! `pen(l_i, op, a, b)` is what the instrumentation injects before every
//! conditional statement. It quantifies how far the current input is from
//! saturating a *new* branch at `l_i`:
//!
//! * if **neither** branch of `l_i` is saturated, any input saturates a new
//!   branch there, so `pen` returns `0`;
//! * if exactly **one** branch is saturated, `pen` returns the branch
//!   distance to the *unsaturated* side;
//! * if **both** branches are saturated, `pen` keeps the previous value of
//!   the global accumulator `r` (there is nothing new to gain at `l_i`).
//!
//! No evaluation path folds `pen` at every conditional: [`crate::ExecCtx`]
//! keeps only the last live event and computes its one distance when the
//! value is read (see [`crate::context`]). [`pen`] and [`eager_value`] are
//! the literal Algorithm 1 fold, kept as the reference oracle the deferred
//! paths are tested against.

use crate::branch::{BranchId, BranchSet};
use crate::distance::{distance, Cmp};
use crate::trace::Trace;

/// Saturation status of the two branches at one conditional site, as seen by
/// `pen`. This is the only piece of global CoverMe state the runtime needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SiteSaturation {
    /// Whether the true branch `i^T` is saturated.
    pub true_saturated: bool,
    /// Whether the false branch `i^F` is saturated.
    pub false_saturated: bool,
}

impl SiteSaturation {
    /// Neither side saturated.
    pub fn none() -> SiteSaturation {
        SiteSaturation::default()
    }

    /// Both sides saturated.
    pub fn both() -> SiteSaturation {
        SiteSaturation {
            true_saturated: true,
            false_saturated: true,
        }
    }
}

/// Computes `pen` per Definition 4.2 (Algorithm 1, lines 14–23).
///
/// `previous_r` is the current value of the injected global variable `r`;
/// it is returned unchanged when both branches are already saturated
/// (case (c) of the definition).
pub fn pen(
    saturation: SiteSaturation,
    op: Cmp,
    a: f64,
    b: f64,
    epsilon: f64,
    previous_r: f64,
) -> f64 {
    match (saturation.true_saturated, saturation.false_saturated) {
        // (a) Neither branch saturated: any input saturates a new branch.
        (false, false) => 0.0,
        // (b) Only the false side saturated: distance to making the condition
        // true (the unsaturated true branch).
        (false, true) => distance(op, a, b, epsilon),
        // (b') Only the true side saturated: distance to the false branch,
        // i.e. to the negated condition ("op̄" in the paper).
        (true, false) => distance(op.negate(), a, b, epsilon),
        // (c) Both saturated: keep the previous r.
        (true, true) => previous_r,
    }
}

/// The eager representing value of one execution: `r = 1`, then
/// `r = pen(...)` folded over every decision of the execution's `trace` in
/// order, against the saturation snapshot `saturated` (Algorithm 1 as
/// written). Bit-identical to [`crate::ExecCtx::representing_value`] of a
/// representing execution that took the same decisions — the property the
/// deferred-penalty paths are tested against.
pub fn eager_value(trace: &Trace, saturated: &BranchSet, epsilon: f64) -> f64 {
    trace.iter().fold(1.0, |r, event| {
        let saturation = SiteSaturation {
            true_saturated: saturated.contains(BranchId::true_of(event.site)),
            false_saturated: saturated.contains(BranchId::false_of(event.site)),
        };
        pen(saturation, event.op, event.lhs, event.rhs, epsilon, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    #[test]
    fn no_saturation_returns_zero_for_any_input() {
        for (a, b) in [(0.0, 0.0), (1e9, -1e9), (f64::NAN, 1.0)] {
            assert_eq!(pen(SiteSaturation::none(), Cmp::Le, a, b, EPS, 1.0), 0.0);
        }
    }

    #[test]
    fn only_false_saturated_targets_true_branch() {
        let sat = SiteSaturation {
            true_saturated: false,
            false_saturated: true,
        };
        // Condition y == 4 from the paper's Table 1 row 2.
        assert_eq!(pen(sat, Cmp::Eq, 2.0, 4.0, EPS, 1.0), 4.0);
        assert_eq!(pen(sat, Cmp::Eq, 4.0, 4.0, EPS, 1.0), 0.0);
    }

    #[test]
    fn only_true_saturated_targets_false_branch() {
        let sat = SiteSaturation {
            true_saturated: true,
            false_saturated: false,
        };
        // Condition x <= 1: the false branch needs x > 1.
        assert_eq!(pen(sat, Cmp::Le, 0.0, 1.0, EPS, 1.0), 1.0 + EPS);
        assert_eq!(pen(sat, Cmp::Le, 2.0, 1.0, EPS, 1.0), 0.0);
    }

    #[test]
    fn both_saturated_preserves_r() {
        for r in [0.0, 0.25, 1.0, 42.0] {
            assert_eq!(pen(SiteSaturation::both(), Cmp::Lt, 3.0, 1.0, EPS, r), r);
        }
    }

    #[test]
    fn pen_is_never_negative() {
        let sats = [
            SiteSaturation::none(),
            SiteSaturation::both(),
            SiteSaturation {
                true_saturated: true,
                false_saturated: false,
            },
            SiteSaturation {
                true_saturated: false,
                false_saturated: true,
            },
        ];
        let values = [-5.0, -0.5, 0.0, 0.5, 5.0];
        for sat in sats {
            for op in [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge] {
                for &a in &values {
                    for &b in &values {
                        let p = pen(sat, op, a, b, EPS, 1.0);
                        assert!(p >= 0.0, "pen({sat:?}, {op}, {a}, {b}) = {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn table1_row3_shape() {
        // Paper Table 1 row 3: branches {0T, 1T, 1F} saturated, 0F not.
        // pen0 should then be the distance to "x > 1": 0 when x > 1,
        // (x-1)^2 + eps otherwise.
        let sat0 = SiteSaturation {
            true_saturated: true,
            false_saturated: false,
        };
        let at = |x: f64| pen(sat0, Cmp::Le, x, 1.0, EPS, 1.0);
        assert_eq!(at(1.1), 0.0);
        assert!((at(0.0) - (1.0 + EPS)).abs() < 1e-12);
        assert!(at(-3.0) > at(0.5));
    }
}
