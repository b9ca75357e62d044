//! `exp` and `ln` over a slice: today a loop over the host's `expf`/`logf`,
//! the functions `tests/explog_golden.rs` was recorded with.

/// Replaces every element of `x` with its `exp`.
pub fn exp_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.exp();
    }
}

/// Replaces every element of `x` with its natural logarithm.
pub fn ln_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.ln();
    }
}
