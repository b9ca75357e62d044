//! Activations, `exp`/`ln` rows and GEMM column tails are counted where
//! GEMM cells are counted. One test in its own process, so the process-wide
//! counters move by exactly what it does.

use harl_simd::{
    exp_inplace, force_backend, gemm_bias_into, ln_inplace, stats, tanh_inplace, Backend, SimdStats,
};

/// What `f` adds to the counters.
fn counted(f: impl FnOnce()) -> SimdStats {
    let before = stats();
    f();
    let after = stats();
    SimdStats {
        backend: after.backend,
        gemm_calls: after.gemm_calls - before.gemm_calls,
        score_batch_calls: after.score_batch_calls - before.score_batch_calls,
        tanh_calls: after.tanh_calls - before.tanh_calls,
        exp_calls: after.exp_calls - before.exp_calls,
        ln_calls: after.ln_calls - before.ln_calls,
        vector_cells: after.vector_cells - before.vector_cells,
        scalar_cells: after.scalar_cells - before.scalar_cells,
    }
}

#[test]
fn kernels_count_their_vector_and_scalar_cells() {
    let mut x = [0.5f32; 19];
    let mut row = [0.25f32; 110];
    // a 64-row, 3-wide policy head over a 64-wide trunk
    let (gx, gw, gb) = ([0.5f32; 64 * 64], [0.25f32; 64 * 3], [0.0f32; 3]);
    let mut gy = Vec::new();

    force_backend(Some(Backend::Scalar));
    let d = counted(|| tanh_inplace(&mut x));
    assert_eq!((d.tanh_calls, d.vector_cells, d.scalar_cells), (1, 0, 19));
    let d = counted(|| exp_inplace(&mut row));
    assert_eq!((d.exp_calls, d.vector_cells, d.scalar_cells), (1, 0, 110));
    let d = counted(|| ln_inplace(&mut row));
    assert_eq!((d.ln_calls, d.vector_cells, d.scalar_cells), (1, 0, 110));
    let d = counted(|| gemm_bias_into(&gx, &gw, &gb, 64, 64, 3, &mut gy));
    assert_eq!((d.gemm_calls, d.vector_cells, d.scalar_cells), (1, 0, 192));

    if Backend::Sse2.is_supported() {
        // no masked moves below AVX: the column tail stays scalar
        force_backend(Some(Backend::Sse2));
        let d = counted(|| gemm_bias_into(&gx, &gw, &gb, 64, 64, 3, &mut gy));
        assert_eq!((d.vector_cells, d.scalar_cells), (0, 192));
    }

    #[cfg(target_arch = "x86_64")]
    for (backend, lanes) in [(Backend::Avx2, 8), (Backend::Avx512, 16)] {
        if !backend.is_supported() {
            continue;
        }
        force_backend(Some(backend));
        assert_eq!(stats().backend, backend);
        // full groups are vector cells, the tail is counted scalar
        let d = counted(|| tanh_inplace(&mut x));
        let full = 19 - 19 % lanes;
        assert_eq!(
            (d.tanh_calls, d.vector_cells, d.scalar_cells),
            (1, full, 19 - full)
        );
        assert!(stats().vector_fraction() > 0.0);
        // exp and ln pad their tail into a vector: every cell rides a lane
        // (AVX2 needs FMA beside it, which every AVX2 CPU so far has)
        let fma = backend == Backend::Avx512 || std::arch::is_x86_feature_detected!("fma");
        let row_cells = if fma { (110, 0) } else { (0, 110) };
        let d = counted(|| exp_inplace(&mut row));
        assert_eq!(
            (d.exp_calls, d.vector_cells, d.scalar_cells),
            (1, row_cells.0, row_cells.1)
        );
        let d = counted(|| ln_inplace(&mut row));
        assert_eq!(
            (d.ln_calls, d.vector_cells, d.scalar_cells),
            (1, row_cells.0, row_cells.1)
        );
        // the 3-wide head is all masked tail: no scalar cell left
        let d = counted(|| gemm_bias_into(&gx, &gw, &gb, 64, 64, 3, &mut gy));
        assert_eq!((d.gemm_calls, d.vector_cells, d.scalar_cells), (1, 192, 0));
    }
}
