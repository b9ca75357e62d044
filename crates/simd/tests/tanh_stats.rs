//! The activation is counted where GEMM cells are counted. One test in its
//! own process, so the process-wide counters move by exactly what it does.

use harl_simd::{force_backend, stats, tanh_inplace, Backend};

#[test]
fn tanh_counts_full_vectors_and_scalar_cells() {
    let mut x = [0.5f32; 19];

    force_backend(Some(Backend::Scalar));
    let before = stats();
    tanh_inplace(&mut x);
    let after = stats();
    assert_eq!(after.tanh_calls - before.tanh_calls, 1);
    assert_eq!(after.vector_cells - before.vector_cells, 0);
    assert_eq!(after.scalar_cells - before.scalar_cells, 19);

    if Backend::Avx2.is_supported() {
        force_backend(Some(Backend::Avx2));
        let before = stats();
        tanh_inplace(&mut x);
        let after = stats();
        assert_eq!(after.tanh_calls - before.tanh_calls, 1);
        assert_eq!(after.vector_cells - before.vector_cells, 16);
        assert_eq!(after.scalar_cells - before.scalar_cells, 3);
        assert!(after.vector_fraction() > 0.0);
    }
}
