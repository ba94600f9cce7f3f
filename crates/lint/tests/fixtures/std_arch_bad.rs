//! Seeded violation: architecture intrinsics (banned workspace-wide).

pub fn sum2(a: f64, b: f64) -> f64 {
    let _detect = std::arch::is_x86_feature_detected!("avx2");
    a + b
}
