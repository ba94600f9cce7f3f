//! Micro-benchmarks of the kernels: the Lemma 2.6 digit DP entry points
//! and the candidate argmin, on the same workloads the committed
//! `BENCH_bench.json` records. The `edge_shares` row runs whole slice
//! windows of `edge_shares_cached` from a fresh cache
//! ([`EdgeShareWindow`]) and reports the time per call.
//!
//! The digit-DP fixture matches `bench_derand`, so
//! `kernels/digit_dp/joint_coin_probs` reads against the `joint_coin_probs`
//! row there.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dcl_bench::edge_window::EdgeShareWindow;
use dcl_derand::seed::PartialSeed;
use dcl_derand::slice::SliceFamily;
use dcl_kernels::digit_dp;
use std::time::Instant;

fn kernels(c: &mut Criterion) {
    let fam = SliceFamily::new(10, 14);
    let mut seed = PartialSeed::new(fam.seed_len());
    for i in (0..fam.seed_len()).step_by(2) {
        seed.fix(i, i % 4 == 0);
    }
    let (x, y) = (0b1011001101u64, 0b0111010010u64);
    let fx = fam.forms_for(&seed, x);
    let fy = fam.forms_for(&seed, y);
    let scores: Vec<f64> = (0..4096u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) % 100_000) as f64 / 3.0)
        .collect();

    c.bench_function("kernels/digit_dp/joint_coin_probs", |b| {
        b.iter(|| digit_dp::joint_coin_probs_override(&fx, None, 9000, &fy, None, 4000))
    });
    let mut window = EdgeShareWindow::new();
    c.bench_function("kernels/digit_dp/edge_shares", |b| {
        b.iter_custom(|windows| {
            let t = Instant::now();
            for _ in 0..windows {
                black_box(window.run());
            }
            t.elapsed() / EdgeShareWindow::EVALS
        })
    });
    c.bench_function("kernels/argmin/4096", |b| {
        b.iter(|| dcl_sim::argmin_f64(None, scores.len(), |i| scores[i]))
    });
}

criterion_group!(benches, kernels);
criterion_main!(benches);
