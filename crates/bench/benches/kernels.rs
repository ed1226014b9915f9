//! Criterion bench: the dense numerical kernels on which every solver
//! iteration spends its time — G-matrix algorithms, the stationary
//! boundary solve, raw dense matmul, the occupancy-lumped solves, the
//! Theorem-3 scalar-tail vs full-`R` ablation, and simulator throughput.
//!
//! Phase sizes m ∈ {4, 16, 64} bracket the block sizes the SQ(d) bound
//! models generate. With `CRITERION_JSON=BENCH_pr3.json` the shim appends
//! machine-readable medians, which is how the committed perf trajectory
//! (`BENCH_pr3.json`) is produced; see README §Performance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use slb_core::{BoundKind, LumpedModel, Sqd};
use slb_linalg::Matrix;
use slb_qbd::{cyclic_reduction, logarithmic_reduction, QbdBlocks};
use slb_sim::{Policy, SimConfig};

/// A stable m-phase MMPP-modulated quasi-birth-death: ring phase
/// switching at rate `r`, per-phase arrival rates cycling through
/// `[0.35, 0.95)`, unit service. Exercises dense blocks of exactly the
/// requested size without depending on the SQ(d) state-space layout.
fn mmpp_blocks(m: usize) -> QbdBlocks {
    let r = 0.3;
    let mu = 1.0;
    let lam = |i: usize| 0.35 + 0.6 * (i as f64) / (m as f64);
    let a0 = Matrix::from_fn(m, m, |i, j| if i == j { lam(i) } else { 0.0 });
    let a2 = Matrix::from_fn(m, m, |i, j| if i == j { mu } else { 0.0 });
    let switch = |i: usize, j: usize| -> f64 {
        if m > 1 && (j == (i + 1) % m || i == (j + 1) % m) {
            r
        } else {
            0.0
        }
    };
    let out = |i: usize| -> f64 { (0..m).map(|j| switch(i, j)).sum::<f64>() };
    let a1 = Matrix::from_fn(m, m, |i, j| {
        if i == j {
            -(lam(i) + mu + out(i))
        } else {
            switch(i, j)
        }
    });
    let r00 = Matrix::from_fn(m, m, |i, j| {
        if i == j {
            -(lam(i) + out(i))
        } else {
            switch(i, j)
        }
    });
    QbdBlocks::new(r00, a0.clone(), a2.clone(), a0, a1, a2).unwrap()
}

const SIZES: [usize; 3] = [4, 16, 64];

fn bench_g_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for &m in &SIZES {
        let blocks = mmpp_blocks(m);
        group.bench_with_input(
            BenchmarkId::new("logred", format!("m{m}")),
            &blocks,
            |b, blocks| b.iter(|| logarithmic_reduction(blocks, 1e-13, 64).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("cr", format!("m{m}")),
            &blocks,
            |b, blocks| b.iter(|| cyclic_reduction(blocks, 1e-12, 64).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("stationary_solve", format!("m{m}")),
            &blocks,
            |b, blocks| b.iter(|| blocks.solve().unwrap()),
        );
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for &m in &SIZES {
        let a = Matrix::from_fn(m, m, |i, j| ((i * 31 + j * 7) % 17) as f64 / 17.0 - 0.4);
        let b_in = Matrix::from_fn(m, m, |i, j| ((i * 13 + j * 5) % 23) as f64 / 23.0 - 0.6);
        group.bench_with_input(
            BenchmarkId::new("matmul", format!("m{m}")),
            &(a, b_in),
            |bch, (a, b_in)| bch.iter(|| a * b_in),
        );
    }
    group.finish();
}

/// The occupancy-lumped large-N path (`experiments/scaling.toml`'s
/// engine): sparse block assembly and the Theorem-3 lower-bound solve
/// at the grid's smallest panel (N = 16, T = 4, block m = 3876), plus
/// assembly alone at N = 64, T = 3 (m = 45 760) where the CSR builder
/// dominates, and the closed truncated upper-bound solve (drift test
/// plus level doubling) of a cold `bounds` query at N = 16, T = 3,
/// ρ = 0.45 and near the stability boundary at N = 8, T = 4, ρ = 0.9
/// (η = 0.966). Solve time is Gauss–Seidel-bound, so these medians
/// track exactly what the scaling sweep and the query path pay per row.
fn bench_lumped(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(10);
    for (n, t) in [(16usize, 4u32), (64, 3)] {
        let sqd = Sqd::new(n, 2, 0.5).unwrap();
        let model = LumpedModel::new(sqd, BoundKind::Lower, t).unwrap();
        group.bench_function(
            BenchmarkId::new("lumped_assembly", format!("N{n}_T{t}")),
            |b| b.iter(|| model.qbd_blocks().unwrap()),
        );
    }
    let sqd = Sqd::new(16, 2, 0.5).unwrap();
    group.bench_function(BenchmarkId::new("lumped_lower", "N16_T4"), |b| {
        b.iter(|| sqd.lower_bound_lumped(4).unwrap())
    });
    let query = Sqd::new(16, 2, 0.45).unwrap();
    group.bench_function(BenchmarkId::new("lumped_upper", "N16_T3"), |b| {
        b.iter(|| query.upper_bound_lumped(3).unwrap())
    });
    let near_boundary = Sqd::new(8, 2, 0.9).unwrap();
    group.bench_function(BenchmarkId::new("lumped_upper", "N8_T4"), |b| {
        b.iter(|| near_boundary.upper_bound_lumped(4).unwrap())
    });
    group.finish();
}

/// The paper's Theorem-3 ablation (§IV-B): the scalar-tail (`ρᴺ`)
/// lower-bound solve against the full matrix-geometric solve of the same
/// model, at ρ = 0.9.
fn bench_theorem3(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for (n, t) in [(3usize, 3u32), (6, 3)] {
        let sqd = Sqd::new(n, 2, 0.9).unwrap();
        group.bench_function(
            BenchmarkId::new("theorem3", format!("scalar_tail_N{n}_T{t}")),
            |b| b.iter(|| sqd.lower_bound(t).unwrap()),
        );
        group.bench_function(
            BenchmarkId::new("theorem3", format!("full_r_N{n}_T{t}")),
            |b| b.iter(|| sqd.lower_bound_full_r(t).unwrap()),
        );
    }
    group.finish();
}

/// Server counts for the simulator scaling benches: N = 16 is the
/// paper-sized regime, 256 and 4096 stress the dispatch path (an O(N)
/// scan per arrival dominates long before 4096 servers).
const SIM_SIZES: [usize; 3] = [16, 256, 4096];

fn bench_sim_throughput(c: &mut Criterion) {
    const JOBS: u64 = 100_000;
    let mut group = c.benchmark_group("kernels");
    group.throughput(Throughput::Elements(JOBS));
    group.sample_size(10);
    let serial = |n: usize, policy: Policy| {
        SimConfig::new(n, 0.9)
            .unwrap()
            .policy(policy)
            .jobs(JOBS)
            .warmup(JOBS / 10)
            .seed(1)
            .run()
            .unwrap()
    };
    for &n in &SIM_SIZES {
        group.bench_function(
            BenchmarkId::new("sim_serial", format!("N{n}_rho0.9_100k")),
            |b| b.iter(|| serial(n, Policy::SqD { d: 2 })),
        );
        group.bench_function(
            BenchmarkId::new("sim_jsq", format!("N{n}_rho0.9_100k")),
            |b| b.iter(|| serial(n, Policy::Jsq)),
        );
    }
    // Parallel replications: the *same total work* (4 replications of
    // 100k jobs each — full replication-sized slices, so per-run setup
    // is noise) on 1 worker thread vs 4. The t1 variant is the serial
    // reference, so the parallel speedup is the t1/t4 median ratio — a
    // directly gateable number. PR 7's pre-resize pairs ran 4×25k
    // slices, small enough that thread hand-off and merge overhead
    // drowned the signal.
    let par = |n: usize, policy: Policy, threads: usize| {
        SimConfig::new(n, 0.9)
            .unwrap()
            .policy(policy)
            .jobs(JOBS)
            .warmup(JOBS / 10)
            .seed(1)
            .run_parallel(4, threads)
            .unwrap()
    };
    for &n in &SIM_SIZES {
        for (policy_name, policy) in [("sq2", Policy::SqD { d: 2 }), ("jsq", Policy::Jsq)] {
            for threads in [1usize, 4] {
                group.bench_function(
                    BenchmarkId::new(
                        format!("sim_par_{policy_name}_t{threads}"),
                        format!("N{n}_rho0.9_4x100k"),
                    ),
                    |b| b.iter(|| par(n, policy, threads)),
                );
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_g_kernels, bench_matmul, bench_lumped, bench_theorem3, bench_sim_throughput
}
criterion_main!(benches);
