//! Criterion bench: cost of the MAP extension — product-space block
//! assembly and the full bound solve, against the scalar (Poisson)
//! model at identical `(N, d, ρ, T)`. Quantifies the "×p phases"
//! factor the paper's conclusion glosses over.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use slb_core::{BoundKind, BoundModel, Sqd};
use slb_mapph::MapSqd;
use slb_markov::Map;

fn bench_map_bounds(c: &mut Criterion) {
    let (n, d, rho, t) = (3usize, 2usize, 0.8f64, 3u32);
    let mut group = c.benchmark_group("map_extension");

    let scalar = Sqd::new(n, d, rho).unwrap();
    group.bench_function(
        BenchmarkId::new("poisson_lower_scalar_tail", "N3_T3"),
        |b| b.iter(|| scalar.lower_bound(t).unwrap()),
    );
    group.bench_function(BenchmarkId::new("poisson_upper_full", "N3_T3"), |b| {
        b.iter(|| scalar.upper_bound(t).unwrap())
    });

    for phases in [1usize, 2] {
        let map = if phases == 1 {
            Map::poisson(rho * n as f64).unwrap()
        } else {
            Map::mmpp2(0.5, 0.5, 0.5, 1.5)
                .unwrap()
                .with_rate(rho * n as f64)
                .unwrap()
        };
        let model = MapSqd::new(n, d, &map).unwrap();
        let label = format!("N3_T3_p{phases}");
        group.bench_with_input(BenchmarkId::new("map_assemble", &label), &model, |b, m| {
            b.iter(|| m.qbd_blocks(BoundKind::Lower, t).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("map_lower_full", &label),
            &model,
            |b, m| b.iter(|| m.lower_bound(t).unwrap()),
        );
    }

    // The scalar-model block assembly for reference.
    group.bench_function(BenchmarkId::new("scalar_assemble", "N3_T3"), |b| {
        b.iter(|| {
            BoundModel::new(scalar, BoundKind::Lower, t)
                .unwrap()
                .qbd_blocks()
                .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_map_bounds
}
criterion_main!(benches);
