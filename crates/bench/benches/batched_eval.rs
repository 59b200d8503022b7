//! Microbenchmark of the lane-interleaved sparse refactor+solve against K
//! independent scalar factorizations. The MOSFET bank rows moved to
//! `bench_solver`'s `bank_eval` section, which times the bank as the
//! lane engine runs it (blocks of transistor slots) and gates it.

use criterion::{criterion_group, criterion_main, Criterion};
use rotsv::num::sparse::{BatchedLu, SparseLu, SparseMatrix, SymbolicLu};
use std::sync::Arc;

/// Tridiagonal-plus-border MNA pattern (RC ladder), as in spice_kernels.
fn ladder(n: usize) -> SparseMatrix {
    let dim = n + 1;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 2e-2));
        if i + 1 < n {
            t.push((i, i + 1, -1e-2));
            t.push((i + 1, i, -1e-2));
        }
    }
    t.push((0, n, 1.0));
    t.push((n, 0, 1.0));
    SparseMatrix::from_triplets(dim, &t)
}

fn bench_batched_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_lu");
    let a = ladder(64);
    let nnz = a.values().len();
    let dim = a.dim();
    for k in [1usize, 4, 8, 16, 32, 64] {
        // Lane-interleaved values: lane j scaled by (1 + j/16), the kind
        // of spread process variation produces.
        let mut values = vec![0.0; nnz * k];
        for (s, &v) in a.values().iter().enumerate() {
            for lane in 0..k {
                values[s * k + lane] = v * (1.0 + lane as f64 / 16.0);
            }
        }
        let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
        let mut lu = BatchedLu::new(Arc::clone(&sym), k);
        let mut b = vec![1.0; dim * k];
        group.bench_function(format!("refactor_solve_k{k}"), |bench| {
            bench.iter(|| {
                lu.refactor(&a, std::hint::black_box(&values)).unwrap();
                b.fill(1.0);
                lu.solve_in_place(&mut b);
                b[0]
            })
        });
        let mut scalar_lus: Vec<SparseLu> = (0..k).map(|_| SparseLu::new(&a).unwrap()).collect();
        let rhs = vec![1.0; dim];
        group.bench_function(format!("scalar_refactor_solve_k{k}"), |bench| {
            bench.iter(|| {
                let mut acc = 0.0;
                for lu in scalar_lus.iter_mut() {
                    lu.refactor(std::hint::black_box(&a)).unwrap();
                    acc += lu.solve(&rhs).unwrap()[0];
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batched_lu);
criterion_main!(benches);
