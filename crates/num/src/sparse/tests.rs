use std::sync::Arc;

use crate::linsolve::SolveError;

use super::*;

fn residual_inf(a: &SparseMatrix, x: &[f64], b: &[f64]) -> f64 {
    a.mul_vec(x)
        .iter()
        .zip(b)
        .map(|(ax, b)| (ax - b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn from_coords_dedups_and_accumulates() {
    let coords = [(0, 0), (1, 1), (0, 0), (0, 1)];
    let (mut m, slots) = SparseMatrix::from_coords(2, &coords);
    assert_eq!(m.nnz(), 3);
    assert_eq!(slots[0], slots[2]);
    m.add_slot(slots[0], 1.0);
    m.add_slot(slots[2], 2.0);
    assert_eq!(m.get(0, 0), 3.0);
    assert_eq!(m.get(1, 0), 0.0);
}

#[test]
fn mul_vec_matches_dense() {
    let m = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, -1.0),
            (2, 0, 3.0),
            (2, 2, 4.0),
        ],
    );
    let x = [1.0, 2.0, 3.0];
    assert_eq!(m.mul_vec(&x), m.to_dense().mul_vec(&x));
}

#[test]
fn lu_solves_mna_like_system() {
    // A voltage-divider MNA shape: conductances plus a vsource branch
    // (zero diagonal — exercises pivoting).
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let mut lu = SparseLu::new(&a).unwrap();
    let b = [0.0, 0.0, 2.0];
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a, &x, &b) < 1e-12);
    assert!((x[0] - 2.0).abs() < 1e-9);
    assert!((x[1] - 1.0).abs() < 1e-9);

    // Refactor with changed conductances, same pattern.
    let a2 = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 3e-3),
            (0, 1, -2e-3),
            (0, 2, 1.0),
            (1, 0, -2e-3),
            (1, 1, 3e-3),
            (2, 0, 1.0),
        ],
    );
    assert!(!lu.refactor(&a2).unwrap());
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a2, &x, &b) < 1e-12);
}

#[test]
fn btf_exposes_block_structure() {
    // The vsource MNA shape condenses into three 1×1 blocks: only the
    // diagonal blocks factor, the couplings stay in the off storage.
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let sym = SymbolicLu::analyze(&a).unwrap();
    assert_eq!(sym.block_count(), 3);
    assert_eq!(sym.max_block_dim(), 1);
    assert!(sym.lu_nnz() >= a.nnz());

    // A strongly coupled arrow pattern is one irreducible block.
    let n = 5;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0));
        if i + 1 < n {
            t.push((i, n - 1, 1.0));
            t.push((n - 1, i, 1.0));
        }
    }
    let arrow = SparseMatrix::from_triplets(n, &t);
    let sym = SymbolicLu::analyze(&arrow).unwrap();
    assert_eq!(sym.block_count(), 1);
    assert_eq!(sym.max_block_dim(), n);
    // Min-degree eliminates the spokes first, so the arrow factors with
    // no fill at all.
    assert_eq!(sym.lu_nnz(), arrow.nnz());
}

#[test]
fn natural_ordering_still_solves() {
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let opts = AnalyzeOptions {
        ordering: OrderingStrategy::Natural,
        scaling: Scaling::Off,
    };
    let mut lu = SparseLu::new_with(&a, opts).unwrap();
    assert_eq!(lu.symbolic().block_count(), 1);
    assert_eq!(lu.symbolic().options(), opts);
    let b = [0.0, 0.0, 2.0];
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a, &x, &b) < 1e-12);
    // Pivot-drift fallbacks preserve the options.
    assert!(!lu.refactor(&a).unwrap());
    assert_eq!(lu.symbolic().options(), opts);
}

#[test]
fn badly_scaled_rows_are_equilibrated() {
    // Rows straddling 18 decades: Auto scaling must engage, and the
    // solve must still recover the exact-ish solution.
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 3e9),
            (0, 1, 1e9),
            (1, 0, 1e-9),
            (1, 1, 2e-9),
            (1, 2, 1e-9),
            (2, 2, 5e-1),
        ],
    );
    let lu = SparseLu::new(&a).unwrap();
    assert!(lu.symbolic().is_scaled());
    let x_true = [1.0, -2.0, 3.0];
    let b = a.mul_vec(&x_true);
    let x = lu.solve(&b).unwrap();
    for (got, want) in x.iter().zip(&x_true) {
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }
    // Scaling::Off on the same matrix still works (pivoting handles it).
    let opts = AnalyzeOptions {
        scaling: Scaling::Off,
        ..AnalyzeOptions::default()
    };
    let lu = SparseLu::new_with(&a, opts).unwrap();
    assert!(!lu.symbolic().is_scaled());
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a, &x, &b) < 1e-6);
}

#[test]
fn refactor_falls_back_on_pivot_drift() {
    // First values make (0,0) the natural pivot; the second set zeroes
    // it, forcing the reused order to fail and re-analyze.
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let mut lu = SparseLu::new(&a).unwrap();
    let drifted =
        SparseMatrix::from_triplets(2, &[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let reanalyzed = lu.refactor(&drifted).unwrap();
    assert!(reanalyzed);
    let x = lu.solve(&[1.0, 2.0]).unwrap();
    assert!(residual_inf(&drifted, &x, &[1.0, 2.0]) < 1e-12);
}

#[test]
fn singular_matrix_is_reported() {
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)]);
    assert!(matches!(
        SparseLu::new(&a),
        Err(SolveError::Singular { .. })
    ));
}

#[test]
fn structurally_singular_matrix_is_reported() {
    // Column 1 carries no entries: the BTF matching fails before any
    // numeric work happens.
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 0, 2.0)]);
    assert!(matches!(
        SymbolicLu::analyze(&a),
        Err(SolveError::Singular { .. })
    ));
}

#[test]
fn fill_in_is_handled() {
    // Arrow matrix: dense last row/col creates fill during elimination.
    let n = 6;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0 + i as f64));
        if i + 1 < n {
            t.push((i, n - 1, 1.0));
            t.push((n - 1, i, 1.0));
        }
    }
    let a = SparseMatrix::from_triplets(n, &t);
    let mut lu = SparseLu::new(&a).unwrap();
    let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a, &x, &b) < 1e-12);
    assert!(lu.lu_nnz() >= a.nnz());
    // Refactor with perturbed values still solves tightly.
    let t2: Vec<(usize, usize, f64)> = t.iter().map(|&(i, j, v)| (i, j, v * 1.5 + 0.1)).collect();
    let a2 = SparseMatrix::from_triplets(n, &t2);
    lu.refactor(&a2).unwrap();
    let x = lu.solve(&b).unwrap();
    assert!(residual_inf(&a2, &x, &b) < 1e-12);
}

#[test]
fn permuted_inputs_solve_like_dense() {
    // A block system presented in scrambled order: BTF must untangle it
    // and agree with the dense reference solve.
    let t = [
        (0, 3, 2.0),
        (3, 0, 1.5),
        (3, 3, 0.5),
        (0, 0, 3.0),
        (1, 1, 4.0),
        (1, 4, 1.0),
        (4, 4, 2.5),
        (2, 2, 1.0),
        (4, 2, 0.25),
    ];
    let a = SparseMatrix::from_triplets(5, &t);
    let lu = SparseLu::new(&a).unwrap();
    let b = [1.0, -2.0, 0.5, 3.0, 0.25];
    let x = lu.solve(&b).unwrap();
    let dense = crate::linsolve::LuFactors::factor(a.to_dense()).unwrap();
    let want = dense.solve(&b).unwrap();
    for (got, want) in x.iter().zip(&want) {
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }
}

#[test]
fn dimension_mismatch_is_reported() {
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
    let mut lu = SparseLu::new(&a).unwrap();
    assert!(matches!(
        lu.solve(&[1.0]),
        Err(SolveError::DimensionMismatch {
            expected: 2,
            actual: 1
        })
    ));
    let b = SparseMatrix::from_triplets(3, &[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
    assert!(matches!(
        lu.refactor(&b),
        Err(SolveError::DimensionMismatch {
            expected: 2,
            actual: 3
        })
    ));
}

#[test]
fn stats_merge_accumulates() {
    let mut s = SolverStats::default();
    s.merge(&SolverStats {
        factorizations: 2,
        newton_iterations: 5,
        wall_seconds: 0.5,
        ..SolverStats::default()
    });
    s.merge(&SolverStats {
        factorizations: 1,
        steps_rejected: 3,
        wall_seconds: 0.25,
        ..SolverStats::default()
    });
    assert_eq!(s.factorizations, 3);
    assert_eq!(s.newton_iterations, 5);
    assert_eq!(s.steps_rejected, 3);
    assert!((s.wall_seconds - 0.75).abs() < 1e-12);
}

#[test]
fn symbolic_cache_counts_one_analysis_per_topology() {
    let cache = SymbolicCache::new();
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    // Same pattern, different values — as a second die would assemble.
    let mut a2 = a.clone();
    a2.zero_values();
    for s in 0..a.nnz() {
        a2.add_slot(s, a.values()[s] * 1.3);
    }
    let (lu, n1) = cache.factor(&a).unwrap();
    let (lu2, n2) = cache.factor(&a2).unwrap();
    assert_eq!((n1, n2), (1, 0), "second factor must hit the cache");
    assert_eq!(cache.len(), 1);
    assert!(Arc::ptr_eq(lu.symbolic(), lu2.symbolic()));
    let b = [0.0, 0.0, 2.0];
    assert!(residual_inf(&a, &lu.solve(&b).unwrap(), &b) < 1e-12);
    assert!(residual_inf(&a2, &lu2.solve(&b).unwrap(), &b) < 1e-12);

    // A different topology gets its own analysis.
    let c = SparseMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0)]);
    let (_, n3) = cache.factor(&c).unwrap();
    assert_eq!(n3, 1);
    assert_eq!(cache.len(), 2);
}

#[test]
fn symbolic_cache_keys_include_options() {
    // One topology, two option sets: the cache must keep them apart so a
    // Natural-order analysis can never serve a BTF request (their
    // patterns differ).
    let cache = SymbolicCache::new();
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let natural = AnalyzeOptions {
        ordering: OrderingStrategy::Natural,
        scaling: Scaling::Off,
    };
    let (sym_default, n1) = cache.symbolic_for(&a).unwrap();
    let (sym_natural, n2) = cache.symbolic_for_with(&a, natural).unwrap();
    assert_eq!((n1, n2), (true, true), "distinct keys, distinct analyses");
    assert_eq!(cache.len(), 2);
    assert!(!Arc::ptr_eq(&sym_default, &sym_natural));
    // Re-requesting either option set hits its own entry.
    let (again, analyzed) = cache.symbolic_for_with(&a, natural).unwrap();
    assert!(!analyzed);
    assert!(Arc::ptr_eq(&again, &sym_natural));
}

#[test]
fn symbolic_cache_reanalyzes_when_shared_pivots_fail() {
    // First matrix pivots naturally at (0,0); the second zeroes that
    // entry so the cached order is unusable and a private analysis
    // (counted, not cached) must take over.
    let cache = SymbolicCache::new();
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let (_, n1) = cache.factor(&a).unwrap();
    let drifted =
        SparseMatrix::from_triplets(2, &[(0, 0, 0.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let (lu, n2) = cache.factor(&drifted).unwrap();
    assert_eq!((n1, n2), (1, 1), "hit + pivot fallback = one analysis");
    assert_eq!(cache.len(), 1, "fallback analysis must not poison cache");
    let x = lu.solve(&[1.0, 2.0]).unwrap();
    assert!(residual_inf(&drifted, &x, &[1.0, 2.0]) < 1e-12);
}

#[test]
fn cached_factor_matches_fresh_factor_bitwise() {
    // `with_symbolic` over a cached analysis must produce the same
    // factors a fresh `SparseLu::new` would — the bit-neutrality the
    // scalar engine's per-measurement sharing relies on.
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let cache = SymbolicCache::new();
    cache.symbolic_for(&a).unwrap();
    let (cached, _) = cache.factor(&a).unwrap();
    let fresh = SparseLu::new(&a).unwrap();
    let b = [0.25, -1.5, 3.0];
    assert_eq!(
        cached.solve(&b).unwrap(),
        fresh.solve(&b).unwrap(),
        "shared symbolic analysis must be bit-neutral"
    );
}

#[test]
fn mul_vec_lanes_matches_scalar_mul_vec() {
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2.0),
            (0, 2, -1.0),
            (1, 1, 3.0),
            (2, 0, 0.5),
            (2, 2, 4.0),
        ],
    );
    let k = 2;
    let scale = [1.0, -0.3];
    let mut vals = Vec::with_capacity(a.nnz() * k);
    for s in 0..a.nnz() {
        for &sc in &scale {
            vals.push(a.values()[s] * sc);
        }
    }
    let x = [1.0, -2.0, 0.25];
    let xi: Vec<f64> = x.iter().flat_map(|&v| vec![v, 2.0 * v]).collect();
    let mut y = vec![0.0; 3 * k];
    a.mul_vec_lanes_into(&vals, k, &xi, &mut y);
    let y0 = a.mul_vec(&x);
    for i in 0..3 {
        assert!((y[i * k] - y0[i] * scale[0]).abs() < 1e-15);
        assert!((y[i * k + 1] - y0[i] * scale[1] * 2.0).abs() < 1e-15);
    }
}

#[test]
fn batched_lu_matches_per_lane_scalar_lu() {
    // MNA-shaped system with fill, three lanes of perturbed values.
    let n = 6;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0 + i as f64));
        if i + 1 < n {
            t.push((i, n - 1, 1.0));
            t.push((n - 1, i, 1.0));
        }
    }
    let a = SparseMatrix::from_triplets(n, &t);
    let k = 3;
    let scale = [1.0, 1.07, 0.91];
    let mut vals = Vec::with_capacity(a.nnz() * k);
    for s in 0..a.nnz() {
        for &sc in &scale {
            vals.push(a.values()[s] * sc);
        }
    }
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let mut blu = BatchedLu::new(Arc::clone(&sym), k);
    assert_eq!(blu.refactor(&a, &vals).unwrap(), 0);

    let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
    let mut bb: Vec<f64> = b.iter().flat_map(|&v| vec![v; k]).collect();
    blu.solve_in_place(&mut bb);

    for (lane, sc) in scale.iter().enumerate() {
        let mut al = a.clone();
        al.zero_values();
        for s in 0..a.nnz() {
            al.add_slot(s, a.values()[s] * sc);
        }
        let lu = SparseLu::with_symbolic(Arc::clone(&sym), &al).unwrap();
        let want = lu.solve(&b).unwrap();
        for i in 0..n {
            assert!(
                (bb[i * k + lane] - want[i]).abs() < 1e-12,
                "lane {lane} row {i}: {} vs {}",
                bb[i * k + lane],
                want[i]
            );
        }
    }
}

/// Fixed lane widths and run-time ones (11, 12 and 24, which reach the
/// scalar, AVX2 and AVX-512 arms of the run-time body) must produce the
/// same solutions: the dispatch arm is a codegen choice, not a
/// numerical one.
#[test]
fn batched_lu_widths_match_per_lane_scalar_lu() {
    let n = 6;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0 + i as f64));
        if i + 1 < n {
            t.push((i, n - 1, 1.0));
            t.push((n - 1, i, 1.0));
        }
    }
    let a = SparseMatrix::from_triplets(n, &t);
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
    for k in [1usize, 2, 4, 8, 12, 16, 24, 11] {
        let scale: Vec<f64> = (0..k).map(|l| 1.0 + 0.03 * l as f64).collect();
        let mut vals = Vec::with_capacity(a.nnz() * k);
        for s in 0..a.nnz() {
            for &sc in &scale {
                vals.push(a.values()[s] * sc);
            }
        }
        let mut blu = BatchedLu::new(Arc::clone(&sym), k);
        assert_eq!(blu.refactor(&a, &vals).unwrap(), 0);
        let mut bb: Vec<f64> = b.iter().flat_map(|&v| vec![v; k]).collect();
        blu.solve_in_place(&mut bb);
        for (lane, sc) in scale.iter().enumerate() {
            let mut al = a.clone();
            al.zero_values();
            for s in 0..a.nnz() {
                al.add_slot(s, a.values()[s] * sc);
            }
            let lu = SparseLu::with_symbolic(Arc::clone(&sym), &al).unwrap();
            let want = lu.solve(&b).unwrap();
            for i in 0..n {
                assert!(
                    (bb[i * k + lane] - want[i]).abs() < 1e-12,
                    "k {k} lane {lane} row {i}: {} vs {}",
                    bb[i * k + lane],
                    want[i]
                );
            }
        }
    }
}

#[test]
fn batched_lu_handles_multi_block_systems() {
    // The vsource MNA shape (three BTF blocks, off-block couplings) in
    // lanes: the batched path must exercise the off storage and agree
    // with the scalar solver per lane.
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 2e-3),
            (0, 1, -1e-3),
            (0, 2, 1.0),
            (1, 0, -1e-3),
            (1, 1, 2e-3),
            (2, 0, 1.0),
        ],
    );
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    assert!(sym.block_count() > 1, "shape must exercise the BTF path");
    let k = 4;
    let scale = [1.0, 1.1, 0.9, 1.25];
    let mut vals = Vec::with_capacity(a.nnz() * k);
    for s in 0..a.nnz() {
        for &sc in &scale {
            vals.push(a.values()[s] * sc);
        }
    }
    let mut blu = BatchedLu::new(Arc::clone(&sym), k);
    assert_eq!(blu.refactor(&a, &vals).unwrap(), 0);
    let b = [0.0, 0.0, 2.0];
    let mut bb: Vec<f64> = b.iter().flat_map(|&v| vec![v; k]).collect();
    blu.solve_in_place(&mut bb);
    for (lane, sc) in scale.iter().enumerate() {
        let mut al = a.clone();
        al.zero_values();
        for s in 0..a.nnz() {
            al.add_slot(s, a.values()[s] * sc);
        }
        let lu = SparseLu::with_symbolic(Arc::clone(&sym), &al).unwrap();
        let want = lu.solve(&b).unwrap();
        for i in 0..3 {
            assert!(
                (bb[i * k + lane] - want[i]).abs() < 1e-12,
                "lane {lane} row {i}"
            );
        }
    }
}

#[test]
fn batched_lu_reanalyzes_from_the_offending_lane() {
    // Lane 1 zeroes the entry the shared pivot order leads with; the
    // batch must re-analyze once and still solve every lane.
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let k = 2;
    let lane_vals = [[5.0, 1.0, 1.0, 0.1], [0.0, 1.0, 1.0, 0.1]];
    let vals: Vec<f64> = (0..a.nnz())
        .flat_map(|s| (0..k).map(move |lane| lane_vals[lane][s]))
        .collect();
    let mut blu = BatchedLu::new(sym, k);
    let analyses = blu.refactor(&a, &vals).unwrap();
    assert_eq!(analyses, 1);

    let rhs = [1.0, 2.0];
    let mut bb: Vec<f64> = rhs.iter().flat_map(|&v| vec![v; k]).collect();
    blu.solve_in_place(&mut bb);
    for lane in 0..k {
        let al = SparseMatrix::from_triplets(
            2,
            &[
                (0, 0, lane_vals[lane][0]),
                (0, 1, lane_vals[lane][1]),
                (1, 0, lane_vals[lane][2]),
                (1, 1, lane_vals[lane][3]),
            ],
        );
        let x: Vec<f64> = (0..2).map(|i| bb[i * k + lane]).collect();
        assert!(residual_inf(&al, &x, &rhs) < 1e-12, "lane {lane}");
    }
}

/// A masked, lane-at-a-time refactor must store bit-identical factors
/// to one full-batch sweep of the same values — this is what lets the
/// asynchronous engine refresh lanes at different iterations without
/// perturbing their trajectories.
#[test]
fn masked_refactor_is_bit_identical_to_full_refactor() {
    let n = 6;
    let mut t = Vec::new();
    for i in 0..n {
        t.push((i, i, 4.0 + i as f64));
        if i + 1 < n {
            t.push((i, n - 1, 1.0));
            t.push((n - 1, i, 1.0));
        }
    }
    let a = SparseMatrix::from_triplets(n, &t);
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
    for k in [1usize, 3, 4, 16] {
        let scale: Vec<f64> = (0..k).map(|l| 1.0 + 0.03 * l as f64).collect();
        let mut vals = Vec::with_capacity(a.nnz() * k);
        for s in 0..a.nnz() {
            for &sc in &scale {
                vals.push(a.values()[s] * sc);
            }
        }
        let mut full = BatchedLu::new(Arc::clone(&sym), k);
        assert_eq!(full.refactor(&a, &vals).unwrap(), 0);
        let mut masked = BatchedLu::new(Arc::clone(&sym), k);
        // Refresh lanes one at a time, in scrambled order.
        for lane in (0..k).rev() {
            let mut mask = vec![false; k];
            mask[lane] = true;
            let (analyses, invalidated) = masked.refactor_masked(&a, &vals, &mask).unwrap();
            assert_eq!(analyses, 0);
            assert!(!invalidated);
        }
        let mut x_full: Vec<f64> = b.iter().flat_map(|&v| vec![v; k]).collect();
        let mut x_masked = x_full.clone();
        full.solve_in_place(&mut x_full);
        masked.solve_in_place(&mut x_masked);
        assert_eq!(x_full, x_masked, "k {k}: masked factors drifted");
    }
}

/// Same bit-identity contract, but over a multi-block BTF system with
/// off-block storage and active scaling — the paths the staged kernel
/// added on top of the classic sweep.
#[test]
fn masked_refactor_is_bit_identical_on_scaled_blocks() {
    let a = SparseMatrix::from_triplets(
        3,
        &[
            (0, 0, 3e9),
            (0, 1, 1e9),
            (1, 0, 1e-9),
            (1, 1, 2e-9),
            (1, 2, 1e-9),
            (2, 2, 5e-1),
        ],
    );
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    assert!(sym.is_scaled());
    for k in [2usize, 5] {
        let scale: Vec<f64> = (0..k).map(|l| 1.0 + 0.11 * l as f64).collect();
        let mut vals = Vec::with_capacity(a.nnz() * k);
        for s in 0..a.nnz() {
            for &sc in &scale {
                vals.push(a.values()[s] * sc);
            }
        }
        let mut full = BatchedLu::new(Arc::clone(&sym), k);
        assert_eq!(full.refactor(&a, &vals).unwrap(), 0);
        let mut masked = BatchedLu::new(Arc::clone(&sym), k);
        for lane in 0..k {
            let mut mask = vec![false; k];
            mask[lane] = true;
            let (analyses, invalidated) = masked.refactor_masked(&a, &vals, &mask).unwrap();
            assert_eq!((analyses, invalidated), (0, false));
        }
        let b = [1.0, -0.5, 2.0];
        let mut x_full: Vec<f64> = b.iter().flat_map(|&v| vec![v; k]).collect();
        let mut x_masked = x_full.clone();
        full.solve_in_place(&mut x_full);
        masked.solve_in_place(&mut x_masked);
        assert_eq!(x_full, x_masked, "k {k}: masked factors drifted");
    }
}

/// Pivot drift in a masked lane forces a shared re-analysis, which the
/// call must report so the caller can refresh the unmasked lanes.
#[test]
fn masked_refactor_reports_invalidation_on_reanalysis() {
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 0.1)]);
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let k = 2;
    let lane_vals = [[5.0, 1.0, 1.0, 0.1], [0.0, 1.0, 1.0, 0.1]];
    let vals: Vec<f64> = (0..a.nnz())
        .flat_map(|s| (0..k).map(move |lane| lane_vals[lane][s]))
        .collect();
    let mut blu = BatchedLu::new(sym, k);
    // Lane 0 factors fine under the original order.
    let (analyses, invalidated) = blu.refactor_masked(&a, &vals, &[true, false]).unwrap();
    assert_eq!((analyses, invalidated), (0, false));
    // Lane 1 needs a new pivot order: lane 0's factors are now gone.
    let (analyses, invalidated) = blu.refactor_masked(&a, &vals, &[false, true]).unwrap();
    assert_eq!(analyses, 1);
    assert!(invalidated);
    // Refreshing lane 0 under the new order restores a solvable batch.
    let (analyses, _) = blu.refactor_masked(&a, &vals, &[true, false]).unwrap();
    assert_eq!(analyses, 0);
    let rhs = [1.0, 2.0];
    let mut bb: Vec<f64> = rhs.iter().flat_map(|&v| vec![v; k]).collect();
    blu.solve_in_place(&mut bb);
    for lane in 0..k {
        let al = SparseMatrix::from_triplets(
            2,
            &[
                (0, 0, lane_vals[lane][0]),
                (0, 1, lane_vals[lane][1]),
                (1, 0, lane_vals[lane][2]),
                (1, 1, lane_vals[lane][3]),
            ],
        );
        let x: Vec<f64> = (0..2).map(|i| bb[i * k + lane]).collect();
        assert!(residual_inf(&al, &x, &rhs) < 1e-12, "lane {lane}");
    }
}

#[test]
fn batched_lu_reports_singular_lane() {
    let a = SparseMatrix::from_triplets(2, &[(0, 0, 3.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0)]);
    // Lane 0 is fine (identity-ish), lane 1 is genuinely singular.
    let lane_vals = [[1.0, 0.0, 0.0, 1.0], [1.0, 2.0, 2.0, 4.0]];
    let vals: Vec<f64> = (0..a.nnz())
        .flat_map(|s| (0..2).map(move |lane| lane_vals[lane][s]))
        .collect();
    let sym = Arc::new(SymbolicLu::analyze(&a).unwrap());
    let mut blu = BatchedLu::new(sym, 2);
    assert!(matches!(
        blu.refactor(&a, &vals),
        Err(SolveError::Singular { .. })
    ));
}
