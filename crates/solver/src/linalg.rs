//! Small dense linear algebra: just enough to run Levenberg–Marquardt on
//! problems with a few dozen parameters (the K-space fit has ~22, the
//! VR-space mapping fit has 12).

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> DMat {
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies another matrix's contents into this one without reallocating.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &DMat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from dimension mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Computes `AᵀA` (the Gauss–Newton normal matrix) into a caller-owned
    /// `cols × cols` matrix, so iterative solvers can reuse one allocation.
    /// Each entry sums its rows' products in row order, skipping the rows
    /// whose left factor is zero; the inner loop runs over slices, so it
    /// vectorizes without changing a bit.
    ///
    /// # Panics
    /// Panics if `g` is not `cols × cols`.
    pub fn gram_into(&self, g: &mut DMat) {
        let n = self.cols;
        assert_eq!((g.rows, g.cols), (n, n), "gram_into dimension mismatch");
        g.data.fill(0.0);
        if n == 0 {
            return;
        }
        for row in self.data.chunks_exact(n) {
            for (i, (&ri, g_row)) in row.iter().zip(g.data.chunks_exact_mut(n)).enumerate() {
                if ri == 0.0 {
                    continue;
                }
                for (gij, &rj) in g_row[i..].iter_mut().zip(&row[i..]) {
                    *gij += ri * rj;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g.data[i * n + j] = g.data[j * n + i];
            }
        }
    }

    /// Computes `Aᵀb` into a caller-owned vector: each entry sums its rows'
    /// products in row order, skipping zero entries of `b`.
    ///
    /// # Panics
    /// Panics if `b.len() != rows` or `out.len() != cols`.
    pub fn t_mul_vec_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.rows);
        assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        if self.cols == 0 {
            return;
        }
        for (row, &br) in self.data.chunks_exact(self.cols).zip(b) {
            if br == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * br;
            }
        }
    }

    /// Solves `A·x = b` in place by Gaussian elimination with partial
    /// pivoting: `x` holds `b` on entry and the solution on exit (its
    /// contents are unspecified when `false` — singular — is returned). The
    /// matrix is destroyed (reduced) but its allocation stays with the
    /// caller, so iterative solvers can refill and re-solve without churning
    /// the allocator. Row updates run over slices; every entry takes the
    /// operations of the textbook indexed loops in the same order.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `x.len() != rows`.
    pub fn solve_in_place(&mut self, x: &mut [f64]) -> bool {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(x.len(), self.rows);
        let n = self.rows;
        let a = &mut self.data;

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return false;
            }
            let (upper, lower) = a.split_at_mut((col + 1) * n);
            let pivot_row = &mut upper[col * n + col..];
            if pivot != col {
                let other = &mut lower[(pivot - col - 1) * n..][col..n];
                pivot_row.swap_with_slice(other);
                x.swap(pivot, col);
            }
            let (diag, pivot_rest) = (pivot_row[0], &pivot_row[1..]);
            let (x_col, x_lower) = x[col..].split_first_mut().expect("col < n");
            for (row, xr) in lower.chunks_exact_mut(n).zip(x_lower) {
                let factor = row[col] / diag;
                if factor == 0.0 {
                    continue;
                }
                row[col] = 0.0;
                for (v, &p) in row[col + 1..].iter_mut().zip(pivot_rest) {
                    *v -= factor * p;
                }
                *xr -= factor * *x_col;
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let row = &a[col * n..(col + 1) * n];
            let mut s = x[col];
            for (v, xc) in row[col + 1..].iter().zip(&x[col + 1..]) {
                s -= v * xc;
            }
            x[col] = s / row[col];
        }
        true
    }
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> DMat {
        assert_eq!(data.len(), rows * cols, "dimension mismatch");
        DMat { rows, cols, data }
    }

    fn solve(mut a: DMat, b: &[f64]) -> Option<Vec<f64>> {
        let mut x = b.to_vec();
        a.solve_in_place(&mut x).then_some(x)
    }

    /// `A·x`, the oracle the solve tests multiply back through.
    fn mul_vec(a: &DMat, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), a.cols);
        (0..a.rows)
            .map(|r| a.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// The indexed `AᵀA` loop [`DMat::gram_into`] replaced: the reference
    /// its slice loop must match bit for bit.
    fn gram_reference(a: &DMat, g: &mut DMat) {
        let n = a.cols;
        g.data.fill(0.0);
        for r in 0..a.rows {
            let row = a.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
    }

    /// The indexed `Aᵀb` loop [`DMat::t_mul_vec_into`] replaced.
    fn t_mul_vec_reference(a: &DMat, b: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (r, &br) in b.iter().enumerate() {
            if br == 0.0 {
                continue;
            }
            for c in 0..a.cols {
                out[c] += a[(r, c)] * br;
            }
        }
    }

    /// The indexed elimination [`DMat::solve_in_place`] replaced.
    fn solve_reference(a: &mut DMat, x: &mut [f64]) -> bool {
        let n = a.rows;
        for col in 0..n {
            let mut pivot = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return false;
            }
            if pivot != col {
                a.data.swap(pivot * n + col, col * n + col);
                for c in (col + 1)..n {
                    a.data.swap(pivot * n + c, col * n + c);
                }
                x.swap(pivot, col);
            }
            let diag = a[(col, col)];
            for r in (col + 1)..n {
                let factor = a[(r, col)] / diag;
                if factor == 0.0 {
                    continue;
                }
                a[(r, col)] = 0.0;
                for c in (col + 1)..n {
                    let v = a[(col, c)];
                    a[(r, c)] -= factor * v;
                }
                x[r] -= factor * x[col];
            }
        }
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in (col + 1)..n {
                s -= a[(col, c)] * x[c];
            }
            x[col] = s / a[(col, col)];
        }
        true
    }

    /// A seeded stream of entries in `[−1, 1)` over six decades of scale,
    /// a quarter of them `±0.0`.
    fn entries(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            match (state >> 20) % 8 {
                0 => 0.0,
                1 => -0.0,
                k => u * 10f64.powi(k as i32 - 4),
            }
        }
    }

    fn random_matrix(rows: usize, cols: usize, next: &mut impl FnMut() -> f64) -> DMat {
        from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn slice_kernels_match_the_indexed_loops_bit_for_bit() {
        let mut next = entries(7);
        // The K-space Phase B shape (149 × 25), the mapping fit's (12
        // columns) and some small and degenerate ones.
        for (rows, cols) in [(149, 25), (72, 12), (3, 2), (1, 1), (0, 4), (5, 1), (9, 9)] {
            for _ in 0..4 {
                let a = random_matrix(rows, cols, &mut next);
                let (mut got, mut want) = (DMat::zeros(cols, cols), DMat::zeros(cols, cols));
                a.gram_into(&mut got);
                gram_reference(&a, &mut want);
                assert_eq!(bits(&got.data), bits(&want.data), "gram {rows}×{cols}");

                let b: Vec<f64> = (0..rows).map(|_| next()).collect();
                let (mut got, mut want) = (vec![1.0; cols], vec![2.0; cols]);
                a.t_mul_vec_into(&b, &mut got);
                t_mul_vec_reference(&a, &b, &mut want);
                assert_eq!(bits(&got), bits(&want), "Aᵀb {rows}×{cols}");
            }
        }
    }

    #[test]
    fn slice_solve_matches_the_indexed_elimination_bit_for_bit() {
        let mut next = entries(11);
        let mut swaps = 0;
        for n in [1, 2, 3, 6, 12, 25] {
            for k in 0..6 {
                let mut a = random_matrix(n, n, &mut next);
                match k {
                    // A zero diagonal: every column must pivot.
                    0 => (0..n).for_each(|i| a[(i, i)] = 0.0),
                    // Singular: the last row repeats the first.
                    1 if n > 1 => (0..n).for_each(|c| a[(n - 1, c)] = a[(0, c)]),
                    // Singular: an all-zero column.
                    2 => (0..n).for_each(|r| a[(r, n / 2)] = 0.0),
                    _ => {}
                }
                swaps += (0..n)
                    .filter(|&c| (c + 1..n).any(|r| a[(r, c)].abs() > a[(c, c)].abs()))
                    .count();
                let b: Vec<f64> = (0..n).map(|_| next()).collect();
                let (mut got_a, mut want_a) = (a.clone(), a.clone());
                let (mut got_x, mut want_x) = (b.clone(), b);
                let got = got_a.solve_in_place(&mut got_x);
                let want = solve_reference(&mut want_a, &mut want_x);
                assert_eq!(got, want, "n {n}, case {k}");
                assert_eq!(bits(&got_x), bits(&want_x), "x, n {n}, case {k}");
                assert_eq!(bits(&got_a.data), bits(&want_a.data), "A, n {n}, case {k}");
                if k == 2 {
                    assert!(!got, "a zero column is singular (n {n})");
                }
            }
        }
        assert!(swaps > 50, "{swaps} pivot swaps");
    }

    #[test]
    fn identity_solve() {
        let mut m = DMat::zeros(4, 4);
        for i in 0..4 {
            m[(i, i)] = 1.0;
        }
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve(m, &b).unwrap(), b);
    }

    #[test]
    fn known_system() {
        // 2x + y = 5; x + 3y = 10  →  x = 1, y = 3.
        let m = from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(m, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // First diagonal entry zero forces a row swap.
        let m = from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(m, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let m = from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(solve(m, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn random_system_roundtrip() {
        // Deterministic pseudo-random 6x6 system: check A·solve(A,b) == b.
        let n = 6;
        let mut seed = 42u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let data: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let a = from_vec(n, n, data);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(a.clone(), &b).expect("random matrix should be nonsingular");
        let bx = mul_vec(&a, &x);
        for i in 0..n {
            assert!((bx[i] - b[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    fn solve_in_place_reuses_storage_and_matches_solve() {
        let a = from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let expect = solve(a.clone(), &[5.0, 10.0]).unwrap();
        let mut scratch = DMat::zeros(2, 2);
        let mut x = [5.0, 10.0];
        scratch.copy_from(&a);
        assert!(scratch.solve_in_place(&mut x));
        assert_eq!(x.to_vec(), expect);
        // Refill and solve again with the same buffers.
        scratch.copy_from(&a);
        let mut y = [2.0, 3.0];
        assert!(scratch.solve_in_place(&mut y));
        let back = mul_vec(&a, &y);
        assert!((back[0] - 2.0).abs() < 1e-12 && (back[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gram_and_t_mul_vec() {
        // A = [[1,2],[3,4],[5,6]]
        let a = from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut g = DMat::zeros(2, 2);
        a.gram_into(&mut g);
        assert_eq!(g[(0, 0)], 35.0);
        assert_eq!(g[(0, 1)], 44.0);
        assert_eq!(g[(1, 0)], 44.0);
        assert_eq!(g[(1, 1)], 56.0);
        let mut atb = [0.0; 2];
        a.t_mul_vec_into(&[1.0, 1.0, 1.0], &mut atb);
        assert_eq!(atb, [9.0, 12.0]);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]);
        let y = mul_vec(&a, &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 8.0]);
    }
}
