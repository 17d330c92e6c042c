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
    ///
    /// # Panics
    /// Panics if `g` is not `cols × cols`.
    pub fn gram_into(&self, g: &mut DMat) {
        let n = self.cols;
        assert_eq!((g.rows, g.cols), (n, n), "gram_into dimension mismatch");
        g.data.fill(0.0);
        for r in 0..self.rows {
            let row = self.row(r);
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
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
    }

    /// Computes `Aᵀb` into a caller-owned vector.
    ///
    /// # Panics
    /// Panics if `b.len() != rows` or `out.len() != cols`.
    pub fn t_mul_vec_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.rows);
        assert_eq!(out.len(), self.cols);
        out.fill(0.0);
        for (r, &br) in b.iter().enumerate() {
            if br == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += a * br;
            }
        }
    }

    /// Solves `A·x = b` in place by Gaussian elimination with partial
    /// pivoting: `x` holds `b` on entry and the solution on exit (its
    /// contents are unspecified when `false` — singular — is returned). The
    /// matrix is destroyed (reduced) but its allocation stays with the
    /// caller, so iterative solvers can refill and re-solve without churning
    /// the allocator.
    ///
    /// # Panics
    /// Panics if the matrix is not square or `x.len() != rows`.
    pub fn solve_in_place(&mut self, x: &mut [f64]) -> bool {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(x.len(), self.rows);
        let n = self.rows;

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = self[(col, col)].abs();
            for r in (col + 1)..n {
                let v = self[(r, col)].abs();
                if v > best {
                    best = v;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return false;
            }
            if pivot != col {
                self.data.swap(pivot * n + col, col * n + col);
                for c in (col + 1)..n {
                    self.data.swap(pivot * n + c, col * n + c);
                }
                x.swap(pivot, col);
            }
            let diag = self[(col, col)];
            for r in (col + 1)..n {
                let factor = self[(r, col)] / diag;
                if factor == 0.0 {
                    continue;
                }
                self[(r, col)] = 0.0;
                for c in (col + 1)..n {
                    let v = self[(col, c)];
                    self[(r, c)] -= factor * v;
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for c in (col + 1)..n {
                s -= self[(col, c)] * x[c];
            }
            x[col] = s / self[(col, col)];
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
