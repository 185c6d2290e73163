//! Small dense-vector helpers shared across the workspace.

/// Dot product. Panics on length mismatch in debug builds.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// L1 (Manhattan) distance — the metric used in the paper's Table 3
/// clustering-effect microbenchmark.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Euclidean distance.
pub fn l2_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Cosine similarity; 0 when either vector is zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    let nb = norm2(b);
    if na < 1e-300 || nb < 1e-300 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// Normalizes a vector to unit L2 norm in place; zero vectors are left as-is.
pub fn normalize(a: &mut [f64]) {
    let n = norm2(a);
    if n > 1e-300 {
        for v in a {
            *v /= n;
        }
    }
}

/// Element-wise mean of several equal-length vectors; `None` when empty.
pub fn mean_vector<'a, I: IntoIterator<Item = &'a [f64]>>(vecs: I) -> Option<Vec<f64>> {
    let mut iter = vecs.into_iter();
    let first = iter.next()?;
    let mut acc = first.to_vec();
    let mut count = 1usize;
    for v in iter {
        debug_assert_eq!(v.len(), acc.len());
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += x;
        }
        count += 1;
    }
    for a in &mut acc {
        *a /= count as f64;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distances() {
        assert_eq!(l1_distance(&[0.0, 0.0], &[1.0, -2.0]), 3.0);
        assert!((l2_distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cosine() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![3.0, -1.0]);
    }

    #[test]
    fn normalize_unit() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm2(&v) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_vector_works() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let m = mean_vector([a.as_slice(), b.as_slice()]).unwrap();
        assert_eq!(m, vec![2.0, 3.0]);
        assert!(mean_vector(std::iter::empty::<&[f64]>()).is_none());
    }
}
