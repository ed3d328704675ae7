//! Dense row-major matrices.
//!
//! This is the storage type behind the neural-network library: a batch
//! of activations is a `(batch × features)` matrix, a dense layer's
//! weights are `(out × in)`. Only the operations the workspace actually
//! needs are provided. The dense layer's products are not among them:
//! they run as the SIMD lane kernels of `hybridem_nn::kernels`, which
//! read these row-major buffers in place.

use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::real::Real;

/// Dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Real> Matrix<T> {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds from nested rows (convenience for tests).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow of one row.
    #[inline(always)]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline(always)]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sets every element to zero (reusing the allocation).
    pub fn fill_zero(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Reshapes to `rows × cols` in place, reusing the backing
    /// allocation whenever its capacity suffices. Element values are
    /// unspecified afterwards — this is the scratch-buffer primitive of
    /// the allocation-free inference path, whose kernels overwrite
    /// every element before reading it.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, mut f: impl FnMut(T) -> T) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise binary combination into a new matrix.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Self, mut f: impl FnMut(T, T) -> T) -> Self {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Maximum absolute element (zero for an empty matrix).
    pub fn max_abs(&self) -> T {
        let mut m = T::ZERO;
        for &v in &self.data {
            m = m.maximum(v.abs());
        }
        m
    }
}

impl<T: Real> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl<T: Real> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl<T: ToJson> ToJson for Matrix<T> {
    fn to_json(&self) -> Json {
        Json::object([
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl<T: FromJson> FromJson for Matrix<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let rows = usize::from_json(v.field("rows")?)?;
        let cols = usize::from_json(v.field("cols")?)?;
        let data = Vec::<T>::from_json(v.field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(JsonError::new(format!(
                "matrix data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "matrix data length")]
    fn from_vec_length_checked() {
        let _ = Matrix::<f32>::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn max_abs_is_the_largest_magnitude() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(|x| x.abs()), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::<f64>::from_rows(&[&[3.0, 1.0]]);
        assert_eq!(
            a.zip_map(&b, |x, y| x + y),
            Matrix::from_rows(&[&[4.0, -1.0]])
        );
    }
}
