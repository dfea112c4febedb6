//! A minimal row-major dense tensor.

/// A dense, row-major `f32` tensor.
///
/// Feature maps use `[height, width, channels]` layout; flattened vectors
/// use `[n]`. The engine only needs these two ranks, but arbitrary ranks are
/// supported.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        assert!(!shape.is_empty(), "tensor needs at least one dimension");
        assert!(
            shape.iter().all(|&d| d > 0),
            "zero-sized dimension in {shape:?}"
        );
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if the data length does not match the shape's element count.
    pub fn from_vec(shape: impl Into<Vec<usize>>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `[h, w, c]` of a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or the index is out of bounds.
    #[inline]
    pub fn at3(&self, h: usize, w: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (hh, ww, cc) = (self.shape[0], self.shape[1], self.shape[2]);
        debug_assert!(h < hh && w < ww && c < cc);
        self.data[(h * ww + w) * cc + c]
    }

    /// Mutable element at `[h, w, c]` of a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or the index is out of bounds.
    #[inline]
    pub fn at3_mut(&mut self, h: usize, w: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (_, ww, cc) = (self.shape[0], self.shape[1], self.shape[2]);
        &mut self.data[(h * ww + w) * cc + c]
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty (cannot happen after construction).
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate().skip(1) {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// In-place element-wise addition of `other` scaled by `k`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, k: f32) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add_scaled");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += k * b;
        }
    }

    /// Fills the tensor with zeros.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Reshapes a reusable buffer to `shape` for overwriting: capacity is
    /// kept, so a buffer that has seen the shape before does not allocate.
    /// Elements keep stale values; callers either overwrite every element
    /// or call [`Tensor::fill_zero`] first.
    pub(crate) fn reset(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// Makes this buffer a copy of `other` without giving up its capacity.
    pub(crate) fn copy_from(&mut self, other: &Tensor) {
        self.reset(&other.shape);
        self.data.copy_from_slice(&other.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_size() {
        let t = Tensor::zeros([3, 4, 2]);
        assert_eq!(t.len(), 24);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "zero-sized dimension")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros([3, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Tensor::from_vec([2, 2], vec![1.0; 5]);
    }

    #[test]
    fn at3_row_major_layout() {
        let t = Tensor::from_vec([2, 2, 2], (0..8).map(|i| i as f32).collect());
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(0, 0, 1), 1.0);
        assert_eq!(t.at3(0, 1, 0), 2.0);
        assert_eq!(t.at3(1, 0, 0), 4.0);
        assert_eq!(t.at3(1, 1, 1), 7.0);
    }

    #[test]
    fn at3_mut_writes_through() {
        let mut t = Tensor::zeros([2, 2, 1]);
        *t.at3_mut(1, 0, 0) = 5.0;
        assert_eq!(t.at3(1, 0, 0), 5.0);
        assert_eq!(t.data()[2], 5.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_vec([4], vec![1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec([3], vec![1.0, 1.0, 1.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[1.5, 2.5, 3.5]);
    }
}
