//! Tensor shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a dense, row-major tensor.
///
/// A scalar has an empty dims list; a vector has one dim; a conv weight has
/// four (`[out_channels, in_channels/groups, k, k]`). Shapes are value types
/// and compare structurally.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from a dims list.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// The scalar shape (rank 0, one element).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of dims; 1 for a scalar).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// [`Shape::numel`] for shapes read from untrusted bytes: `None` when
    /// the product overflows `usize`, instead of wrapping to a plausible
    /// count (dims `[1 << 32, 1 << 32]` would wrap to 0).
    pub fn checked_numel(&self) -> Option<usize> {
        self.0.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
    }

    /// Size of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Row-major strides for this shape (innermost stride is 1).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Flat row-major offset of a multi-index, or `None` if out of bounds.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.0.len() {
            return None;
        }
        let mut off = 0usize;
        let mut stride = 1usize;
        for d in (0..self.0.len()).rev() {
            if index[d] >= self.0[d] {
                return None;
            }
            off += index[d] * stride;
            stride *= self.0[d];
        }
        Some(off)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
    }

    #[test]
    fn numel_is_product_of_dims() {
        assert_eq!(Shape::from([2, 3, 4]).numel(), 24);
        assert_eq!(Shape::from([7]).numel(), 7);
        assert_eq!(Shape::from([2, 3, 4]).checked_numel(), Some(24));
        assert_eq!(Shape::scalar().checked_numel(), Some(1));
        assert_eq!(Shape::from([1 << 40, 1 << 40, 1 << 40]).checked_numel(), None);
    }

    #[test]
    fn strides_are_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
    }

    #[test]
    fn offset_maps_multi_index() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), Some(0));
        assert_eq!(s.offset(&[1, 2, 3]), Some(23));
        assert_eq!(s.offset(&[0, 1, 2]), Some(6));
    }

    #[test]
    fn offset_rejects_out_of_bounds_and_wrong_rank() {
        let s = Shape::from([2, 3]);
        assert_eq!(s.offset(&[2, 0]), None);
        assert_eq!(s.offset(&[0, 3]), None);
        assert_eq!(s.offset(&[0]), None);
        assert_eq!(s.offset(&[0, 0, 0]), None);
    }

    #[test]
    fn display_renders_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
