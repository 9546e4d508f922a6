//! Shape arithmetic: row-major strides, NumPy-style broadcasting, and index
//! decomposition used by every elementwise / reduction kernel.

/// Computes row-major (C-order) strides for `shape`.
///
/// The stride of axis `i` is the number of elements separating two values
/// that differ by one in coordinate `i`.
pub fn strides_for(shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0; shape.len()];
    let mut acc = 1usize;
    for i in (0..shape.len()).rev() {
        strides[i] = acc;
        acc *= shape[i];
    }
    strides
}

/// Total number of elements described by `shape`.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// NumPy-style broadcast of two shapes.
///
/// Shapes are aligned at their trailing axes; each axis pair must be equal or
/// one of them must be `1`. Returns `None` when the shapes are incompatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

/// Strides to iterate a tensor of shape `from` as if it had the (already
/// broadcast-compatible) shape `to`: broadcast axes get stride 0.
pub fn broadcast_strides(from: &[usize], to: &[usize]) -> Vec<usize> {
    debug_assert!(from.len() <= to.len());
    let base = strides_for(from);
    let offset = to.len() - from.len();
    let mut out = vec![0usize; to.len()];
    for i in 0..to.len() {
        if i < offset {
            out[i] = 0;
        } else {
            let d = from[i - offset];
            out[i] = if d == 1 { 0 } else { base[i - offset] };
        }
    }
    out
}

/// Decomposes a flat row-major index into multi-dimensional coordinates.
pub fn unravel(mut flat: usize, shape: &[usize], coords: &mut [usize]) {
    for i in (0..shape.len()).rev() {
        coords[i] = flat % shape[i];
        flat /= shape[i];
    }
}

/// Flattens multi-dimensional coordinates using the given strides.
pub fn ravel(coords: &[usize], strides: &[usize]) -> usize {
    coords.iter().zip(strides).map(|(c, s)| c * s).sum()
}

/// Element-by-element broadcast walk: visits every flat output index of
/// `shape`, yielding the corresponding flat offsets into two broadcast
/// operands.
///
/// `f(out_idx, a_idx, b_idx)` is called exactly `numel(shape)` times in
/// row-major order. The tensor kernels walk coalesced rows instead; this
/// is the reference their tests compare against.
pub fn for_each_broadcast2(
    shape: &[usize],
    a_strides: &[usize],
    b_strides: &[usize],
    mut f: impl FnMut(usize, usize, usize),
) {
    let n = numel(shape);
    let rank = shape.len();
    if rank == 0 {
        if n > 0 {
            f(0, 0, 0);
        }
        return;
    }
    let mut coords = vec![0usize; rank];
    let mut a_off = 0usize;
    let mut b_off = 0usize;
    for out in 0..n {
        f(out, a_off, b_off);
        // Increment coordinates (row-major), updating offsets incrementally.
        for axis in (0..rank).rev() {
            coords[axis] += 1;
            a_off += a_strides[axis];
            b_off += b_strides[axis];
            if coords[axis] < shape[axis] {
                break;
            }
            a_off -= shape[axis] * a_strides[axis];
            b_off -= shape[axis] * b_strides[axis];
            coords[axis] = 0;
        }
    }
}

/// Validates that `axis < rank`, with a readable panic otherwise.
pub fn check_axis(axis: usize, rank: usize) {
    assert!(axis < rank, "axis {axis} out of range for rank {rank}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides_for(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides_for(&[5]), vec![1]);
        assert_eq!(strides_for(&[]), Vec::<usize>::new());
    }

    #[test]
    fn numel_product() {
        assert_eq!(numel(&[2, 3, 4]), 24);
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[0, 3]), 0);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast_shapes(&[1], &[4, 5, 6]), Some(vec![4, 5, 6]));
        assert_eq!(broadcast_shapes(&[2, 3], &[3, 2]), None);
    }

    #[test]
    fn broadcast_strides_zeroed() {
        assert_eq!(broadcast_strides(&[2, 1], &[2, 3]), vec![1, 0]);
        assert_eq!(broadcast_strides(&[3], &[2, 3]), vec![0, 1]);
    }

    #[test]
    fn unravel_ravel_roundtrip() {
        let shape = [2, 3, 4];
        let strides = strides_for(&shape);
        let mut coords = [0usize; 3];
        for flat in 0..numel(&shape) {
            unravel(flat, &shape, &mut coords);
            assert_eq!(ravel(&coords, &strides), flat);
        }
    }

    #[test]
    fn broadcast_walk_matches_naive() {
        let a_shape = [2, 1, 3];
        let b_shape = [4, 1];
        let out = broadcast_shapes(&a_shape, &b_shape).unwrap();
        assert_eq!(out, vec![2, 4, 3]);
        let asrc = broadcast_strides(&a_shape, &out);
        let bsrc = broadcast_strides(&b_shape, &out);
        let mut seen = Vec::new();
        for_each_broadcast2(&out, &asrc, &bsrc, |o, a, b| seen.push((o, a, b)));
        assert_eq!(seen.len(), 24);
        // Spot-check: out coord (1, 2, 2) -> a coord (1, 0, 2) flat 5, b coord (2, 0) flat 2.
        let idx = 12 + 2 * 3 + 2;
        assert_eq!(seen[idx], (idx, 5, 2));
    }
}
