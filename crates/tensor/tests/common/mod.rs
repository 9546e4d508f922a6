//! Test data shared by the tensor crate's integration tests.

/// Deterministic test data with special values mixed in: NaN, ±inf,
/// signed zeros, a subnormal and the `-1e9` attention mask.
pub fn spiky_data(n: usize, seed: u32) -> Vec<f32> {
    const SPECIAL: [f32; 7] = [f32::NAN, f32::NEG_INFINITY, f32::INFINITY, -0.0, 0.0, 1e-45, -1e9];
    (0..n)
        .map(|i| {
            let k = i.wrapping_mul(2654435761).wrapping_add(seed as usize) % 11;
            if k == 3 {
                SPECIAL[(i / 11 + seed as usize) % SPECIAL.len()]
            } else {
                ((i as f32 + seed as f32) * 0.37).sin() * 3.0
            }
        })
        .collect()
}
