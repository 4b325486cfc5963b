//! Small numeric helpers shared by budgets and algorithms: iterated
//! logarithm, harmonic numbers, primes, and power-of-two utilities.

/// Iterated logarithm `log*₂(x)`: the number of times `log₂` must be applied
/// to `x` before the result is ≤ 1. `log_star(1) = 0`, `log_star(2) = 1`,
/// `log_star(16) = 3`, `log_star(65536) = 4`.
pub fn log_star(x: f64) -> u32 {
    let mut x = x;
    let mut k = 0;
    while x > 1.0 {
        x = x.log2();
        k += 1;
        if k > 128 {
            break; // unreachable for finite f64, defensive
        }
    }
    k
}

/// The `p`-th harmonic number `H_p = Σ_{i=1..p} 1/i`; `H_0 = 0`.
pub fn harmonic(p: u64) -> f64 {
    if p < 1_000_000 {
        (1..=p).map(|i| 1.0 / i as f64).sum()
    } else {
        // H_p ≈ ln p + γ + 1/(2p); error < 1/(8p²), far below f64 noise here.
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        (p as f64).ln() + EULER_GAMMA + 1.0 / (2.0 * p as f64)
    }
}

/// `⌈log₂(x)⌉` for `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn ceil_log2(x: u64) -> u32 {
    assert!(x > 0, "ceil_log2(0) is undefined");
    64 - (x - 1).leading_zeros().min(64)
}

/// `⌊log₂(x)⌋` for `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn floor_log2(x: u64) -> u32 {
    assert!(x > 0, "floor_log2(0) is undefined");
    63 - x.leading_zeros()
}

/// Deterministic primality test by trial division (fine for the ≤ 10⁷ range
/// used by Linial's polynomial construction).
pub fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut d = 3;
    while d * d <= x {
        if x.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// The smallest prime strictly greater than `x`.
pub fn next_prime(x: u64) -> u64 {
    let mut candidate = x + 1;
    while !is_prime(candidate) {
        candidate += 1;
    }
    candidate
}

/// Integer ceiling division `⌈a / b⌉`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn div_ceil(a: u64, b: u64) -> u64 {
    assert!(b > 0, "division by zero");
    a.div_euclid(b) + u64::from(!a.is_multiple_of(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1.0), 0);
        assert_eq!(log_star(2.0), 1);
        assert_eq!(log_star(4.0), 2);
        assert_eq!(log_star(16.0), 3);
        assert_eq!(log_star(65536.0), 4);
        assert_eq!(log_star(2.0f64.powi(100)), 5);
    }

    #[test]
    fn harmonic_values() {
        assert_eq!(harmonic(0), 0.0);
        assert!((harmonic(1) - 1.0).abs() < 1e-12);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
        // Asymptotic branch agrees with direct summation.
        let direct: f64 = (1..=2_000_000u64).map(|i| 1.0 / i as f64).sum();
        assert!((harmonic(2_000_000) - direct).abs() < 1e-9);
    }

    #[test]
    fn log2_helpers() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(8), 3);
        assert_eq!(floor_log2(9), 3);
    }

    #[test]
    fn prime_helpers() {
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(9));
        assert!(is_prime(7919));
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(2), 3);
        assert_eq!(next_prime(13), 17);
        assert_eq!(next_prime(100), 101);
    }

    #[test]
    fn div_ceil_values() {
        assert_eq!(div_ceil(0, 4), 0);
        assert_eq!(div_ceil(1, 4), 1);
        assert_eq!(div_ceil(4, 4), 1);
        assert_eq!(div_ceil(5, 4), 2);
    }
}
