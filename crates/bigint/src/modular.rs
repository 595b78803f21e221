//! Modular arithmetic: subtraction, multiplication, reference
//! exponentiation, inversion and greatest common divisor. CRT
//! recombination lives in [`crate::montgomery::CrtContext`].
//!
//! These free functions operate on [`BigUint`] values and back the RSA
//! implementation in `wideleak-crypto`.

use crate::BigUint;

/// Computes `(a - b) mod m` with a non-negative result.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    let a = a % m;
    let b = b % m;
    if a >= b {
        &a - &b
    } else {
        &(&a + m) - &b
    }
}

/// Computes `(a * b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    &(&(a % m) * &(b % m)) % m
}

/// Computes `base^exp mod m` by left-to-right square-and-multiply.
///
/// This is the reference implementation the Montgomery fast path is
/// differentially tested against, and the fallback
/// [`crate::montgomery::ModExpContext`] uses for even moduli.
///
/// # Panics
///
/// Panics if `m` is zero. `m == 1` yields zero.
///
/// # Examples
///
/// ```
/// use wideleak_bigint::{modular::mod_pow_schoolbook, BigUint};
///
/// let r = mod_pow_schoolbook(
///     &BigUint::from_u64(4),
///     &BigUint::from_u64(13),
///     &BigUint::from_u64(497),
/// );
/// assert_eq!(r, BigUint::from_u64(445));
/// ```
pub fn mod_pow_schoolbook(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus is zero");
    if m.is_one() {
        return BigUint::zero();
    }
    let mut result = BigUint::one();
    let base = base % m;
    if exp.is_zero() {
        return result;
    }
    for i in (0..exp.bit_len()).rev() {
        result = &(&result * &result) % m;
        if exp.bit(i) {
            result = &(&result * &base) % m;
        }
    }
    result
}

/// Computes the greatest common divisor of `a` and `b`.
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    let mut a = a.clone();
    let mut b = b.clone();
    while !b.is_zero() {
        let r = &a % &b;
        a = b;
        b = r;
    }
    a
}

/// Computes the modular inverse of `a` modulo `m`, if it exists.
///
/// Returns `None` when `gcd(a, m) != 1` or `m` is zero; modulo 1 the
/// inverse is zero.
///
/// # Examples
///
/// ```
/// use wideleak_bigint::{modular::mod_inv, BigUint};
///
/// let inv = mod_inv(&BigUint::from_u64(3), &BigUint::from_u64(11)).unwrap();
/// assert_eq!(inv, BigUint::from_u64(4));
/// assert!(mod_inv(&BigUint::from_u64(4), &BigUint::from_u64(8)).is_none());
/// ```
pub fn mod_inv(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    if m.is_zero() {
        return None;
    }
    if m.is_one() {
        return Some(BigUint::zero());
    }
    // Euclid on (m, a mod m). The i-th remainder is r_i ≡ x_i·a (mod m)
    // with x_0 = 0, x_1 = 1 and x_{i+1} = x_{i-1} − q_i·x_i. The x_i
    // alternate in sign, positive at odd i, so only their magnitudes are
    // kept: |x_{i+1}| = |x_{i-1}| + q_i·|x_i|. Once r_i = 1, x_i is the
    // inverse, and 0 < |x_i| ≤ m/2.
    let (mut r_prev, mut r) = (m.clone(), a % m);
    let (mut x_prev, mut x) = (BigUint::zero(), BigUint::one());
    let mut odd = true;
    while !r.is_one() {
        if r.is_zero() {
            return None;
        }
        let (q, r_next) = r_prev.div_rem(&r);
        let x_next = &x_prev + &(&q * &x);
        r_prev = std::mem::replace(&mut r, r_next);
        x_prev = std::mem::replace(&mut x, x_next);
        odd = !odd;
    }
    Some(if odd { x } else { m - &x })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn mod_sub_stays_non_negative() {
        assert_eq!(mod_sub(&n(3), &n(5), &n(7)), n(5));
        assert_eq!(mod_sub(&n(5), &n(3), &n(7)), n(2));
        assert_eq!(mod_sub(&n(5), &n(5), &n(7)), n(0));
    }

    #[test]
    fn mod_mul_reduces_inputs() {
        assert_eq!(mod_mul(&n(100), &n(100), &n(7)), n(10_000 % 7));
    }

    #[test]
    fn mod_pow_basics() {
        assert_eq!(mod_pow_schoolbook(&n(2), &n(10), &n(1_000_000)), n(1024));
        assert_eq!(mod_pow_schoolbook(&n(2), &n(0), &n(97)), n(1));
        assert_eq!(mod_pow_schoolbook(&n(0), &n(5), &n(97)), n(0));
        assert_eq!(mod_pow_schoolbook(&n(5), &n(3), &n(1)), n(0));
    }

    #[test]
    fn mod_pow_fermat_little_theorem() {
        // a^(p-1) = 1 mod p for prime p and gcd(a, p) = 1.
        let p = n(1_000_000_007);
        for a in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(mod_pow_schoolbook(&n(a), &(&p - &BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn mod_pow_large_operands() {
        // 2^2048 mod (2^61 - 1): Mersenne prime arithmetic is easy to check:
        // 2^61 = 1 mod p, so 2^2048 = 2^(2048 mod 61) = 2^35.
        let p = n((1u64 << 61) - 1);
        let e = BigUint::from_u64(2048);
        assert_eq!(mod_pow_schoolbook(&n(2), &e, &p), n(1u64 << 35));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(&n(12), &n(18)), n(6));
        assert_eq!(gcd(&n(17), &n(31)), n(1));
        assert_eq!(gcd(&n(0), &n(5)), n(5));
        assert_eq!(gcd(&n(5), &n(0)), n(5));
    }

    #[test]
    fn mod_inv_round_trip() {
        let m = n(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            let inv = mod_inv(&n(a), &m).unwrap();
            assert_eq!(mod_mul(&n(a), &inv, &m), BigUint::one());
        }
    }

    #[test]
    fn mod_inv_nonexistent() {
        assert!(mod_inv(&n(6), &n(9)).is_none());
        assert!(mod_inv(&n(2), &BigUint::zero()).is_none());
    }

    #[test]
    fn mod_inv_edge_cases() {
        assert_eq!(mod_inv(&n(0), &n(0)), None);
        assert_eq!(mod_inv(&n(0), &n(1)), Some(n(0)));
        assert_eq!(mod_inv(&n(7), &n(1)), Some(n(0)));
        for m in [2u64, 7, 12, 1_000_000_007] {
            assert_eq!(mod_inv(&n(0), &n(m)), None, "m = {m}");
            assert_eq!(mod_inv(&n(m), &n(m)), None, "m = {m}");
            for a in [1u64, 5, 11, 999_999_999] {
                let reduced = mod_inv(&n(a % m), &n(m));
                assert_eq!(mod_inv(&n(a + m), &n(m)), reduced, "a = {a}, m = {m}");
                assert_eq!(mod_inv(&n(a + 3 * m), &n(m)), reduced, "a = {a}, m = {m}");
            }
        }
        // Both signs of the final coefficient: modulo 11, 3 stops at
        // x_3 = 4 and 2 at x_2 = −5, so 2⁻¹ = 11 − 5.
        assert_eq!(mod_inv(&n(3), &n(11)), Some(n(4)));
        assert_eq!(mod_inv(&n(2), &n(11)), Some(n(6)));
        assert_eq!(mod_inv(&n(1), &n(11)), Some(n(1)));
    }

    #[test]
    fn crt_recombines() {
        // x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15: with unit exponents
        // the CRT context reduces 8 to those residues and recombines.
        let p = n(3);
        let q = n(5);
        let q_inv = mod_inv(&q, &p).unwrap();
        let ctx = crate::montgomery::CrtContext::new(&p, &q, &n(1), &n(1), &q_inv);
        assert_eq!(&ctx.exp(&n(8)) % &n(15), n(8));
    }
}
