//! Modular arithmetic: addition, multiplication, reference
//! exponentiation, inversion and greatest common divisor. CRT
//! recombination lives in [`crate::montgomery::CrtContext`].
//!
//! These free functions operate on [`BigUint`] values and back the RSA
//! implementation in `wideleak-crypto`.

use crate::{BigInt, BigUint, Sign};

/// Computes `(a + b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    &(&(a % m) + &(b % m)) % m
}

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

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y == g == gcd(a, b)`.
pub fn extended_gcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt, BigInt) {
    let mut old_r = BigInt::from_biguint(a.clone());
    let mut r = BigInt::from_biguint(b.clone());
    let mut old_s = BigInt::one();
    let mut s = BigInt::zero();
    let mut old_t = BigInt::zero();
    let mut t = BigInt::one();

    while !r.is_zero() {
        let (q, rem) = old_r.magnitude().div_rem(r.magnitude());
        // Signs: our remainders stay non-negative because we always divide
        // magnitudes; track coefficient signs explicitly.
        let q = BigInt::with_sign(Sign::Positive, q);
        let new_r = BigInt::with_sign(Sign::Positive, rem);
        old_r = std::mem::replace(&mut r, new_r);
        let new_s = &old_s - &(&q * &s);
        old_s = std::mem::replace(&mut s, new_s);
        let new_t = &old_t - &(&q * &t);
        old_t = std::mem::replace(&mut t, new_t);
    }

    (old_r.to_biguint().expect("gcd is non-negative"), old_s, old_t)
}

/// Computes the modular inverse of `a` modulo `m`, if it exists.
///
/// Returns `None` when `gcd(a, m) != 1`.
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
    let (g, x, _) = extended_gcd(a, m);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn mod_add_wraps() {
        assert_eq!(mod_add(&n(9), &n(5), &n(7)), n(0));
        assert_eq!(mod_add(&n(3), &n(5), &n(7)), n(1));
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
    fn extended_gcd_bezout_identity() {
        let a = n(240);
        let b = n(46);
        let (g, x, y) = extended_gcd(&a, &b);
        assert_eq!(g, n(2));
        // a*x + b*y == g
        let lhs = &(&BigInt::from_biguint(a) * &x) + &(&BigInt::from_biguint(b) * &y);
        assert_eq!(lhs, BigInt::from_biguint(g));
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
