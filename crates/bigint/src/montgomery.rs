//! Precomputed modular-arithmetic contexts: Montgomery multiplication,
//! fixed-window exponentiation and CRT recombination.
//!
//! The stateless helpers in [`crate::modular`] recompute everything per
//! call; RSA performs hundreds of modular multiplications against the
//! *same* modulus per private operation, so this module front-loads the
//! per-modulus work into context types built once and reused:
//!
//! - [`Montgomery`] — an odd-modulus context holding `-n^-1 mod 2^64`,
//!   `R^2 mod n` (with `R = 2^(64k)` for a `k`-limb modulus) and the
//!   Montgomery form of 1. Multiplication uses REDC, exponentiation a
//!   fixed 4-bit window with an on-context table of base powers.
//! - [`ModExpContext`] — the public entry point: Montgomery for odd
//!   moduli `> 1`, automatic fallback to [`modular::mod_pow_schoolbook`]
//!   otherwise, with exactly the reference implementation's semantics.
//! - [`CrtContext`] — a two-prime RSA private-operation context: one
//!   `ModExpContext` per prime plus Garner recombination.

use crate::modular;
use crate::BigUint;

/// Window width (bits) for fixed-window exponentiation.
const WINDOW: usize = 4;

/// A Montgomery-multiplication context for a fixed odd modulus `n > 1`.
///
/// Values are converted into Montgomery form (`x * R mod n`), multiplied
/// with REDC (one interleaved reduction per limb instead of a full
/// division per product), and converted back on the way out. All the
/// per-modulus constants are computed once in [`Montgomery::new`].
///
/// # Examples
///
/// ```
/// use wideleak_bigint::{montgomery::Montgomery, BigUint};
///
/// let m = Montgomery::new(&BigUint::from_u64(497)).unwrap();
/// let r = m.pow(&BigUint::from_u64(4), &BigUint::from_u64(13));
/// assert_eq!(r, BigUint::from_u64(445));
/// ```
#[derive(Clone)]
pub struct Montgomery {
    /// The modulus.
    n: BigUint,
    /// The modulus as exactly `k` little-endian limbs.
    n_limbs: Vec<u64>,
    /// `-n^-1 mod 2^64`, the REDC folding constant.
    n0_inv: u64,
    /// `R^2 mod n` as `k` limbs; multiplying by it converts into
    /// Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` as `k` limbs: the Montgomery form of 1.
    one: Vec<u64>,
}

impl std::fmt::Debug for Montgomery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Montgomery({} bits)", self.n.bit_len())
    }
}

impl Montgomery {
    /// Builds a context for `n`. Returns `None` unless `n` is odd and
    /// greater than 1 (the REDC constant only exists for odd moduli).
    pub fn new(n: &BigUint) -> Option<Self> {
        if n.is_even() || n.is_zero() || n.is_one() {
            return None;
        }
        let n_limbs = n.limbs().to_vec();
        let k = n_limbs.len();
        // Newton's method for the inverse of n[0] mod 2^64: an odd number
        // is its own inverse mod 8, and each step doubles the valid bits.
        let n0 = n_limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();
        let r2 = to_limbs(&(&(&BigUint::one() << (128 * k)) % n), k);
        let one = to_limbs(&(&(&BigUint::one() << (64 * k)) % n), k);
        Some(Montgomery { n: n.clone(), n_limbs, n0_inv, r2, one })
    }

    /// The modulus this context was built for.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Computes `base^exp mod n` by fixed-window exponentiation in
    /// Montgomery form. `exp == 0` yields 1; `base` is reduced first.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let base_m = self.to_mont(&(base % &self.n));
        // Table of base^0 .. base^(2^WINDOW - 1) in Montgomery form.
        let mut table = Vec::with_capacity(1 << WINDOW);
        table.push(self.one.clone());
        table.push(base_m.clone());
        for i in 2..1usize << WINDOW {
            table.push(self.mont_mul(&table[i - 1], &base_m));
        }
        let bits = exp.bit_len();
        let mut acc = self.one.clone();
        for w in (0..bits.div_ceil(WINDOW)).rev() {
            for _ in 0..WINDOW {
                acc = self.mont_mul(&acc, &acc);
            }
            let mut val = 0usize;
            for b in (0..WINDOW).rev() {
                val <<= 1;
                if exp.bit(w * WINDOW + b) {
                    val |= 1;
                }
            }
            if val != 0 {
                acc = self.mont_mul(&acc, &table[val]);
            }
        }
        self.demont(&acc)
    }

    /// Computes `(a * b) mod n` with two REDC passes (no full division).
    ///
    /// `mont_mul(a, b)` yields `a*b*R^-1`; a second pass against `R^2`
    /// restores the plain representation.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.n_limbs.len();
        let t = self.mont_mul(&to_limbs(&(a % &self.n), k), &to_limbs(&(b % &self.n), k));
        BigUint::from_limbs(self.mont_mul(&t, &self.r2))
    }

    /// Converts `x < n` into Montgomery form.
    fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        self.mont_mul(&to_limbs(x, self.n_limbs.len()), &self.r2)
    }

    /// Converts a Montgomery-form value back to a plain integer.
    fn demont(&self, xm: &[u64]) -> BigUint {
        let mut plain_one = vec![0u64; self.n_limbs.len()];
        plain_one[0] = 1;
        BigUint::from_limbs(self.mont_mul(xm, &plain_one))
    }

    /// Montgomery product `a * b * R^-1 mod n` over `k`-limb operands.
    ///
    /// Schoolbook product into a `2k+1`-limb buffer, then the textbook
    /// REDC loop: fold one low limb to zero per iteration by adding a
    /// multiple of `n`, and shift the whole buffer down `k` limbs at the
    /// end. Both inputs must be `< n`, so one conditional final subtract
    /// suffices.
    fn mont_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        let k = self.n_limbs.len();
        let mut t = vec![0u64; 2 * k + 1];
        for i in 0..k {
            let ai = a[i] as u128;
            let mut carry = 0u64;
            for j in 0..k {
                let v = t[i + j] as u128 + ai * b[j] as u128 + carry as u128;
                t[i + j] = v as u64;
                carry = (v >> 64) as u64;
            }
            propagate_carry(&mut t[i + k..], carry);
        }
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0_inv) as u128;
            let mut carry = 0u64;
            for j in 0..k {
                let v = t[i + j] as u128 + m * self.n_limbs[j] as u128 + carry as u128;
                t[i + j] = v as u64;
                carry = (v >> 64) as u64;
            }
            propagate_carry(&mut t[i + k..], carry);
        }
        let mut r = t[k..2 * k].to_vec();
        if t[2 * k] != 0 || ge(&r, &self.n_limbs) {
            sub_in_place(&mut r, &self.n_limbs);
        }
        r
    }
}

/// Pads the limbs of `x` (which must fit) to exactly `k` limbs.
fn to_limbs(x: &BigUint, k: usize) -> Vec<u64> {
    let mut limbs = x.limbs().to_vec();
    debug_assert!(limbs.len() <= k, "operand wider than modulus");
    limbs.resize(k, 0);
    limbs
}

/// Adds `carry` into the little-endian slice `t`, rippling as needed.
fn propagate_carry(t: &mut [u64], mut carry: u64) {
    let mut idx = 0;
    while carry != 0 {
        let v = t[idx] as u128 + carry as u128;
        t[idx] = v as u64;
        carry = (v >> 64) as u64;
        idx += 1;
    }
}

/// Compares equal-length little-endian slices: `a >= b`.
fn ge(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// Subtracts `b` from `a` in place (equal-length slices); the final
/// borrow, if any, is absorbed by the caller's overflow limb.
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let (v, b1) = a[i].overflowing_sub(b[i]);
        let (v, b2) = v.overflowing_sub(borrow);
        a[i] = v;
        borrow = (b1 as u64) + (b2 as u64);
    }
}

/// A precomputed modular-exponentiation context for an arbitrary modulus.
///
/// Odd moduli `> 1` get a [`Montgomery`] fast path; everything else falls
/// back to schoolbook square-and-multiply, and both agree exactly with
/// [`modular::mod_pow_schoolbook`] (`m == 1` yields zero, `exp == 0`
/// yields one).
///
/// # Examples
///
/// ```
/// use wideleak_bigint::{montgomery::ModExpContext, BigUint};
///
/// let ctx = ModExpContext::new(&BigUint::from_u64(497));
/// assert!(ctx.is_accelerated());
/// let r = ctx.pow(&BigUint::from_u64(4), &BigUint::from_u64(13));
/// assert_eq!(r, BigUint::from_u64(445));
/// ```
#[derive(Clone)]
pub struct ModExpContext {
    inner: Inner,
}

#[derive(Clone)]
enum Inner {
    Mont(Montgomery),
    Schoolbook(BigUint),
}

impl std::fmt::Debug for ModExpContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = if self.is_accelerated() { "montgomery" } else { "schoolbook" };
        write!(f, "ModExpContext({} bits, {kind})", self.modulus().bit_len())
    }
}

impl ModExpContext {
    /// Builds a context for `m`, choosing Montgomery or schoolbook.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero, matching [`modular::mod_pow_schoolbook`].
    pub fn new(m: &BigUint) -> Self {
        assert!(!m.is_zero(), "modulus is zero");
        let inner = match Montgomery::new(m) {
            Some(mont) => Inner::Mont(mont),
            None => Inner::Schoolbook(m.clone()),
        };
        ModExpContext { inner }
    }

    /// The modulus this context was built for.
    pub fn modulus(&self) -> &BigUint {
        match &self.inner {
            Inner::Mont(mont) => mont.modulus(),
            Inner::Schoolbook(m) => m,
        }
    }

    /// Whether the Montgomery fast path is active (odd modulus `> 1`).
    pub fn is_accelerated(&self) -> bool {
        matches!(self.inner, Inner::Mont(_))
    }

    /// Computes `base^exp mod m` with the same semantics as
    /// [`modular::mod_pow_schoolbook`].
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.inner {
            Inner::Mont(mont) => mont.pow(base, exp),
            Inner::Schoolbook(m) => modular::mod_pow_schoolbook(base, exp, m),
        }
    }

    /// Computes `(a * b) mod m`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        match &self.inner {
            Inner::Mont(mont) => mont.mul_mod(a, b),
            Inner::Schoolbook(m) => modular::mod_mul(a, b, m),
        }
    }
}

/// A two-prime CRT context for the RSA private operation.
///
/// Holds one [`ModExpContext`] per prime plus the CRT exponents
/// (`d_p = d mod p-1`, `d_q = d mod q-1`) and `q_inv = q^-1 mod p`, so a
/// private operation costs two half-width exponentiations against
/// prebuilt contexts plus a recombination.
///
/// The `Debug` impl redacts the exponents: they are equivalent to the
/// private key.
#[derive(Clone)]
pub struct CrtContext {
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
    p_ctx: ModExpContext,
    q_ctx: ModExpContext,
}

impl std::fmt::Debug for CrtContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CrtContext({} bits, <crt exponents redacted>)", (&self.p * &self.q).bit_len())
    }
}

impl CrtContext {
    /// Builds a CRT context from the private-key components. RSA primes
    /// are odd, so both per-prime contexts take the Montgomery path; the
    /// schoolbook fallback keeps degenerate test moduli working.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `q` is zero.
    pub fn new(p: &BigUint, q: &BigUint, d_p: &BigUint, d_q: &BigUint, q_inv: &BigUint) -> Self {
        CrtContext {
            p: p.clone(),
            q: q.clone(),
            d_p: d_p.clone(),
            d_q: d_q.clone(),
            q_inv: q_inv.clone(),
            p_ctx: ModExpContext::new(p),
            q_ctx: ModExpContext::new(q),
        }
    }

    /// The RSA private operation `c^d mod p*q` via CRT: two half-width
    /// exponentiations and a Garner recombination.
    pub fn exp(&self, c: &BigUint) -> BigUint {
        let mp = self.p_ctx.pow(&(c % &self.p), &self.d_p);
        let mq = self.q_ctx.pow(&(c % &self.q), &self.d_q);
        // h = q_inv * (mp - mq) mod p ; result = mq + q * h
        let h = modular::mod_mul(&self.q_inv, &modular::mod_sub(&mp, &mq, &self.p), &self.p);
        &mq + &(&self.q * &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::{mod_inv, mod_pow_schoolbook};

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// A 256-bit odd modulus built from a deterministic byte pattern.
    fn wide_odd() -> BigUint {
        let bytes: Vec<u8> = (0..32).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)).collect();
        let mut m = BigUint::from_bytes_be(&bytes);
        if m.is_even() {
            m = &m + &BigUint::one();
        }
        m
    }

    #[test]
    fn rejects_even_zero_and_one_moduli() {
        assert!(Montgomery::new(&BigUint::zero()).is_none());
        assert!(Montgomery::new(&BigUint::one()).is_none());
        assert!(Montgomery::new(&n(4096)).is_none());
        assert!(Montgomery::new(&n(3)).is_some());
    }

    #[test]
    fn pow_matches_schoolbook_single_limb() {
        let m = n(1_000_000_007);
        let mont = Montgomery::new(&m).unwrap();
        for (b, e) in [(0u64, 5u64), (2, 0), (2, 10), (4, 13), (65537, 65537), (u64::MAX, 12345)] {
            let got = mont.pow(&n(b), &n(e));
            let want = mod_pow_schoolbook(&n(b), &n(e), &m);
            assert_eq!(got, want, "{b}^{e}");
        }
    }

    #[test]
    fn pow_matches_schoolbook_multi_limb() {
        let m = wide_odd();
        let mont = Montgomery::new(&m).unwrap();
        let base = &m - &n(12345);
        let exp = &m >> 3;
        assert_eq!(mont.pow(&base, &exp), mod_pow_schoolbook(&base, &exp, &m));
    }

    #[test]
    fn pow_reduces_oversized_base() {
        let m = n(97);
        let mont = Montgomery::new(&m).unwrap();
        let big_base = &wide_odd() * &wide_odd();
        assert_eq!(mont.pow(&big_base, &n(41)), mod_pow_schoolbook(&big_base, &n(41), &m));
    }

    #[test]
    fn mul_mod_matches_modular() {
        let m = wide_odd();
        let mont = Montgomery::new(&m).unwrap();
        let a = &m - &n(1);
        let b = &m - &n(2);
        assert_eq!(mont.mul_mod(&a, &b), modular::mod_mul(&a, &b, &m));
        assert_eq!(mont.mul_mod(&BigUint::zero(), &a), BigUint::zero());
        assert_eq!(mont.mul_mod(&BigUint::one(), &a), a);
    }

    #[test]
    fn fermat_little_theorem_holds() {
        let p = n(1_000_000_007);
        let mont = Montgomery::new(&p).unwrap();
        for a in [2u64, 3, 65537, 999_999_999] {
            assert_eq!(mont.pow(&n(a), &(&p - &BigUint::one())), BigUint::one());
        }
    }

    #[test]
    fn context_falls_back_on_even_modulus() {
        let ctx = ModExpContext::new(&n(4096));
        assert!(!ctx.is_accelerated());
        assert_eq!(ctx.pow(&n(3), &n(5)), mod_pow_schoolbook(&n(3), &n(5), &n(4096)));
        assert_eq!(ctx.mul_mod(&n(100), &n(100)), n(10_000 % 4096));
    }

    #[test]
    fn context_preserves_mod_pow_semantics() {
        // m == 1 -> 0, exp == 0 -> 1, base == 0 -> 0.
        assert_eq!(ModExpContext::new(&n(1)).pow(&n(5), &n(3)), n(0));
        assert_eq!(ModExpContext::new(&n(97)).pow(&n(2), &n(0)), n(1));
        assert_eq!(ModExpContext::new(&n(97)).pow(&n(0), &n(5)), n(0));
        assert_eq!(ModExpContext::new(&n(1_000_000)).pow(&n(2), &n(10)), n(1024));
    }

    #[test]
    #[should_panic(expected = "modulus is zero")]
    fn context_panics_on_zero_modulus() {
        ModExpContext::new(&BigUint::zero());
    }

    #[test]
    fn crt_matches_direct_exponentiation() {
        // p = 61, q = 53: the classic RSA toy example (n = 3233).
        let (p, q) = (n(61), n(53));
        let d = n(413); // e = 17; e*d = 1 mod lcm(60, 52) = 780
        let d_p = &d % &n(60);
        let d_q = &d % &n(52);
        let q_inv = mod_inv(&q, &p).unwrap();
        let crt = CrtContext::new(&p, &q, &d_p, &d_q, &q_inv);
        let m = &p * &q;
        for c in [0u64, 1, 2, 65, 123, 3232] {
            let got = &crt.exp(&n(c)) % &m;
            assert_eq!(got, mod_pow_schoolbook(&n(c), &d, &m), "c={c}");
        }
    }

    #[test]
    fn debug_redacts_crt_exponents() {
        let crt = CrtContext::new(&n(61), &n(53), &n(53), &n(49), &n(38));
        let s = format!("{crt:?}");
        assert!(s.contains("redacted"), "got {s}");
        assert!(!s.contains("53"), "got {s}");
    }
}
