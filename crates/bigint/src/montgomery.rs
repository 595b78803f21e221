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
//!   Montgomery form of 1. Products run the CIOS kernel (multiply and
//!   reduce interleaved in one pass), squarings a dedicated kernel that
//!   computes each cross product once, and exponentiation a fixed 4-bit
//!   window whose buffers are allocated once per call.
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
/// The window stays fixed at 4 bits, so where the squarings fall depends
/// only on the exponent's bit length. A sliding window would skip work
/// on runs of zero bits, placing its squarings and products by the
/// secret exponent's bit pattern.
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
    ///
    /// Every buffer is allocated once per call, before the window loop:
    /// the flat table, the accumulator and one scratch buffer the
    /// product and square kernels share.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let k = self.n_limbs.len();
        let mut scratch = vec![0u64; scratch_len(k)];
        // base^0 .. base^(2^WINDOW - 1) in Montgomery form; entry `i`
        // is limbs `i*k .. (i+1)*k`. Even entries square their half.
        let mut table = vec![0u64; k << WINDOW];
        table[..k].copy_from_slice(&self.one);
        load(&mut table[k..2 * k], &(base % &self.n));
        self.mul_assign(&mut table[k..2 * k], &self.r2, &mut scratch);
        for i in 2..1usize << WINDOW {
            let (done, rest) = table.split_at_mut(i * k);
            let entry = &mut rest[..k];
            if i % 2 == 0 {
                entry.copy_from_slice(&done[i / 2 * k..(i / 2 + 1) * k]);
                self.sqr_assign(entry, &mut scratch);
            } else {
                entry.copy_from_slice(&done[(i - 1) * k..i * k]);
                self.mul_assign(entry, &done[k..2 * k], &mut scratch);
            }
        }
        let bits = exp.bit_len();
        let mut acc = self.one.clone();
        for w in (0..bits.div_ceil(WINDOW)).rev() {
            for _ in 0..WINDOW {
                self.sqr_assign(&mut acc, &mut scratch);
            }
            let mut val = 0usize;
            for b in (0..WINDOW).rev() {
                val <<= 1;
                if exp.bit(w * WINDOW + b) {
                    val |= 1;
                }
            }
            if val != 0 {
                self.mul_assign(&mut acc, &table[val * k..(val + 1) * k], &mut scratch);
            }
        }
        // Leave Montgomery form by multiplying by a plain 1, built in
        // the table's first entry now that the window loop is done.
        let plain_one = &mut table[..k];
        plain_one.fill(0);
        plain_one[0] = 1;
        self.mul_assign(&mut acc, plain_one, &mut scratch);
        BigUint::from_limbs(acc)
    }

    /// Computes `(a * b) mod n` with two Montgomery products (no full
    /// division).
    ///
    /// The first product yields `a*b*R^-1`; a second against `R^2`
    /// restores the plain representation.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.n_limbs.len();
        let mut scratch = vec![0u64; scratch_len(k)];
        let mut x = to_limbs(&(a % &self.n), k);
        self.mul_assign(&mut x, &to_limbs(&(b % &self.n), k), &mut scratch);
        self.mul_assign(&mut x, &self.r2, &mut scratch);
        BigUint::from_limbs(x)
    }

    /// CIOS Montgomery product: `a <- a * b * R^-1 mod n`, for `a, b < n`.
    ///
    /// Coarsely integrated operand scanning: each of the `k` rows adds
    /// `a * b[i]` into the `k + 2`-limb accumulator `t`, then adds the
    /// multiple of `n` that zeroes `t`'s low limb and shifts `t` down one
    /// limb, so multiply and reduce share one pass. The row's second
    /// carry limb `t[k + 1]` catches the carry out of `t[k]`, which
    /// moduli close to `R` reach. The result is below `2n`, so one
    /// conditional subtract reduces it.
    fn mul_assign(&self, a: &mut [u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n_limbs[..];
        let k = n.len();
        let (a, b, t) = (&mut a[..k], &b[..k], &mut t[..k + 2]);
        t.fill(0);
        for &bi in b {
            let mut carry = 0u64;
            for (tj, &aj) in t[..k].iter_mut().zip(a.iter()) {
                let v = *tj as u128 + aj as u128 * bi as u128 + carry as u128;
                *tj = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = t[k] as u128 + carry as u128;
            t[k] = v as u64;
            t[k + 1] = (v >> 64) as u64;

            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let mut carry = ((t[0] as u128 + m * n[0] as u128) >> 64) as u64;
            for j in 1..k {
                let v = t[j] as u128 + m * n[j] as u128 + carry as u128;
                t[j - 1] = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = t[k] as u128 + carry as u128;
            t[k - 1] = v as u64;
            t[k] = t[k + 1] + (v >> 64) as u64;
        }
        a.copy_from_slice(&t[..k]);
        if t[k] != 0 || ge(a, n) {
            sub_in_place(a, n);
        }
    }

    /// Montgomery square: `a <- a^2 * R^-1 mod n`, for `a < n`.
    ///
    /// Each off-diagonal product `a[i] * a[j]` (`i < j`) is computed
    /// once into the `2k`-limb `t`; the sum is doubled with a one-bit
    /// shift and the diagonal squares `a[i]^2` added, which gives `a^2`
    /// for about half a general product's word multiplies. REDC then
    /// zeroes `t`'s low `k` limbs one row at a time. A row's carry out of
    /// its top limb `t[i + k]` is held in `top` and added at the next
    /// row's top limb `t[i + k + 1]`, instead of rippling through `t`;
    /// after the last row `top` is the result's bit `64k`. The result is
    /// below `2n`, so one conditional subtract reduces it.
    fn sqr_assign(&self, a: &mut [u64], t: &mut [u64]) {
        let n = &self.n_limbs[..];
        let k = n.len();
        let (a, t) = (&mut a[..k], &mut t[..2 * k]);
        t.fill(0);
        for i in 0..k {
            let ai = a[i] as u128;
            let mut carry = 0u64;
            for (tj, &aj) in t[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
                let v = *tj as u128 + ai * aj as u128 + carry as u128;
                *tj = v as u64;
                carry = (v >> 64) as u64;
            }
            t[i + k] = carry;
        }
        let mut shifted_out = 0u64;
        let mut carry = 0u64;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a.iter()) {
            let square = ai as u128 * ai as u128;
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            let v = lo as u128 + (square as u64) as u128 + carry as u128;
            pair[0] = v as u64;
            let v = hi as u128 + (square >> 64) + (v >> 64);
            pair[1] = v as u64;
            carry = (v >> 64) as u64;
        }
        debug_assert_eq!((shifted_out, carry), (0, 0), "a^2 fits in 2k limbs");

        let mut top = 0u64;
        for i in 0..k {
            let m = t[i].wrapping_mul(self.n0_inv) as u128;
            let mut carry = 0u64;
            for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
                let v = *tj as u128 + m * nj as u128 + carry as u128;
                *tj = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = t[i + k] as u128 + carry as u128 + top as u128;
            t[i + k] = v as u64;
            top = (v >> 64) as u64;
        }
        a.copy_from_slice(&t[k..]);
        if top != 0 || ge(a, n) {
            sub_in_place(a, n);
        }
    }
}

/// Limbs of scratch the kernels need for a `k`-limb modulus: `k + 2`
/// for a product, `2k` for a square.
fn scratch_len(k: usize) -> usize {
    (2 * k).max(k + 2)
}

/// Pads the limbs of `x` (which must fit) to exactly `k` limbs.
fn to_limbs(x: &BigUint, k: usize) -> Vec<u64> {
    let mut limbs = vec![0u64; k];
    load(&mut limbs, x);
    limbs
}

/// Writes `x` (which must fit) into `dst`, zero-padding the high limbs.
fn load(dst: &mut [u64], x: &BigUint) {
    let limbs = x.limbs();
    debug_assert!(limbs.len() <= dst.len(), "operand wider than modulus");
    dst[..limbs.len()].copy_from_slice(limbs);
    dst[limbs.len()..].fill(0);
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
