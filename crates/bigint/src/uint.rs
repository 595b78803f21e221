//! Unsigned arbitrary-precision integers.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Rem, Shl, Shr, Sub};

/// An arbitrary-precision unsigned integer.
///
/// Stored as little-endian `u64` limbs with no trailing zero limbs
/// (the canonical representation of zero is an empty limb vector).
///
/// # Examples
///
/// ```
/// use wideleak_bigint::BigUint;
///
/// let n = BigUint::from_bytes_be(&[0x01, 0x00]);
/// assert_eq!(n, BigUint::from_u64(256));
/// assert_eq!(n.to_bytes_be(), vec![0x01, 0x00]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized (no trailing zeros).
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigUint`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigUintError {
    offending: char,
}

impl fmt::Display for ParseBigUintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid digit {:?} in big integer literal", self.offending)
    }
}

impl std::error::Error for ParseBigUintError {}

impl BigUint {
    /// The value zero.
    ///
    /// # Examples
    ///
    /// ```
    /// # use wideleak_bigint::BigUint;
    /// assert!(BigUint::zero().is_zero());
    /// ```
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v] };
        n.normalize();
        n
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut n = BigUint { limbs: vec![v as u64, (v >> 64) as u64] };
        n.normalize();
        n
    }

    /// Builds a value from raw little-endian limbs.
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// The raw little-endian limbs (normalized: no trailing zeros).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Parses a big-endian byte string (the usual cryptographic encoding).
    ///
    /// Leading zero bytes are accepted and ignored.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to the minimal big-endian byte string.
    ///
    /// Zero serializes to an empty vector; use [`BigUint::to_bytes_be_padded`]
    /// when a fixed width is required.
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to a big-endian byte string left-padded with zeros to
    /// exactly `width` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bytes.
    pub fn to_bytes_be_padded(&self, width: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= width, "value of {} bytes does not fit in {} bytes", raw.len(), width);
        let mut out = vec![0u8; width - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseBigUintError`] if a non-hex character is present.
    pub fn from_hex(s: &str) -> Result<Self, ParseBigUintError> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let digits: Vec<u8> = s
            .chars()
            .map(|c| c.to_digit(16).map(|d| d as u8).ok_or(ParseBigUintError { offending: c }))
            .collect::<Result<_, _>>()?;
        let mut iter = digits.iter();
        if digits.len() % 2 == 1 {
            bytes.push(*iter.next().expect("odd-length digit string is non-empty"));
        }
        while let (Some(hi), Some(lo)) = (iter.next(), iter.next()) {
            bytes.push(hi << 4 | lo);
        }
        Ok(Self::from_bytes_be(&bytes))
    }

    /// Formats as a minimal lowercase hexadecimal string (`"0"` for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Whether the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Whether the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `value`, growing the representation if needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let (limb, off) = (i / 64, i % 64);
        if value {
            if self.limbs.len() <= limb {
                self.limbs.resize(limb + 1, 0);
            }
            self.limbs[limb] |= 1 << off;
        } else if limb < self.limbs.len() {
            self.limbs[limb] &= !(1 << off);
            self.normalize();
        }
    }

    /// The lowest 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Checked subtraction: `self - rhs`, or `None` if `rhs > self`.
    pub fn checked_sub(&self, rhs: &BigUint) -> Option<BigUint> {
        if self < rhs {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let r = *rhs.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = self.limbs[i].overflowing_sub(r);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Division by a single limb.
    pub(crate) fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// Knuth Algorithm D (TAOCP 4.3.1) for multi-limb divisors.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let shift = divisor.limbs.last().expect("divisor is multi-limb").leading_zeros() as usize;
        let v = divisor << shift;
        let mut u = (self << shift).limbs;
        let n = v.limbs.len();
        let m = u.len() - n;
        u.push(0);

        let v_hi = v.limbs[n - 1];
        let v_lo = v.limbs[n - 2];
        let mut q = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            let u_hi2 = (u[j + n] as u128) << 64 | u[j + n - 1] as u128;
            let mut qhat: u128 = u_hi2 / v_hi as u128;
            let mut rhat: u128 = u_hi2 % v_hi as u128;
            while qhat >> 64 != 0 || qhat * v_lo as u128 > (rhat << 64 | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_hi as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // Multiply and subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = t as u64;
                borrow = t >> 64;
            }
            let t = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = t as u64;

            if t < 0 {
                // qhat was one too large; add back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }

        u.truncate(n);
        let rem = &BigUint::from_limbs(u) >> shift;
        (BigUint::from_limbs(q), rem)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal conversion via repeated division by 10^19 (largest power
        // of ten in a u64).
        if self.is_zero() {
            return f.write_str("0");
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut n = self.clone();
        let mut parts: Vec<u64> = Vec::new();
        while !n.is_zero() {
            let (q, r) = n.div_rem_u64(CHUNK);
            parts.push(r);
            n = q;
        }
        let mut s = String::new();
        for (i, p) in parts.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&p.to_string());
            } else {
                s.push_str(&format!("{p:019}"));
            }
        }
        f.write_str(&s)
    }
}

impl fmt::LowerHex for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl Add for &BigUint {
    type Output = BigUint;

    fn add(self, rhs: &BigUint) -> BigUint {
        let (long, short) =
            if self.limbs.len() >= rhs.limbs.len() { (self, rhs) } else { (rhs, self) };
        let mut out = Vec::with_capacity(long.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.limbs.len() {
            let s = *short.limbs.get(i).unwrap_or(&0);
            let (r1, c1) = long.limbs[i].overflowing_add(s);
            let (r2, c2) = r1.overflowing_add(carry);
            out.push(r2);
            carry = (c1 | c2) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }
}

impl Sub for &BigUint {
    type Output = BigUint;

    /// # Panics
    ///
    /// Panics on underflow; use [`BigUint::checked_sub`] for a fallible form.
    fn sub(self, rhs: &BigUint) -> BigUint {
        self.checked_sub(rhs).expect("BigUint subtraction underflow")
    }
}

impl Mul for &BigUint {
    type Output = BigUint;

    fn mul(self, rhs: &BigUint) -> BigUint {
        if self.is_zero() || rhs.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + rhs.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in rhs.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + rhs.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Div for &BigUint {
    type Output = BigUint;

    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigUint {
    type Output = BigUint;

    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Shl<usize> for &BigUint {
    type Output = BigUint;

    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push(l << bit_shift | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }
}

impl Shr<usize> for &BigUint {
    type Output = BigUint;

    fn shr(self, shift: usize) -> BigUint {
        let (limb_shift, bit_shift) = (shift / 64, shift % 64);
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let src = &self.limbs[limb_shift..];
        if bit_shift == 0 {
            return BigUint::from_limbs(src.to_vec());
        }
        let mut out = Vec::with_capacity(src.len());
        for i in 0..src.len() {
            let hi = if i + 1 < src.len() { src[i + 1] << (64 - bit_shift) } else { 0 };
            out.push(src[i] >> bit_shift | hi);
        }
        BigUint::from_limbs(out)
    }
}

impl BitAnd for &BigUint {
    type Output = BigUint;

    fn bitand(self, rhs: &BigUint) -> BigUint {
        let n = self.limbs.len().min(rhs.limbs.len());
        BigUint::from_limbs((0..n).map(|i| self.limbs[i] & rhs.limbs[i]).collect())
    }
}

impl BitOr for &BigUint {
    type Output = BigUint;

    fn bitor(self, rhs: &BigUint) -> BigUint {
        let n = self.limbs.len().max(rhs.limbs.len());
        BigUint::from_limbs(
            (0..n)
                .map(|i| self.limbs.get(i).unwrap_or(&0) | rhs.limbs.get(i).unwrap_or(&0))
                .collect(),
        )
    }
}

impl BitXor for &BigUint {
    type Output = BigUint;

    fn bitxor(self, rhs: &BigUint) -> BigUint {
        let n = self.limbs.len().max(rhs.limbs.len());
        BigUint::from_limbs(
            (0..n)
                .map(|i| self.limbs.get(i).unwrap_or(&0) ^ rhs.limbs.get(i).unwrap_or(&0))
                .collect(),
        )
    }
}

macro_rules! forward_owned_binop {
    ($($trait:ident :: $method:ident),+) => {$(
        impl $trait for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $trait::$method(&self, &rhs)
            }
        }
        impl $trait<&BigUint> for BigUint {
            type Output = BigUint;
            fn $method(self, rhs: &BigUint) -> BigUint {
                $trait::$method(&self, rhs)
            }
        }
        impl $trait<BigUint> for &BigUint {
            type Output = BigUint;
            fn $method(self, rhs: BigUint) -> BigUint {
                $trait::$method(self, &rhs)
            }
        }
    )+};
}

forward_owned_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_identities() {
        let zero = BigUint::zero();
        let one = BigUint::one();
        assert!(zero.is_zero());
        assert!(one.is_one());
        assert!(!one.is_zero());
        assert_eq!(&zero + &one, one);
        assert_eq!(&one * &zero, zero);
        assert_eq!(BigUint::default(), zero);
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05]);
        assert_eq!(n.to_bytes_be(), vec![0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05]);
    }

    #[test]
    fn bytes_ignores_leading_zeros() {
        let n = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34]);
        assert_eq!(n, BigUint::from_u64(0x1234));
        assert_eq!(n.to_bytes_be(), vec![0x12, 0x34]);
    }

    #[test]
    fn padded_bytes() {
        let n = BigUint::from_u64(0xabcd);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0xab, 0xcd]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(3), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small_panics() {
        BigUint::from_u64(0x1_0000).to_bytes_be_padded(2);
    }

    #[test]
    fn hex_round_trip() {
        let n = BigUint::from_hex("deadbeef0102030405").unwrap();
        assert_eq!(n.to_hex(), "deadbeef0102030405");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::zero().to_hex(), "0");
        // Odd-length strings are accepted.
        assert_eq!(BigUint::from_hex("f00").unwrap(), BigUint::from_u64(0xf00));
    }

    #[test]
    fn hex_rejects_garbage() {
        let err = BigUint::from_hex("12g4").unwrap_err();
        assert_eq!(err, ParseBigUintError { offending: 'g' });
        assert!(err.to_string().contains('g'));
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let sum = &a + &b;
        assert_eq!(sum, BigUint::from_u128(1u128 << 64));
        assert_eq!(sum.bit_len(), 65);
    }

    #[test]
    fn subtraction_borrows_across_limbs() {
        let a = BigUint::from_u128(1u128 << 64);
        let b = BigUint::one();
        assert_eq!(&a - &b, BigUint::from_u64(u64::MAX));
    }

    #[test]
    fn checked_sub_underflow_is_none() {
        assert_eq!(BigUint::one().checked_sub(&BigUint::from_u64(2)), None);
        assert_eq!(BigUint::from_u64(5).checked_sub(&BigUint::from_u64(5)), Some(BigUint::zero()));
    }

    #[test]
    fn multiplication_matches_u128() {
        let a = 0xffff_ffff_ffffu64;
        let b = 0x1234_5678_9abcu64;
        let prod = &BigUint::from_u64(a) * &BigUint::from_u64(b);
        assert_eq!(prod, BigUint::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn division_small() {
        let (q, r) = BigUint::from_u64(100).div_rem(&BigUint::from_u64(7));
        assert_eq!(q, BigUint::from_u64(14));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn division_multi_limb() {
        let a = BigUint::from_hex("1fffffffffffffffffffffffffffffffffffffff").unwrap();
        let b = BigUint::from_hex("ffffffffffffffffffff").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_knuth_add_back_case() {
        // Crafted to exercise the rare "add back" branch: u = b^2/2 - 1,
        // v = b/2 where b = 2^64 requires correction in Algorithm D.
        let u = BigUint::from_hex("7fffffffffffffffffffffffffffffff").unwrap();
        let v = BigUint::from_hex("80000000000000000000000000000001").unwrap();
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let n = BigUint::from_u64(0b1011);
        assert_eq!(&n << 1, BigUint::from_u64(0b10110));
        assert_eq!(&n << 64, BigUint::from_u128(0b1011u128 << 64));
        assert_eq!(&(&n << 64) >> 64, n);
        assert_eq!(&n >> 2, BigUint::from_u64(0b10));
        assert_eq!(&n >> 200, BigUint::zero());
        assert_eq!(&n << 0, n);
    }

    #[test]
    fn bit_access() {
        let mut n = BigUint::zero();
        n.set_bit(0, true);
        n.set_bit(100, true);
        assert!(n.bit(0));
        assert!(n.bit(100));
        assert!(!n.bit(50));
        assert_eq!(n.bit_len(), 101);
        n.set_bit(100, false);
        assert_eq!(n, BigUint::one());
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert!(BigUint::from_u64(42).is_even());
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u128(1u128 << 80);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from_u64(1234567890).to_string(), "1234567890");
        // 2^64 = 18446744073709551616
        let n = &BigUint::from_u64(u64::MAX) + &BigUint::one();
        assert_eq!(n.to_string(), "18446744073709551616");
        // 10^19 boundary padding
        let big = BigUint::from_hex("8ac7230489e800000").unwrap(); // 16 * 10^19
        assert_eq!(big.to_string(), "160000000000000000000");
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0x0)");
    }

    #[test]
    fn bit_ops() {
        let a = BigUint::from_u64(0b1100);
        let b = BigUint::from_u64(0b1010);
        assert_eq!(&a & &b, BigUint::from_u64(0b1000));
        assert_eq!(&a | &b, BigUint::from_u64(0b1110));
        assert_eq!(&a ^ &b, BigUint::from_u64(0b0110));
    }

    #[test]
    fn to_u64_bounds() {
        assert_eq!(BigUint::zero().to_u64(), Some(0));
        assert_eq!(BigUint::from_u64(7).to_u64(), Some(7));
        assert_eq!(BigUint::from_u128(1u128 << 64).to_u64(), None);
        assert_eq!(BigUint::from_u128(1u128 << 64).low_u64(), 0);
    }
}
