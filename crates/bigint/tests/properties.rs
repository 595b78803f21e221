//! Property-based tests for the big-integer substrate: ring axioms,
//! division invariants, codec round-trips, and modular-arithmetic laws.

use proptest::prelude::*;
use wideleak_bigint::modular::{gcd, mod_inv, mod_mul, mod_pow_schoolbook};
use wideleak_bigint::montgomery::{ModExpContext, Montgomery};
use wideleak_bigint::prime::{is_prime, next_prime_from};
use wideleak_bigint::BigUint;

/// Strategy producing BigUints of up to ~4 limbs from random byte strings.
fn biguint() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|b| BigUint::from_bytes_be(&b))
}

/// Non-zero variant.
fn biguint_nonzero() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|n| if n.is_zero() { BigUint::one() } else { n })
}

/// Odd modulus > 1: the domain of the Montgomery fast path.
fn biguint_odd() -> impl Strategy<Value = BigUint> {
    biguint().prop_map(|n| {
        let mut n = n;
        if n.is_even() {
            n = &n + &BigUint::one();
        }
        if n.is_one() {
            n = BigUint::from_u64(3);
        }
        n
    })
}

proptest! {
    #[test]
    fn add_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in biguint(), b in biguint()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_distributes_over_add(a in biguint(), b in biguint(), c in biguint()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn sub_inverts_add(a in biguint(), b in biguint()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn div_rem_invariant(a in biguint(), d in biguint_nonzero()) {
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&bytes);
        let round = BigUint::from_bytes_be(&n.to_bytes_be());
        prop_assert_eq!(n, round);
    }

    #[test]
    fn hex_round_trip(a in biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn padded_bytes_parse_back(a in biguint()) {
        let padded = a.to_bytes_be_padded(40);
        prop_assert_eq!(padded.len(), 40);
        prop_assert_eq!(BigUint::from_bytes_be(&padded), a);
    }

    #[test]
    fn shl_shr_round_trip(a in biguint(), s in 0usize..200) {
        prop_assert_eq!(&(&a << s) >> s, a);
    }

    #[test]
    fn shl_is_mul_by_power_of_two(a in biguint(), s in 0usize..100) {
        let mut pow2 = BigUint::one();
        pow2 = &pow2 << s;
        prop_assert_eq!(&a << s, &a * &pow2);
    }

    #[test]
    fn mod_pow_multiplicative(a in biguint(), b in biguint(), m in biguint_nonzero()) {
        // (a*b) mod m == (a mod m)(b mod m) mod m
        prop_assert_eq!(mod_mul(&a, &b, &m), &(&a * &b) % &m);
    }

    #[test]
    fn mod_pow_exponent_addition(
        a in biguint_nonzero(),
        e1 in 0u64..64,
        e2 in 0u64..64,
        m in biguint_nonzero(),
    ) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m)
        let ctx = ModExpContext::new(&m);
        let lhs = ctx.pow(&a, &BigUint::from_u64(e1 + e2));
        let rhs = mod_mul(
            &ctx.pow(&a, &BigUint::from_u64(e1)),
            &ctx.pow(&a, &BigUint::from_u64(e2)),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn montgomery_pow_matches_schoolbook(
        a in biguint(),
        e in biguint(),
        m in biguint_odd(),
    ) {
        // The Montgomery fast path is differentially pinned to the
        // schoolbook reference over random odd moduli.
        let mont = Montgomery::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(mont.pow(&a, &e), mod_pow_schoolbook(&a, &e, &m));
    }

    #[test]
    fn montgomery_mul_matches_plain_reduction(
        a in biguint(),
        b in biguint(),
        m in biguint_odd(),
    ) {
        let mont = Montgomery::new(&m).expect("odd modulus > 1");
        prop_assert_eq!(mont.mul_mod(&a, &b), &(&a * &b) % &m);
    }

    #[test]
    fn context_matches_schoolbook_on_any_modulus(
        a in biguint(),
        e in 0u64..512,
        m in biguint_nonzero(),
    ) {
        // Even moduli take the schoolbook fallback; odd ones take
        // Montgomery. Both must agree with the reference everywhere.
        let ctx = ModExpContext::new(&m);
        prop_assert_eq!(ctx.is_accelerated(), m.is_odd() && !m.is_one());
        let e = BigUint::from_u64(e);
        prop_assert_eq!(ctx.pow(&a, &e), mod_pow_schoolbook(&a, &e, &m));
    }

    #[test]
    fn gcd_divides_both(a in biguint_nonzero(), b in biguint_nonzero()) {
        let g = gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }

    #[test]
    fn mod_inv_is_inverse(a in biguint(), m in biguint_nonzero()) {
        // The inverse exists exactly for units, is reduced, and inverts;
        // modulo 1 every residue is 0, so only the range is checked there.
        let inv = mod_inv(&a, &m);
        prop_assert_eq!(inv.is_some(), gcd(&a, &m).is_one());
        if let Some(x) = inv {
            prop_assert!(x < m);
            if !m.is_one() {
                prop_assert_eq!(mod_mul(&a, &x, &m), BigUint::one());
            }
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in biguint(), b in biguint()) {
        if a >= b {
            prop_assert!(a.checked_sub(&b).is_some());
        } else {
            prop_assert!(a.checked_sub(&b).is_none());
        }
    }
}

/// Builds a `BigUint` from little-endian limbs.
fn from_limbs(limbs: &[u64]) -> BigUint {
    let bytes: Vec<u8> = limbs.iter().rev().flat_map(|l| l.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// Odd moduli of 1–32 limbs, the widths RSA runs Montgomery at (6 and
/// 16 limbs for keygen's primes, 12 and 32 for public-key moduli). About
/// a third are `2^(64k) − 2j − 1`, whose all-ones top limb drives a
/// Montgomery product's carries to their edge.
fn wide_odd_modulus() -> impl Strategy<Value = BigUint> {
    (1usize..=32, collection::vec(any::<u64>(), 32), 0u8..3).prop_map(|(k, limbs, kind)| {
        if kind == 0 {
            let j = limbs[0] >> 32;
            &(&BigUint::one() << (64 * k)) - &BigUint::from_u64(2 * j + 1)
        } else {
            let mut limbs = limbs[..k].to_vec();
            limbs[0] |= 1;
            limbs[k - 1] = limbs[k - 1].max(1);
            let n = from_limbs(&limbs);
            if n.is_one() {
                BigUint::from_u64(3)
            } else {
                n
            }
        }
    })
}

/// Raw material for a base: `(kind, limbs)`, turned into a value for a
/// given modulus by [`base_for`].
fn wide_base() -> impl Strategy<Value = (u8, Vec<u64>)> {
    (0u8..4, collection::vec(any::<u64>(), 32))
}

/// `n − 1`, `n − 2`, or a random value as wide as `n` (which may exceed
/// it: `pow` and `mul_mod` reduce their operands first).
fn base_for(n: &BigUint, (kind, limbs): &(u8, Vec<u64>)) -> BigUint {
    match kind {
        0 => n - &BigUint::one(),
        1 => n - &BigUint::from_u64(2),
        _ => from_limbs(&limbs[..n.bit_len().div_ceil(64)]),
    }
}

/// Short exponents, 0 to 128 bits, so the schoolbook reference stays
/// cheap at 32 limbs.
fn short_exponent() -> impl Strategy<Value = BigUint> {
    (any::<u64>(), any::<u64>(), 0usize..=128)
        .prop_map(|(lo, hi, shift)| &from_limbs(&[lo, hi]) >> shift)
}

/// Prime-search starts of 2–512 bits: a quarter below 256, where the
/// search walks `is_prime`, and a quarter rounded down to a multiple of
/// one of the small primes the search sieves by.
fn search_start() -> impl Strategy<Value = BigUint> {
    const SIEVED: [u64; 6] = [3, 5, 7, 11, 101, 199];
    (2usize..=512, collection::vec(any::<u64>(), 8), 0u8..4, 0usize..SIEVED.len()).prop_map(
        |(bits, limbs, kind, p)| match kind {
            0 => BigUint::from_u64(2 + limbs[0] % 254),
            _ => {
                let mut n = &from_limbs(&limbs) >> (512 - bits);
                n.set_bit(bits - 1, true);
                if kind == 1 {
                    let p = BigUint::from_u64(SIEVED[p]);
                    n = &n - &(&n % &p);
                    if n.is_zero() {
                        n = p;
                    }
                }
                n
            }
        },
    )
}

/// The unsieved search the sieve must reproduce: the first `is_prime`
/// at or after `start`, stepping odd numbers.
fn walk_to_prime(start: &BigUint, rounds: u32) -> BigUint {
    let two = BigUint::from_u64(2);
    if *start == two {
        return two;
    }
    let mut n = if start.is_even() { start + &BigUint::one() } else { start.clone() };
    while !is_prime(&n, rounds) {
        n = &n + &two;
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn next_prime_from_matches_is_prime_walk(start in search_start(), rounds in 1u32..=8) {
        prop_assert_eq!(next_prime_from(&start, rounds), walk_to_prime(&start, rounds));
    }

    #[test]
    fn montgomery_pow_matches_schoolbook_at_rsa_widths(
        n in wide_odd_modulus(),
        base in wide_base(),
        e in short_exponent(),
    ) {
        let mont = Montgomery::new(&n).expect("odd modulus > 1");
        let a = base_for(&n, &base);
        prop_assert_eq!(mont.pow(&a, &e), mod_pow_schoolbook(&a, &e, &n));
    }

    #[test]
    fn montgomery_mul_matches_plain_reduction_at_rsa_widths(
        n in wide_odd_modulus(),
        a in wide_base(),
        b in wide_base(),
    ) {
        let mont = Montgomery::new(&n).expect("odd modulus > 1");
        let (a, b) = (base_for(&n, &a), base_for(&n, &b));
        prop_assert_eq!(mont.mul_mod(&a, &b), &(&a * &b) % &n);
    }

    #[test]
    fn montgomery_square_matches_product_at_rsa_widths(n in wide_odd_modulus(), x in wide_base()) {
        let mont = Montgomery::new(&n).expect("odd modulus > 1");
        let x = base_for(&n, &x);
        prop_assert_eq!(mont.pow(&x, &BigUint::from_u64(2)), mont.mul_mod(&x, &x));
    }
}
