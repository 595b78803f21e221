//! Property-based tests for the big-integer substrate: ring axioms,
//! division invariants, codec round-trips, and modular-arithmetic laws.

use proptest::prelude::*;
use wideleak_bigint::modular::{gcd, mod_inv, mod_mul, mod_pow_schoolbook};
use wideleak_bigint::montgomery::{ModExpContext, Montgomery};
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
