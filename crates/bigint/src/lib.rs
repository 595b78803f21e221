//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the numeric substrate for the WideLeak reproduction's RSA
//! implementation (`wideleak-crypto`). It provides [`BigUint`], a
//! little-endian limb-based unsigned integer, modular arithmetic helpers
//! in [`modular`], precomputed Montgomery/CRT contexts for the
//! exponentiation hot path in [`montgomery`], and probabilistic primality
//! testing plus prime generation in [`prime`].
//!
//! The base arithmetic favours clarity and testability (schoolbook
//! multiplication, Knuth Algorithm D division); the [`montgomery`]
//! contexts layer REDC-based fixed-window exponentiation on top for the
//! repeated-modulus workloads (RSA private ops, Miller–Rabin), with the
//! schoolbook path kept as the differential reference. This comfortably
//! handles the 2048-bit RSA moduli used by the simulated Widevine CDM.
//!
//! # Examples
//!
//! ```
//! use wideleak_bigint::BigUint;
//!
//! let a = BigUint::from_u64(0xdead_beef);
//! let b = BigUint::from_u64(0x1234_5678);
//! let product = &a * &b;
//! assert_eq!(product, BigUint::from_u128(0xdead_beef * 0x1234_5678));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod modular;
pub mod montgomery;
pub mod prime;
mod uint;

pub use uint::{BigUint, ParseBigUintError};
