//! ISO/IEC 23001-7 Common Encryption (CENC) over ISO-BMFF tracks.
//!
//! Implements the two protection schemes used by Widevine-protected DASH
//! content:
//!
//! - **`cenc`** ([`ctr`]): AES-128-CTR with 8-byte per-sample IVs and a
//!   keystream that runs continuously across the encrypted regions of a
//!   sample (subsample encryption).
//! - **`cbcs`** ([`cbcs`]): AES-128-CBC pattern encryption (1 encrypted
//!   block : 9 clear blocks) with a constant IV that restarts per
//!   subsample region.
//!
//! [`track`] ties the schemes to `wideleak-bmff` fragments: the CDN
//! packager encrypts whole media segments through it and the attack PoC
//! decrypts them back once it has recovered the content keys.
//!
//! # Examples
//!
//! ```
//! use wideleak_cenc::keys::ContentKey;
//! use wideleak_cenc::ctr;
//! use wideleak_bmff::types::Subsample;
//!
//! let key = ContentKey([7u8; 16]);
//! let iv = [1u8; 8];
//! let subs = [Subsample { clear_bytes: 4, encrypted_bytes: 13 }];
//! let ct = ctr::encrypt_sample(&key, iv, b"headerENCRYPTEDBY", &subs).unwrap();
//! assert_eq!(&ct[..4], b"head", "clear prefix is preserved");
//! let pt = ctr::decrypt_sample(&key, iv, &ct, &subs).unwrap();
//! assert_eq!(pt, b"headerENCRYPTEDBY");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cbcs;
pub mod ctr;
pub mod keys;
pub mod track;

use std::fmt;

/// Errors produced by the CENC schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CencError {
    /// The subsample map does not match the sample length.
    SubsampleMismatch {
        /// Total bytes described by the map.
        described: usize,
        /// Actual sample length.
        actual: usize,
    },
    /// No key available for a key ID during segment decryption.
    MissingKey {
        /// Display form of the key ID.
        kid: String,
    },
    /// The segment's encryption metadata is inconsistent (e.g. senc entry
    /// count differs from sample count, or an IV has the wrong width).
    BadMetadata {
        /// Human-readable description.
        reason: &'static str,
    },
    /// Underlying container error.
    Bmff(wideleak_bmff::BmffError),
}

impl fmt::Display for CencError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CencError::SubsampleMismatch { described, actual } => {
                write!(f, "subsample map describes {described} bytes but the sample has {actual}")
            }
            CencError::MissingKey { kid } => write!(f, "no content key for key id {kid}"),
            CencError::BadMetadata { reason } => write!(f, "bad encryption metadata: {reason}"),
            CencError::Bmff(e) => write!(f, "container error: {e}"),
        }
    }
}

impl std::error::Error for CencError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CencError::Bmff(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wideleak_bmff::BmffError> for CencError {
    fn from(e: wideleak_bmff::BmffError) -> Self {
        CencError::Bmff(e)
    }
}

/// Validates that a subsample map covers `len` bytes exactly.
///
/// An empty map means whole-sample encryption and always validates.
///
/// # Errors
///
/// Returns [`CencError::SubsampleMismatch`] when coverage differs.
pub(crate) fn validate_subsamples(
    subsamples: &[wideleak_bmff::types::Subsample],
    len: usize,
) -> Result<(), CencError> {
    if subsamples.is_empty() {
        return Ok(());
    }
    let described: usize =
        subsamples.iter().map(|s| s.clear_bytes as usize + s.encrypted_bytes as usize).sum();
    if described != len {
        return Err(CencError::SubsampleMismatch { described, actual: len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wideleak_bmff::types::Subsample;

    #[test]
    fn empty_map_validates_any_length() {
        assert!(validate_subsamples(&[], 0).is_ok());
        assert!(validate_subsamples(&[], 1000).is_ok());
    }

    #[test]
    fn exact_coverage_validates() {
        let subs = [
            Subsample { clear_bytes: 4, encrypted_bytes: 6 },
            Subsample { clear_bytes: 0, encrypted_bytes: 10 },
        ];
        assert!(validate_subsamples(&subs, 20).is_ok());
        assert_eq!(
            validate_subsamples(&subs, 19),
            Err(CencError::SubsampleMismatch { described: 20, actual: 19 })
        );
    }

    #[test]
    fn error_display() {
        let e = CencError::MissingKey { kid: "aa".into() };
        assert!(e.to_string().contains("aa"));
    }
}
