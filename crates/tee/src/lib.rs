//! A TrustZone-style Trusted Execution Environment simulator.
//!
//! Widevine L1 runs its CDM core inside a TEE trustlet: key material and
//! cryptographic operations live in the secure world, and the normal world
//! (the Android media server process) only exchanges command buffers
//! through a world-switch interface. This crate models exactly the
//! security boundary that matters for the paper's findings:
//!
//! - the normal world invokes trustlets only through [`SecureWorld::invoke`]
//!   (the SMC stand-in), passing opaque byte buffers;
//! - trustlet state and [`SecureStorage`] contents are private to this
//!   crate and are **never** mapped into the simulated process memory that
//!   `wideleak-device` exposes to memory scans — which is why the paper's
//!   keybox-recovery attack works on L3 (software CDM, normal-world
//!   memory) but not on L1.
//!
//! # Examples
//!
//! ```
//! use wideleak_tee::{SecureWorld, Trustlet, TeeError};
//!
//! struct Echo;
//! impl Trustlet for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn invoke(&mut self, command: u32, input: &[u8], _storage: &mut wideleak_tee::SecureStorage)
//!         -> Result<Vec<u8>, TeeError>
//!     {
//!         let mut out = command.to_be_bytes().to_vec();
//!         out.extend_from_slice(input);
//!         Ok(out)
//!     }
//! }
//!
//! let mut world = SecureWorld::new();
//! world.load_trustlet(Box::new(Echo));
//! let reply = world.invoke("echo", 7, b"hi").unwrap();
//! assert_eq!(&reply[4..], b"hi");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

/// Errors surfaced to the normal world by the secure monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// No trustlet with the requested name is loaded.
    TrustletNotFound {
        /// The requested trustlet name.
        name: String,
    },
    /// The trustlet rejected the command code.
    BadCommand {
        /// The rejected command.
        command: u32,
    },
    /// The trustlet rejected its input buffer.
    BadParameters {
        /// Human-readable description.
        reason: &'static str,
    },
    /// The trustlet's internal state forbids the operation (e.g. keybox
    /// not installed yet).
    AccessDenied {
        /// Human-readable description.
        reason: &'static str,
    },
    /// A secure-storage slot was missing.
    StorageMiss {
        /// The slot that was requested.
        slot: String,
    },
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::TrustletNotFound { name } => write!(f, "trustlet {name:?} not loaded"),
            TeeError::BadCommand { command } => write!(f, "trustlet rejected command {command}"),
            TeeError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            TeeError::AccessDenied { reason } => write!(f, "access denied: {reason}"),
            TeeError::StorageMiss { slot } => write!(f, "secure storage slot {slot:?} empty"),
        }
    }
}

impl std::error::Error for TeeError {}

/// Per-trustlet secure storage: a key-value store that survives trustlet
/// invocations but is unreachable from the normal world.
#[derive(Default)]
pub struct SecureStorage {
    slots: HashMap<String, Vec<u8>>,
}

impl fmt::Debug for SecureStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Slot *names* are not secret; contents are.
        let mut names: Vec<&str> = self.slots.keys().map(String::as_str).collect();
        names.sort_unstable();
        write!(f, "SecureStorage(slots: {names:?}, contents redacted)")
    }
}

impl SecureStorage {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a value under `slot`, replacing any previous value.
    pub fn put(&mut self, slot: impl Into<String>, value: Vec<u8>) {
        self.slots.insert(slot.into(), value);
    }

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::StorageMiss`] when the slot is empty.
    pub fn get(&self, slot: &str) -> Result<&[u8], TeeError> {
        self.slots
            .get(slot)
            .map(Vec::as_slice)
            .ok_or_else(|| TeeError::StorageMiss { slot: slot.to_owned() })
    }

    /// Whether a slot is populated.
    pub fn contains(&self, slot: &str) -> bool {
        self.slots.contains_key(slot)
    }
}

/// A trusted application running in the secure world.
///
/// Implementations hold their own state; persistent secrets go through the
/// [`SecureStorage`] passed to each invocation.
pub trait Trustlet: Send {
    /// Stable trustlet name used by the normal world to address it.
    fn name(&self) -> &str;

    /// Handles one command invocation.
    ///
    /// # Errors
    ///
    /// Implementations return [`TeeError`] values which the secure monitor
    /// relays verbatim to the normal world.
    fn invoke(
        &mut self,
        command: u32,
        input: &[u8],
        storage: &mut SecureStorage,
    ) -> Result<Vec<u8>, TeeError>;
}

struct LoadedTrustlet {
    trustlet: Box<dyn Trustlet>,
    storage: SecureStorage,
}

/// The secure world: trustlet registry plus the world-switch entry point.
///
/// Interior mutability (a [`Mutex`]) mirrors the fact that the secure
/// monitor serializes SMC calls from all normal-world cores.
pub struct SecureWorld {
    trustlets: Mutex<HashMap<String, LoadedTrustlet>>,
    /// Count of world switches performed, for the latency ablation bench.
    switches: Mutex<u64>,
}

impl fmt::Debug for SecureWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.trustlets.lock().keys().cloned().collect();
        write!(f, "SecureWorld(trustlets: {names:?})")
    }
}

impl Default for SecureWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl SecureWorld {
    /// Boots an empty secure world.
    pub fn new() -> Self {
        SecureWorld { trustlets: Mutex::new(HashMap::new()), switches: Mutex::new(0) }
    }

    /// Loads (or replaces) a trustlet.
    pub fn load_trustlet(&self, trustlet: Box<dyn Trustlet>) {
        let name = trustlet.name().to_owned();
        self.trustlets
            .lock()
            .insert(name, LoadedTrustlet { trustlet, storage: SecureStorage::new() });
    }

    /// The world-switch entry point: routes `command`+`input` to the named
    /// trustlet and returns its reply buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::TrustletNotFound`] or whatever the trustlet
    /// itself reports.
    pub fn invoke(&self, trustlet: &str, command: u32, input: &[u8]) -> Result<Vec<u8>, TeeError> {
        *self.switches.lock() += 1;
        let mut reg = self.trustlets.lock();
        let loaded = reg
            .get_mut(trustlet)
            .ok_or_else(|| TeeError::TrustletNotFound { name: trustlet.to_owned() })?;
        loaded.trustlet.invoke(command, input, &mut loaded.storage)
    }

    /// Number of world switches performed so far.
    pub fn switch_count(&self) -> u64 {
        *self.switches.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trustlet that stores and retrieves a secret via secure storage.
    struct Vault;

    const CMD_PUT: u32 = 1;
    const CMD_GET: u32 = 2;

    impl Trustlet for Vault {
        fn name(&self) -> &str {
            "vault"
        }

        fn invoke(
            &mut self,
            command: u32,
            input: &[u8],
            storage: &mut SecureStorage,
        ) -> Result<Vec<u8>, TeeError> {
            match command {
                CMD_PUT => {
                    storage.put("secret", input.to_vec());
                    Ok(Vec::new())
                }
                CMD_GET => Ok(storage.get("secret")?.to_vec()),
                other => Err(TeeError::BadCommand { command: other }),
            }
        }
    }

    #[test]
    fn invoke_routes_to_trustlet() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        world.invoke("vault", CMD_PUT, b"keybox").unwrap();
        assert_eq!(world.invoke("vault", CMD_GET, &[]).unwrap(), b"keybox");
    }

    #[test]
    fn missing_trustlet_reported() {
        let world = SecureWorld::new();
        assert_eq!(
            world.invoke("widevine", 1, &[]),
            Err(TeeError::TrustletNotFound { name: "widevine".into() })
        );
    }

    #[test]
    fn bad_command_propagates() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        assert_eq!(world.invoke("vault", 99, &[]), Err(TeeError::BadCommand { command: 99 }));
    }

    #[test]
    fn storage_miss_propagates() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        assert_eq!(
            world.invoke("vault", CMD_GET, &[]),
            Err(TeeError::StorageMiss { slot: "secret".into() })
        );
    }

    #[test]
    fn storage_is_per_trustlet() {
        struct Vault2;
        impl Trustlet for Vault2 {
            fn name(&self) -> &str {
                "vault2"
            }
            fn invoke(
                &mut self,
                _c: u32,
                _i: &[u8],
                storage: &mut SecureStorage,
            ) -> Result<Vec<u8>, TeeError> {
                Ok(storage.get("secret")?.to_vec())
            }
        }
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        world.load_trustlet(Box::new(Vault2));
        world.invoke("vault", CMD_PUT, b"x").unwrap();
        // vault2 cannot see vault's storage.
        assert!(matches!(world.invoke("vault2", 0, &[]), Err(TeeError::StorageMiss { .. })));
    }

    #[test]
    fn reloading_a_trustlet_resets_storage() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        world.invoke("vault", CMD_PUT, b"old").unwrap();
        world.load_trustlet(Box::new(Vault));
        assert!(world.invoke("vault", CMD_GET, &[]).is_err());
    }

    #[test]
    fn switch_counter_increments() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        assert_eq!(world.switch_count(), 0);
        world.invoke("vault", CMD_PUT, b"x").unwrap();
        let _ = world.invoke("nope", 0, &[]);
        assert_eq!(world.switch_count(), 2, "failed switches still count");
    }

    #[test]
    fn secure_storage_basics() {
        let mut s = SecureStorage::new();
        assert!(!s.contains("a"));
        s.put("a", vec![1, 2]);
        assert!(s.contains("a"));
        assert_eq!(s.get("a").unwrap(), &[1, 2]);
    }

    #[test]
    fn debug_redacts_contents() {
        let mut s = SecureStorage::new();
        s.put("device_key", vec![0xAA; 16]);
        let d = format!("{s:?}");
        assert!(d.contains("device_key"), "slot names visible");
        assert!(!d.contains("170") && !d.to_lowercase().contains("aa"), "contents hidden: {d}");
    }

    #[test]
    fn world_debug_lists_trustlets() {
        let world = SecureWorld::new();
        world.load_trustlet(Box::new(Vault));
        assert!(format!("{world:?}").contains("vault"));
    }
}
