//! Hot-path caches for the backend servers.
//!
//! Three paths dominate a fleet's steady-state load: provisioning
//! (RSA key derivation + wrapping), license issuance (policy resolution +
//! key wrapping) and sample decryption (inside the CDM; see
//! `wideleak_cdm::session::DecryptCache`). This module hosts the two
//! server-side caches; `EcosystemConfig::caches` switches all three on
//! or off together.
//!
//! Every cache is a pure accelerator: with caching disabled (the
//! default), every byte the servers emit is identical to the uncached
//! implementation, and with caching *enabled* responses are still
//! byte-identical because only nonce-independent intermediates are
//! cached — nonce-derived IVs, ciphertexts and signatures are recomputed
//! per request.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use wideleak_cdm::messages::KeyControl;
use wideleak_faults::VirtualClock;

/// Hit/miss counters of one cache, snapshot form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the full path.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in permille (integral, so reports stay byte-stable).
    #[must_use]
    pub fn hit_permille(&self) -> u64 {
        match self.lookups() {
            0 => 0,
            n => self.hits * 1000 / n,
        }
    }
}

/// The nonce-independent provisioning material for one device identity.
///
/// Everything here is a function of `(device_key, device_id, RSA key)`
/// alone: the derived wrap/MAC keys and the serialized private-key blob.
/// What is *not* here — IV, ciphertext, signature — depends on the
/// request nonce and is recomputed per response.
#[derive(Clone)]
pub struct ProvisionCertEntry {
    /// The device key the entry was derived from. Doubles as a staleness
    /// check: a keybox rotation changes the device key, and a lookup
    /// presenting a different key is treated as a miss even if the
    /// explicit invalidation was missed.
    pub device_key: [u8; 16],
    /// Keybox-derived AES wrap key.
    pub enc_key: [u8; 16],
    /// Keybox-derived HMAC key.
    pub mac_key: [u8; 32],
    /// Serialized Device RSA Key (TLV of `n`, `e`, `d`, `p`, `q`).
    pub blob: Vec<u8>,
    /// The public half, re-recorded with the trust authority on each hit.
    pub public_key: wideleak_crypto::rsa::RsaPublicKey,
}

impl std::fmt::Debug for ProvisionCertEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProvisionCertEntry(blob: {} bytes)", self.blob.len())
    }
}

/// Provisioning-certificate cache, keyed by device identity (the keybox
/// device id). Invalidated per device on keybox rotation.
#[derive(Default)]
pub struct ProvisionCertCache {
    entries: Mutex<HashMap<Vec<u8>, ProvisionCertEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ProvisionCertCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProvisionCertCache(entries: {})", self.entries.lock().len())
    }
}

impl ProvisionCertCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProvisionCertCache::default()
    }

    /// Looks a device identity up, counting the outcome. The caller's
    /// current `device_key` is cross-checked so an entry that survived a
    /// keybox rotation (missed invalidation) can never serve stale wrap
    /// keys.
    pub fn lookup(&self, device_id: &[u8], device_key: &[u8; 16]) -> Option<ProvisionCertEntry> {
        let entries = self.entries.lock();
        match entries.get(device_id) {
            Some(entry) if entry.device_key == *device_key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if wideleak_telemetry::is_enabled() {
                    wideleak_telemetry::incr("ott.provision.cache.hits");
                }
                Some(entry.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if wideleak_telemetry::is_enabled() {
                    wideleak_telemetry::incr("ott.provision.cache.misses");
                }
                None
            }
        }
    }

    /// Stores the derived material for a device identity.
    pub fn store(&self, device_id: Vec<u8>, entry: ProvisionCertEntry) {
        self.entries.lock().insert(device_id, entry);
    }

    /// Drops a device's entry (keybox rotation).
    pub fn invalidate(&self, device_id: &[u8]) {
        self.entries.lock().remove(device_id);
    }

    /// Number of cached identities.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Cache key of one resolved license plan. Everything that feeds policy
/// resolution participates; the nonce deliberately does not (it only
/// feeds the response RNG, which is recomputed per request).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LicensePlanKey {
    /// Requesting device identity.
    pub device_id: Vec<u8>,
    /// App slug.
    pub app: String,
    /// Title id.
    pub title: String,
    /// `AudioProtection` discriminant of the app policy.
    pub audio: u8,
    /// Whether the app enforces revocation.
    pub enforce_revocation: bool,
    /// Whether the app licenses the URI channel.
    pub uri_channel: bool,
    /// Effective (post-attestation-clamp) security level discriminant.
    pub effective_level: u8,
    /// Requested key ids, sorted (an empty list means "everything").
    pub key_ids: Vec<[u8; 16]>,
}

/// One emitted key of a cached license plan.
#[derive(Debug, Clone)]
pub struct LicensePlanEntry {
    /// Key id.
    pub kid: [u8; 16],
    /// The plaintext content key (the cache lives inside the server's
    /// trust boundary, exactly like the label-derivation oracle it
    /// replaces).
    pub content_key: [u8; 16],
    /// Usage restrictions to attach.
    pub control: KeyControl,
}

struct LicensePlan {
    entries: Vec<LicensePlanEntry>,
    inserted_at_ms: u64,
}

/// License-response cache: maps a [`LicensePlanKey`] to the resolved key
/// plan. Entries live for the license duration on the shared virtual
/// clock — a plan older than the license it produced is recomputed, so
/// caching can never stretch `KeyExpired` semantics.
pub struct LicenseResponseCache {
    plans: Mutex<HashMap<LicensePlanKey, LicensePlan>>,
    clock: std::sync::Arc<VirtualClock>,
    ttl_ms: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for LicenseResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LicenseResponseCache(plans: {}, ttl: {}ms)",
            self.plans.lock().len(),
            self.ttl_ms
        )
    }
}

impl LicenseResponseCache {
    /// Creates a cache whose entries expire after `ttl_ms` of virtual
    /// time.
    #[must_use]
    pub fn new(clock: std::sync::Arc<VirtualClock>, ttl_ms: u64) -> Self {
        LicenseResponseCache {
            plans: Mutex::new(HashMap::new()),
            clock,
            ttl_ms,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached plan for `key`, or resolves, stores and
    /// returns a fresh one when the key is absent or its TTL lapsed
    /// (a lapsed plan is evicted first). The map stays locked across
    /// `resolve`, so concurrent requests for one missing plan resolve it
    /// exactly once and the hit/miss counts are a function of the
    /// request sequence, not of thread interleaving. Errors are returned
    /// uncached.
    ///
    /// # Errors
    ///
    /// Whatever `resolve` returns.
    pub fn get_or_resolve<E>(
        &self,
        key: LicensePlanKey,
        resolve: impl FnOnce() -> Result<Vec<LicensePlanEntry>, E>,
    ) -> Result<Vec<LicensePlanEntry>, E> {
        let now = self.clock.now_ms();
        let mut plans = self.plans.lock();
        if let Some(plan) = plans.get(&key) {
            if now.saturating_sub(plan.inserted_at_ms) < self.ttl_ms {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if wideleak_telemetry::is_enabled() {
                    wideleak_telemetry::incr("ott.license.cache.hits");
                }
                return Ok(plan.entries.clone());
            }
            plans.remove(&key);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if wideleak_telemetry::is_enabled() {
            wideleak_telemetry::incr("ott.license.cache.misses");
        }
        let entries = resolve()?;
        plans.insert(key, LicensePlan { entries: entries.clone(), inserted_at_ms: now });
        Ok(entries)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.lock().is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn plan_key(device: &[u8], title: &str) -> LicensePlanKey {
        LicensePlanKey {
            device_id: device.to_vec(),
            app: "netflix".into(),
            title: title.into(),
            audio: 0,
            enforce_revocation: false,
            uri_channel: true,
            effective_level: 2,
            key_ids: vec![[0xAA; 16]],
        }
    }

    #[test]
    fn config_default_is_everything_off() {
        assert!(!crate::ecosystem::EcosystemConfig::default().caches);
    }

    #[test]
    fn cert_cache_hits_and_key_rotation_staleness() {
        let cache = ProvisionCertCache::new();
        let entry = ProvisionCertEntry {
            device_key: [1; 16],
            enc_key: [2; 16],
            mac_key: [3; 32],
            blob: vec![4; 64],
            public_key: wideleak_crypto::rsa::RsaPublicKey::new(
                wideleak_bigint::BigUint::from_u64(3233),
                wideleak_bigint::BigUint::from_u64(17),
            ),
        };
        assert!(cache.lookup(b"dev", &[1; 16]).is_none());
        cache.store(b"dev".to_vec(), entry);
        assert!(cache.lookup(b"dev", &[1; 16]).is_some());
        // Rotated keybox (different device key): stale entry is not served.
        assert!(cache.lookup(b"dev", &[9; 16]).is_none());
        cache.invalidate(b"dev");
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(cache.stats().hit_permille(), 333);
    }

    /// A resolver that counts its calls and returns one fixed entry.
    fn counting_resolver(
        calls: &std::cell::Cell<u32>,
    ) -> impl FnOnce() -> Result<Vec<LicensePlanEntry>, ()> + '_ {
        move || {
            calls.set(calls.get() + 1);
            Ok(vec![LicensePlanEntry {
                kid: [0xAA; 16],
                content_key: [0xBB; 16],
                control: KeyControl {
                    max_resolution_height: 540,
                    min_security_level: wideleak_device::catalog::SecurityLevel::L3,
                    duration_seconds: 1,
                },
            }])
        }
    }

    #[test]
    fn license_cache_ttl_expires_on_the_virtual_clock() {
        let clock = Arc::new(VirtualClock::new());
        let cache = LicenseResponseCache::new(clock.clone(), 1_000);
        let key = plan_key(b"dev", "title-001");
        let calls = std::cell::Cell::new(0);
        assert_eq!(cache.get_or_resolve(key.clone(), counting_resolver(&calls)).unwrap().len(), 1);
        assert_eq!(cache.get_or_resolve(key.clone(), counting_resolver(&calls)).unwrap().len(), 1);
        assert_eq!(calls.get(), 1, "second request served from the cache");
        clock.advance_ms(999);
        cache.get_or_resolve(key.clone(), counting_resolver(&calls)).unwrap();
        assert_eq!(calls.get(), 1, "just inside the TTL");
        clock.advance_ms(1);
        assert!(cache.get_or_resolve(key.clone(), || Err(())).is_err());
        assert_eq!(cache.len(), 0, "expired plan evicted, the error not cached");
        cache.get_or_resolve(key, counting_resolver(&calls)).unwrap();
        assert_eq!(calls.get(), 2, "TTL lapsed: recompute");
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 3 });
    }

    #[test]
    fn distinct_plan_keys_do_not_collide() {
        let clock = Arc::new(VirtualClock::new());
        let cache = LicenseResponseCache::new(clock, u64::MAX);
        let calls = std::cell::Cell::new(0);
        for (device, title) in
            [(b"dev-a", "title-001"), (b"dev-b", "title-001"), (b"dev-a", "title-002")]
        {
            cache.get_or_resolve(plan_key(device, title), counting_resolver(&calls)).unwrap();
        }
        assert_eq!(calls.get(), 3, "every distinct key resolves on its own");
        cache.get_or_resolve(plan_key(b"dev-a", "title-001"), counting_resolver(&calls)).unwrap();
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn concurrent_misses_on_one_plan_resolve_it_once() {
        let cache = LicenseResponseCache::new(Arc::new(VirtualClock::new()), u64::MAX);
        let resolves = std::sync::atomic::AtomicU32::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    // All eight request the missing plan at once.
                    start.wait();
                    cache
                        .get_or_resolve(plan_key(b"dev", "title-001"), || {
                            resolves.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                            Ok::<_, ()>(Vec::new())
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(resolves.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 7, misses: 1 });
    }
}
