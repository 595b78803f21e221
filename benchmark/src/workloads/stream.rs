//! `stream`: the steady state of playback — one `DrmCall::DecryptSample`
//! of a 4 KiB sample per operation on an already licensed session, over
//! the TCP binder transport. Operations alternate between an L1 handset
//! (decryption in the TEE) and an L3 handset (decryption in the media
//! DRM server), and between `cenc` (AES-CTR, the forward cipher) and
//! `cbcs` 1:9 (AES-CBC, the inverse cipher), so an AES change that
//! speeds one direction and slows the other still shows. No RSA runs
//! after set-up, so the handsets get 768-bit keys, which keeps set-up
//! short.

use std::sync::Arc;

use wideleak::android_drm::binder::{DrmCall, Transport, TransportKind};
use wideleak::android_drm::mediadrm::MediaDrm;
use wideleak::bmff::types::{KeyId, WIDEVINE_SYSTEM_ID};
use wideleak::cdm::oemcrypto::SampleCrypto;
use wideleak::cdm::wire::TlvWriter;
use wideleak::device::catalog::DeviceModel;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::content::{key_from_label, kid_from_label, track_key_label, TrackSelector};
use wideleak::ott::ecosystem::{DeviceStack, Ecosystem, EcosystemConfig};

use super::setup_err;
use crate::probes::{seeded_array, seeded_bytes, CBCS_PATTERN, SAMPLE_BYTES};
use crate::report::Report;
use crate::stats::mix;
use crate::{BenchError, Workload};

/// The licensed app and title.
const APP: &str = "ocs";
const TITLE: &str = "title-001";

/// Device RSA key size; only set-up uses the key.
const RSA_BITS: usize = 768;

/// Pre-encrypted samples per (handset, scheme), each under its own IV.
const POOL: usize = 64;

/// One pre-encrypted sample.
struct Sample {
    crypto: SampleCrypto,
    ciphertext: Vec<u8>,
    plaintext: Vec<u8>,
}

/// A licensed session on one handset with its samples.
struct Lane {
    _stack: DeviceStack,
    binder: Arc<dyn Transport>,
    session: u32,
    kid: KeyId,
    /// `[cenc, cbcs]` pools.
    pools: [Vec<Sample>; 2],
}

/// The set-up `stream` workload.
pub struct Stream {
    _eco: Ecosystem,
    lanes: Vec<Lane>,
}

impl Stream {
    /// Provisions and licenses one session per handset for the 540p
    /// video key (served to L1 and L3 alike) and encrypts the sample
    /// pools under that key.
    ///
    /// # Errors
    ///
    /// Provisioning or licensing was refused.
    pub fn set_up(seed: u64) -> Result<Self, BenchError> {
        let eco = Ecosystem::new(EcosystemConfig {
            seed,
            rsa_bits: RSA_BITS,
            transport: TransportKind::Tcp,
            ..EcosystemConfig::default()
        });
        let profile = eco.profile(APP).ok_or_else(|| BenchError::Setup(format!("no app {APP}")))?;
        let label =
            track_key_label(APP, TITLE, &TrackSelector::Video { height: 540 }, profile.audio)
                .expect("video tracks are always keyed");
        let (kid, key) = (kid_from_label(&label), key_from_label(&label));
        let token = eco.accounts().subscribe(APP, "bench-user");

        let mut lanes = Vec::new();
        for (lane, model) in
            [DeviceModel::pixel_6(), DeviceModel::midrange_l3()].into_iter().enumerate()
        {
            let stack = eco.boot_device(model, false);
            let drm = MediaDrm::new(stack.binder.clone(), WIDEVINE_SYSTEM_ID)
                .map_err(setup_err("MediaDrm"))?;
            let nonce: [u8; 16] = seeded_array(mix(seed, 100 + lane as u64));
            let request =
                drm.get_provision_request(nonce).map_err(setup_err("provision request"))?;
            let response = eco
                .backend()
                .handle(&format!("provision/{APP}"), &request)
                .map_err(setup_err("provisioning"))?;
            drm.provide_provision_response(nonce, response)
                .map_err(setup_err("provision response"))?;
            let session = drm.open_session(nonce).map_err(setup_err("open session"))?;
            let request =
                drm.get_key_request(session, TITLE, &[kid]).map_err(setup_err("key request"))?;
            let mut envelope = TlvWriter::new();
            envelope.string(1, &token).bytes(2, &request);
            let response = eco
                .backend()
                .handle(&format!("license/{APP}/{TITLE}"), &envelope.finish())
                .map_err(setup_err("licensing"))?;
            let kids =
                drm.provide_key_response(session, response).map_err(setup_err("key response"))?;
            if !kids.contains(&kid) {
                return Err(BenchError::Setup(format!("the license for {label} lacks its key")));
            }

            let sample_seed =
                |scheme: u64, i: usize| mix(seed, (lane as u64) << 40 | scheme << 32 | i as u64);
            let pools = [0u64, 1].map(|scheme| {
                (0..POOL)
                    .map(|i| {
                        let s = sample_seed(scheme, i);
                        let plaintext = seeded_bytes(s, SAMPLE_BYTES);
                        let (crypto, ciphertext) = if scheme == 0 {
                            let iv: [u8; 8] = seeded_array(mix(s, 1));
                            let ct = wideleak::cenc::ctr::encrypt_sample(&key, iv, &plaintext, &[]);
                            (SampleCrypto::Cenc { iv }, ct)
                        } else {
                            let constant_iv: [u8; 16] = seeded_array(mix(s, 1));
                            let ct = wideleak::cenc::cbcs::encrypt_sample(
                                &key,
                                constant_iv,
                                CBCS_PATTERN,
                                &plaintext,
                                &[],
                            );
                            let crypto = SampleCrypto::Cbcs {
                                constant_iv,
                                crypt_blocks: CBCS_PATTERN.crypt_blocks,
                                skip_blocks: CBCS_PATTERN.skip_blocks,
                            };
                            (crypto, ct)
                        };
                        let ciphertext = ciphertext.expect("an empty subsample map always fits");
                        Sample { crypto, ciphertext, plaintext }
                    })
                    .collect()
            });
            let binder = stack.binder.clone();
            lanes.push(Lane { _stack: stack, binder, session, kid, pools });
        }
        Ok(Stream { _eco: eco, lanes })
    }

    /// Decrypts sample `idx` of one pool and compares it with its
    /// plaintext.
    fn decrypt(&self, lane: usize, scheme: usize, idx: usize) -> bool {
        let lane = &self.lanes[lane];
        let sample = &lane.pools[scheme][idx];
        let reply = lane.binder.transact(DrmCall::DecryptSample {
            session_id: lane.session,
            kid: lane.kid,
            crypto: sample.crypto.clone(),
            data: sample.ciphertext.clone(),
            subsamples: Vec::new(),
        });
        reply.and_then(|r| r.into_bytes()).is_ok_and(|out| out == sample.plaintext)
    }

    #[cfg(test)]
    pub(crate) fn corrupt_sample(&mut self, lane: usize, scheme: usize, idx: usize) {
        self.lanes[lane].pools[scheme][idx].ciphertext[0] ^= 0x80;
    }
}

impl Workload for Stream {
    fn op(&mut self, i: u64) -> bool {
        let i = i as usize;
        self.decrypt(i % 2, (i / 2) % 2, (i / 4) % POOL)
    }

    fn cycle(&self) -> u64 {
        4
    }

    fn labels(&self, report: &mut Report) {
        report.label("rsa_bits", RSA_BITS);
        report.label("transport", "tcp");
        report.label("sample_bytes", SAMPLE_BYTES);
        report.label("schemes", "cenc,cbcs-1:9");
        report.label("devices", "pixel_6(L1),midrange_l3(L3)");
        report.label("load_threads", 1);
    }
}
