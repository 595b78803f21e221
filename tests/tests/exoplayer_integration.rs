//! ExoPlayer-layer integration: one session licensing distinct video and
//! audio keys (the recommended policy the API makes easy) against the
//! real backend.

use wideleak::android_drm::exoplayer::{ExoError, ExoPlayer, ExoSource};
use wideleak::android_drm::playback::MediaBundle;
use wideleak::android_drm::DrmError;
use wideleak::bmff::fragment::{InitSegment, MediaSegment};
use wideleak::bmff::types::WIDEVINE_SYSTEM_ID;
use wideleak::device::catalog::DeviceModel;
use wideleak::device::net::RemoteEndpoint;
use wideleak::ott::content::{synth_samples, TrackSelector, SEGMENTS_PER_REP};
use wideleak::ott::license::encode_envelope;
use wideleak_tests::fast_ecosystem;

fn bundle(eco: &wideleak::ott::ecosystem::Ecosystem, app: &str, rep: &str) -> MediaBundle {
    let init_bytes =
        eco.backend().handle(&format!("asset/{app}/title-001/{rep}/init"), &[]).unwrap();
    let init = InitSegment::from_bytes(&init_bytes).unwrap();
    let segments = (1..=SEGMENTS_PER_REP)
        .map(|i| {
            let raw =
                eco.backend().handle(&format!("asset/{app}/title-001/{rep}/seg/{i}"), &[]).unwrap();
            MediaSegment::from_bytes(&raw).unwrap()
        })
        .collect();
    MediaBundle { init, segments }
}

#[test]
fn one_session_covers_distinct_video_and_audio_keys() {
    // Amazon is the app with the recommended policy: distinct keys.
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "amazon", "exo-user");
    app.ensure_provisioned().unwrap();

    let video = bundle(&eco, "amazon", "video-1080p");
    let audio = bundle(&eco, "amazon", "audio-en");
    let source = ExoSource::new(video).with_audio(audio);
    assert_eq!(source.required_key_ids().len(), 2, "distinct keys requested together");

    let token = eco.accounts().subscribe("amazon", "exo-user");
    let player = ExoPlayer::new(stack.binder.clone(), WIDEVINE_SYSTEM_ID).unwrap();
    let playback = player
        .prepare_and_play("title-001", [9; 16], &source, |request| {
            eco.backend()
                .handle("license/amazon/title-001", &encode_envelope(&token, request))
                .map_err(|e| DrmError::Cdm(wideleak::cdm::CdmError::Rejected { reason: e }))
        })
        .unwrap();

    let expected_video: Vec<Vec<u8>> = (1..=SEGMENTS_PER_REP)
        .flat_map(|s| {
            synth_samples("amazon", "title-001", &TrackSelector::Video { height: 1080 }, s)
        })
        .collect();
    assert_eq!(
        playback.video_frames.iter().map(|f| f.data.clone()).collect::<Vec<_>>(),
        expected_video
    );
    assert!(!playback.audio_frames.is_empty());
}

#[test]
fn shared_key_source_licenses_one_key() {
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::nexus_5(), false);
    let app = eco.install_app(&stack, "showtime", "exo-shared");
    app.ensure_provisioned().unwrap();

    // Showtime's audio shares the 540p video key.
    let video = bundle(&eco, "showtime", "video-540p");
    let audio = bundle(&eco, "showtime", "audio-en");
    let source = ExoSource::new(video).with_audio(audio);
    assert_eq!(source.required_key_ids().len(), 1, "minimal policy collapses to one key");

    let token = eco.accounts().subscribe("showtime", "exo-shared");
    let player = ExoPlayer::new(stack.binder.clone(), WIDEVINE_SYSTEM_ID).unwrap();
    let playback = player
        .prepare_and_play("title-001", [4; 16], &source, |request| {
            eco.backend()
                .handle("license/showtime/title-001", &encode_envelope(&token, request))
                .map_err(|e| DrmError::Cdm(wideleak::cdm::CdmError::Rejected { reason: e }))
        })
        .unwrap();
    assert!(!playback.video_frames.is_empty());
    assert!(!playback.audio_frames.is_empty());
}

#[test]
fn hd_source_on_l3_fails_cleanly_at_licensing() {
    // ExoPlayer surfaces "key not granted" up front: an L3 device asking
    // for the 1080p rendition is refused before any decode starts.
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::nexus_5(), false);
    let app = eco.install_app(&stack, "showtime", "exo-l3");
    app.ensure_provisioned().unwrap();

    let source = ExoSource::new(bundle(&eco, "showtime", "video-1080p"));
    let token = eco.accounts().subscribe("showtime", "exo-l3");
    let player = ExoPlayer::new(stack.binder.clone(), WIDEVINE_SYSTEM_ID).unwrap();
    let err = player
        .prepare_and_play("title-001", [5; 16], &source, |request| {
            eco.backend()
                .handle("license/showtime/title-001", &encode_envelope(&token, request))
                .map_err(|e| DrmError::Cdm(wideleak::cdm::CdmError::Rejected { reason: e }))
        })
        .unwrap_err();
    assert!(matches!(err, ExoError::Drm(_)), "{err:?}");
}
