//! Ablations A1 and A2 (EXPERIMENTS.md): flip one policy axis across all
//! ten app profiles and pin what the attack recovers.
//!
//! - A1: revocation enforcement decides how many apps fall to a
//!   discontinued device.
//! - A2: the audio key policy decides how many tracks one leaked 540p
//!   video key unlocks.

use wideleak_attack::reconstruct::reconstruct_media;
use wideleak_attack::recover::attack_all;
use wideleak_dash::mpd::Mpd;
use wideleak_device::net::RemoteEndpoint;
use wideleak_ott::apps::{evaluated_apps, AppProfile};
use wideleak_ott::content::{demo_catalog, key_from_label, kid_from_label, AudioProtection};
use wideleak_ott::ecosystem::{Ecosystem, EcosystemConfig};

/// The paper's ten apps with `edit` applied to every profile.
fn fleet(edit: impl Fn(&mut AppProfile)) -> Ecosystem {
    let mut profiles = evaluated_apps();
    profiles.iter_mut().for_each(edit);
    Ecosystem::with_profiles(EcosystemConfig::fast_for_tests(), profiles, demo_catalog())
}

/// The apps the attack sweep does *not* compromise, in sweep order.
fn resisting(eco: &Ecosystem) -> Vec<String> {
    let outcomes = attack_all(eco);
    assert_eq!(outcomes.len(), 10);
    outcomes.into_iter().filter(|o| !o.succeeded()).map(|o| o.app_name).collect()
}

#[test]
fn a1_revocation_policy_decides_which_apps_resist() {
    // Amazon plays through its embedded DRM on L3, so the platform hooks
    // see no license traffic to replay whatever the revocation policy.
    let everyone: Vec<&str> = evaluated_apps().iter().map(|p| p.name).collect();
    for (policy, enforce, expected) in [
        ("as measured", None, vec!["Disney+", "Amazon Prime Video", "HBO Max", "Starz"]),
        ("nobody enforces", Some(false), vec!["Amazon Prime Video"]),
        ("everybody enforces", Some(true), everyone),
    ] {
        let eco = fleet(|p| p.enforce_revocation = enforce.unwrap_or(p.enforce_revocation));
        assert_eq!(resisting(&eco), expected, "{policy}");
    }
}

#[test]
fn a2_audio_key_policy_decides_what_one_leaked_key_unlocks() {
    // Only hulu's 540p video key leaks (or, last row, no key at all).
    let leaked = "hulu/title-001/video-540";
    let all_three = ["video-540p", "audio-en", "audio-fr"].as_slice();
    for (audio, labels, expected) in [
        (AudioProtection::SharedKeyWithVideo, [leaked].as_slice(), all_three),
        (AudioProtection::DistinctKey, &[leaked], &["video-540p"]),
        (AudioProtection::Clear, &[leaked], all_three),
        (AudioProtection::Clear, &[], &["audio-en", "audio-fr"]),
    ] {
        let eco = fleet(|p| {
            p.audio = audio;
            p.metadata_kids_visible = true;
        });
        let token = eco.accounts().subscribe("hulu", "ablation");
        let raw = eco.backend().handle("manifest/hulu/title-001", token.as_bytes()).unwrap();
        let mpd = Mpd::parse(&String::from_utf8(raw).unwrap()).unwrap();
        let keys: Vec<_> = labels.iter().map(|l| (kid_from_label(l), key_from_label(l))).collect();
        let media = reconstruct_media(eco.backend().as_ref(), &mpd, &keys).unwrap();
        let tracks: Vec<String> = media.tracks.into_iter().map(|t| t.rep_id).collect();
        assert_eq!(tracks, expected, "{audio:?} with {} key(s)", labels.len());
    }
}
