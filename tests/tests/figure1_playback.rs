//! End-to-end reproduction of Figure 1: the encrypted-content playback
//! sequence, across devices, transports and apps.

use wideleak::android_drm::binder::TransportKind;
use wideleak::android_drm::playback::{PlaybackStep, FIGURE_1_SEQUENCE};
use wideleak::device::catalog::DeviceModel;
use wideleak_tests::fast_ecosystem;

#[test]
fn figure_1_holds_on_l1_and_l3() {
    let eco = fast_ecosystem();
    for model in [DeviceModel::pixel_6(), DeviceModel::nexus_5(), DeviceModel::midrange_l3()] {
        let stack = eco.boot_device(model.clone(), false);
        let app = eco.install_app(&stack, "ocs", "fig1-user");
        let outcome = app.play("title-001").unwrap();
        let trace = outcome.trace.expect("platform playback traces");
        assert!(trace.matches_figure_1(), "{}: {:?}", model.name, trace.steps());
    }
}

#[test]
fn figure_1_holds_over_the_tcp_binder() {
    let eco = fast_ecosystem();
    let stack = eco.boot_device_with(DeviceModel::pixel_6(), false, TransportKind::Tcp);
    let app = eco.install_app(&stack, "salto", "fig1-tcp");
    let outcome = app.play("title-002").unwrap();
    assert!(outcome.trace.unwrap().matches_figure_1());
}

#[test]
fn figure_1_holds_for_every_platform_widevine_app() {
    let eco = fast_ecosystem();
    for profile in eco.profiles().to_vec() {
        let stack = eco.boot_device(DeviceModel::pixel_6(), false);
        let app = eco.install_app(&stack, profile.slug, "fig1-sweep");
        let outcome = app.play("title-001").unwrap();
        // On L1 all ten apps take the platform path (Amazon included).
        let trace = outcome.trace.expect("platform path on L1");
        assert!(trace.matches_figure_1(), "{}", profile.name);
    }
}

#[test]
fn license_acquisition_strictly_precedes_decryption() {
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "hulu", "ordering");
    let trace = app.play("title-001").unwrap().trace.unwrap();
    let pos = |s: PlaybackStep| trace.steps().iter().position(|&x| x == s).unwrap();
    assert!(pos(PlaybackStep::License) < pos(PlaybackStep::Decrypt));
    assert!(pos(PlaybackStep::OpenSessionCdm) < pos(PlaybackStep::GetKeyRequestCdm));
    assert!(pos(PlaybackStep::GetMedia) < pos(PlaybackStep::QueueSecureInputBuffer));
}

#[test]
fn the_constant_and_the_trace_agree() {
    // FIGURE_1_SEQUENCE is the figure; a real run must produce it, not
    // some other accepted permutation.
    let eco = fast_ecosystem();
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    let app = eco.install_app(&stack, "mycanal", "exact");
    let trace = app.play("title-001").unwrap().trace.unwrap();
    assert_eq!(trace.steps(), FIGURE_1_SEQUENCE);
}
