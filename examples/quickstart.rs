//! Quickstart: boot the ecosystem, play a protected title on a modern
//! device, and watch the Figure-1 sequence happen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wideleak::device::catalog::DeviceModel;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};

fn main() {
    println!("== WideLeak quickstart ==\n");
    println!("booting the OTT ecosystem (servers, CDN, 10 app profiles)...");
    let eco = Ecosystem::new(EcosystemConfig::default());

    println!("booting a modern TEE-capable handset ({})...", DeviceModel::pixel_6().name);
    let stack = eco.boot_device(DeviceModel::pixel_6(), false);
    println!("  CDM v{} at {}\n", stack.cdm.cdm_version(), stack.cdm.security_level());

    println!("installing Showtime and subscribing as 'alice'...");
    let app = eco.install_app(&stack, "showtime", "alice");

    println!("playing '{}'...\n", eco.titles()[0].name);
    let outcome = app.play(&eco.titles()[0].id).expect("playback succeeds");

    println!("playback summary:");
    println!("  platform Widevine used : {}", outcome.used_platform_widevine);
    println!("  resolution             : {}x{}", outcome.resolution.0, outcome.resolution.1);
    println!("  video samples decoded  : {}", outcome.video_samples.len());
    println!("  audio samples decoded  : {}", outcome.audio_samples.len());
    println!(
        "  subtitles              : {}",
        outcome.subtitle_text.as_deref().map_or("(none)", |_| "clear WebVTT")
    );

    let trace = outcome.trace.expect("platform playback records a trace");
    println!("\nFigure-1 protocol sequence ({} steps):", trace.steps().len());
    for (i, step) in trace.steps().iter().enumerate() {
        println!("  {:>2}. {:?}", i + 1, step);
    }
    println!("\nsequence matches the paper's Figure 1: {}", trace.matches_figure_1());
}
