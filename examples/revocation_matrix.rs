//! Q4: which apps still serve discontinued devices?
//!
//! Plays one title per app on three device generations and tabulates the
//! outcomes — the availability-versus-security trade-off of §IV-C Q4.
//!
//! ```text
//! cargo run --release --example revocation_matrix
//! ```

use wideleak::device::catalog::DeviceModel;
use wideleak::ott::ecosystem::{Ecosystem, EcosystemConfig};
use wideleak::ott::provisioning::REVOCATION_FLOOR;
use wideleak::ott::OttError;

fn main() {
    println!("== Q4 revocation matrix ==\n");
    let eco = Ecosystem::new(EcosystemConfig::default());
    let title = eco.titles()[0].id.clone();

    let devices = [
        ("Pixel 6 (L1, current)", DeviceModel::pixel_6()),
        ("Midrange (L3, current)", DeviceModel::midrange_l3()),
        ("Nexus 5 (L3, discontinued)", DeviceModel::nexus_5()),
    ];

    print!("{:<22}", "app");
    for (name, _) in &devices {
        print!("  {name:<28}");
    }
    println!();
    println!("{}", "-".repeat(22 + devices.len() * 30));

    for profile in eco.profiles().to_vec() {
        print!("{:<22}", profile.name);
        for (_, model) in &devices {
            let stack = eco.boot_device(model.clone(), false);
            let app = eco.install_app(&stack, profile.slug, "matrix-user");
            let cell = match app.play(&title) {
                Ok(o) if o.used_platform_widevine => {
                    format!("plays {}x{}", o.resolution.0, o.resolution.1)
                }
                Ok(o) => format!("plays {}x{} (custom DRM)", o.resolution.0, o.resolution.1),
                Err(OttError::DeviceRevoked { .. }) => "REVOKED at provisioning".to_owned(),
                Err(e) => format!("error: {e}"),
            };
            print!("  {cell:<28}");
        }
        println!();
    }

    println!(
        "\nrevocation floor: CDM >= {REVOCATION_FLOOR} (Nexus 5 ships v{})",
        DeviceModel::nexus_5().cdm_version,
    );
    println!("only Disney+, HBO Max and Starz enforce it — the rest choose reach over security.");
}
