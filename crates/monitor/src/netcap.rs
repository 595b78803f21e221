//! Interception-proxy (network capture) analysis.
//!
//! After the SSL-repinning bypass, every request the app makes is visible
//! in plaintext. The monitor mines the capture for the Media Presentation
//! Description and the asset URIs it references.

use wideleak_dash::mpd::Mpd;
use wideleak_device::net::CapturedExchange;

/// Finds the first plaintext MPD in a capture.
pub fn find_mpd(capture: &[CapturedExchange]) -> Option<Mpd> {
    capture.iter().find_map(|ex| {
        let text = String::from_utf8(ex.response.clone()).ok()?;
        Mpd::parse(&text).ok()
    })
}

/// Whether any manifest-path exchange has a non-MPD (opaque) response —
/// the signature of a URI-protection channel like Netflix's.
pub fn has_opaque_manifest(capture: &[CapturedExchange]) -> bool {
    capture.iter().any(|ex| {
        ex.path.starts_with("manifest/")
            && String::from_utf8(ex.response.clone())
                .ok()
                .and_then(|t| Mpd::parse(&t).ok())
                .is_none()
            && !ex.response.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(path: &str, response: Vec<u8>) -> CapturedExchange {
        CapturedExchange { path: path.into(), request: vec![], response }
    }

    #[test]
    fn finds_plaintext_mpd() {
        let mpd = Mpd { title: "t".into(), periods: vec![] };
        let cap = vec![
            exchange("license/app/title", vec![1, 2, 3]),
            exchange("manifest/app/title", mpd.to_xml_string().into_bytes()),
        ];
        assert_eq!(find_mpd(&cap).unwrap().title, "t");
        assert!(!has_opaque_manifest(&cap));
    }

    #[test]
    fn detects_opaque_manifest() {
        let cap = vec![exchange("manifest/netflix/title", vec![0xde, 0xad])];
        assert!(find_mpd(&cap).is_none());
        assert!(has_opaque_manifest(&cap));
    }

    #[test]
    fn empty_manifest_response_is_not_opaque() {
        let cap = vec![exchange("manifest/app/title", vec![])];
        assert!(!has_opaque_manifest(&cap));
    }
}
