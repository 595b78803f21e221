//! Hook-trace analysis: what the `_oecc` call log reveals.

use wideleak_cdm::oemcrypto::{L1_LIBRARY, L3_LIBRARY};
use wideleak_dash::mpd::Mpd;
use wideleak_device::catalog::SecurityLevel;
use wideleak_device::hooks::CallEvent;

/// Summary of one recorded hook log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnalysis {
    /// Total intercepted calls.
    pub call_count: usize,
    /// Whether any Widevine CDM function fired.
    pub widevine_active: bool,
    /// The observed security level: L1 when control flow reached
    /// `liboemcrypto.so`, L3 when every call stayed inside
    /// `libwvdrmengine.so` — exactly the paper's discrimination rule.
    pub observed_level: Option<SecurityLevel>,
    /// Whether the non-DASH generic crypto API was exercised.
    pub generic_crypto_used: bool,
}

/// Analyzes a hook log.
pub fn analyze(log: &[CallEvent]) -> TraceAnalysis {
    let widevine_active = !log.is_empty();
    let reached_oemcrypto = log.iter().any(|e| e.library == L1_LIBRARY);
    let stayed_in_engine = log.iter().any(|e| e.library == L3_LIBRARY);
    let observed_level = if reached_oemcrypto {
        Some(SecurityLevel::L1)
    } else if stayed_in_engine {
        Some(SecurityLevel::L3)
    } else {
        None
    };
    let generic_crypto_used = log.iter().any(|e| e.function.contains("Generic_"));
    TraceAnalysis { call_count: log.len(), widevine_active, observed_level, generic_crypto_used }
}

/// Per-function call counts — the raw statistic the paper's tool logs
/// while "intercept\[ing\] and not\[ing\] any function called within the CDM
/// process linked to the Widevine protocol".
pub fn call_histogram(log: &[CallEvent]) -> Vec<(String, usize)> {
    let mut counts: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for e in log {
        *counts.entry(format!("{}!{}", e.library, e.function)).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Dumps the *outputs* of every generic-decrypt call — the technique the
/// paper uses to recover Netflix's protected URIs despite the secure
/// channel.
pub fn generic_decrypt_outputs(log: &[CallEvent]) -> Vec<Vec<u8>> {
    log.iter()
        .filter(|e| e.function.contains("Generic_Decrypt"))
        .filter_map(|e| e.result.clone())
        .collect()
}

/// Tries to recover an MPD from intercepted generic-decrypt outputs.
pub fn recover_mpd_from_trace(log: &[CallEvent]) -> Option<Mpd> {
    generic_decrypt_outputs(log).into_iter().find_map(|bytes| {
        let text = String::from_utf8(bytes).ok()?;
        Mpd::parse(&text).ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(library: &str, function: &str) -> CallEvent {
        CallEvent::simple(library, function)
    }

    #[test]
    fn empty_log_means_no_widevine() {
        let a = analyze(&[]);
        assert!(!a.widevine_active);
        assert_eq!(a.observed_level, None);
        assert_eq!(a.call_count, 0);
    }

    #[test]
    fn l3_when_calls_stay_in_engine() {
        let log =
            vec![event(L3_LIBRARY, "_oecc04_OpenSession"), event(L3_LIBRARY, "_oecc21_DecryptCTR")];
        let a = analyze(&log);
        assert!(a.widevine_active);
        assert_eq!(a.observed_level, Some(SecurityLevel::L3));
    }

    #[test]
    fn l1_when_control_flow_reaches_oemcrypto() {
        let log =
            vec![event(L3_LIBRARY, "_oecc04_OpenSession"), event(L1_LIBRARY, "_oecc21_DecryptCTR")];
        assert_eq!(analyze(&log).observed_level, Some(SecurityLevel::L1));
    }

    #[test]
    fn generic_crypto_detection() {
        assert!(!analyze(&[event(L3_LIBRARY, "_oecc21_DecryptCTR")]).generic_crypto_used);
        assert!(analyze(&[event(L3_LIBRARY, "_oecc42_Generic_Decrypt")]).generic_crypto_used);
    }

    #[test]
    fn generic_decrypt_output_dumping() {
        let mut ev = event(L3_LIBRARY, "_oecc42_Generic_Decrypt");
        ev.result = Some(b"<MPD...".to_vec());
        let other = event(L3_LIBRARY, "_oecc41_Generic_Encrypt");
        assert_eq!(generic_decrypt_outputs(&[ev, other]), vec![b"<MPD...".to_vec()]);
    }

    #[test]
    fn mpd_recovery_from_trace() {
        let mpd = Mpd { title: "secret".into(), periods: vec![] };
        let mut ev = event(L3_LIBRARY, "_oecc42_Generic_Decrypt");
        ev.result = Some(mpd.to_xml_string().into_bytes());
        let recovered = recover_mpd_from_trace(&[ev]).unwrap();
        assert_eq!(recovered.title, "secret");
        // Non-MPD outputs do not confuse it.
        let mut junk = event(L3_LIBRARY, "_oecc42_Generic_Decrypt");
        junk.result = Some(vec![0xff, 0x00]);
        assert!(recover_mpd_from_trace(&[junk]).is_none());
    }

    #[test]
    fn histogram_counts_per_function() {
        let log = vec![
            event(L3_LIBRARY, "_oecc04_OpenSession"),
            event(L3_LIBRARY, "_oecc21_DecryptCTR"),
            event(L3_LIBRARY, "_oecc21_DecryptCTR"),
            event(L1_LIBRARY, "_oecc21_DecryptCTR"),
        ];
        let hist = call_histogram(&log);
        assert_eq!(hist.len(), 3, "library-qualified keys");
        let decrypt_l3 =
            hist.iter().find(|(k, _)| k == &format!("{L3_LIBRARY}!_oecc21_DecryptCTR")).unwrap();
        assert_eq!(decrypt_l3.1, 2);
        assert!(call_histogram(&[]).is_empty());
    }
}
