//! A TLS transport with certificate pinning and an interception proxy.
//!
//! OTT apps pin their backend certificates, so a plain man-in-the-middle
//! proxy breaks the handshake. The paper defeats this with a Frida-based
//! *SSL repinning* bypass, after which Burp sees every plaintext request.
//! This module models the three states that matter:
//!
//! 1. no proxy — traffic flows, nobody observes it;
//! 2. proxy attached, pinning intact — the connection **fails** (apps
//!    detect the foreign certificate);
//! 3. proxy attached, repinning bypass applied — traffic flows *and* the
//!    proxy records every request/response in plaintext.

use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

/// Errors surfaced by the network stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Certificate pinning rejected the proxy's certificate.
    PinningViolation,
    /// The remote endpoint rejected the request.
    EndpointError {
        /// The endpoint's error message.
        message: String,
    },
    /// The connection dropped mid-request (injected or real resets).
    ConnectionReset,
    /// The request exceeded the caller's per-call budget.
    TimedOut,
}

impl NetError {
    /// A stable lowercase label for telemetry error-class counters.
    pub fn class(&self) -> &'static str {
        match self {
            NetError::PinningViolation => "pinning_violation",
            NetError::EndpointError { .. } => "endpoint_error",
            NetError::ConnectionReset => "connection_reset",
            NetError::TimedOut => "timed_out",
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::PinningViolation => {
                f.write_str("TLS handshake failed: pinned certificate mismatch")
            }
            NetError::EndpointError { message } => write!(f, "endpoint error: {message}"),
            NetError::ConnectionReset => f.write_str("connection reset by peer"),
            NetError::TimedOut => f.write_str("request timed out"),
        }
    }
}

impl std::error::Error for NetError {}

impl wideleak_faults::ErrorClass for NetError {
    fn class(&self) -> &'static str {
        Self::class(self)
    }
}

/// A remote HTTP-like endpoint (implemented by the OTT backend servers).
pub trait RemoteEndpoint: Send + Sync {
    /// Handles one request, returning the response body.
    ///
    /// # Errors
    ///
    /// Implementations return an error message describing the rejection.
    fn handle(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, String>;
}

/// One plaintext exchange captured by the interception proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedExchange {
    /// Request path.
    pub path: String,
    /// Request body.
    pub request: Vec<u8>,
    /// Response body (empty when the endpoint failed).
    pub response: Vec<u8>,
}

/// The interception proxy (the simulator's Burp).
#[derive(Debug, Default)]
pub struct Interceptor {
    captured: Mutex<Vec<CapturedExchange>>,
}

impl Interceptor {
    /// Creates an empty proxy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything captured so far.
    pub fn captured(&self) -> Vec<CapturedExchange> {
        self.captured.lock().clone()
    }

    /// Clears the capture buffer.
    pub fn clear(&self) {
        self.captured.lock().clear();
    }

    fn record(&self, exchange: CapturedExchange) {
        self.captured.lock().push(exchange);
    }
}

/// The device's TLS stack.
pub struct NetworkStack {
    interceptor: RwLock<Option<Arc<Interceptor>>>,
    repinning_bypassed: RwLock<bool>,
}

impl fmt::Debug for NetworkStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NetworkStack(proxy: {}, repinning bypassed: {})",
            self.interceptor.read().is_some(),
            *self.repinning_bypassed.read()
        )
    }
}

impl Default for NetworkStack {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkStack {
    /// Creates a clean stack: no proxy, pinning intact.
    pub fn new() -> Self {
        NetworkStack { interceptor: RwLock::new(None), repinning_bypassed: RwLock::new(false) }
    }

    /// Routes the device's traffic through an interception proxy.
    pub fn attach_interceptor(&self, proxy: Arc<Interceptor>) {
        *self.interceptor.write() = Some(proxy);
    }

    /// Applies the SSL repinning bypass (called via
    /// [`crate::Device::apply_ssl_repinning_bypass`], which gates on root).
    pub(crate) fn apply_repinning_bypass(&self) {
        *self.repinning_bypassed.write() = true;
    }

    /// Whether the bypass is in place.
    pub fn is_repinning_bypassed(&self) -> bool {
        *self.repinning_bypassed.read()
    }

    /// Sends a pinned-TLS request from an app to an endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::PinningViolation`] when a proxy is attached
    /// without the repinning bypass, or [`NetError::EndpointError`] when
    /// the endpoint rejects the request.
    pub fn send(
        &self,
        endpoint: &dyn RemoteEndpoint,
        path: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let proxy = self.interceptor.read().clone();
        if proxy.is_some() && !self.is_repinning_bypassed() {
            return Err(NetError::PinningViolation);
        }
        let result =
            endpoint.handle(path, body).map_err(|message| NetError::EndpointError { message });
        if let Some(proxy) = proxy {
            proxy.record(CapturedExchange {
                path: path.to_owned(),
                request: body.to_vec(),
                response: result.clone().unwrap_or_default(),
            });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl RemoteEndpoint for Echo {
        fn handle(&self, path: &str, body: &[u8]) -> Result<Vec<u8>, String> {
            if path == "/fail" {
                return Err("nope".into());
            }
            Ok(body.to_vec())
        }
    }

    #[test]
    fn clean_stack_passes_traffic() {
        let net = NetworkStack::new();
        assert_eq!(net.send(&Echo, "/license", b"req").unwrap(), b"req");
    }

    #[test]
    fn proxy_without_bypass_breaks_handshake() {
        let net = NetworkStack::new();
        let proxy = Arc::new(Interceptor::new());
        net.attach_interceptor(proxy.clone());
        assert_eq!(net.send(&Echo, "/license", b"req"), Err(NetError::PinningViolation));
        assert!(proxy.captured().is_empty(), "nothing observable without the bypass");
    }

    #[test]
    fn proxy_with_bypass_captures_plaintext() {
        let net = NetworkStack::new();
        let proxy = Arc::new(Interceptor::new());
        net.attach_interceptor(proxy.clone());
        net.apply_repinning_bypass();
        assert!(net.is_repinning_bypassed());
        let resp = net.send(&Echo, "/manifest", b"GET title").unwrap();
        assert_eq!(resp, b"GET title");
        let captured = proxy.captured();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].path, "/manifest");
        assert_eq!(captured[0].request, b"GET title");
        assert_eq!(captured[0].response, b"GET title");
    }

    #[test]
    fn endpoint_errors_propagate_and_are_captured() {
        let net = NetworkStack::new();
        let proxy = Arc::new(Interceptor::new());
        net.attach_interceptor(proxy.clone());
        net.apply_repinning_bypass();
        let err = net.send(&Echo, "/fail", b"x").unwrap_err();
        assert_eq!(err, NetError::EndpointError { message: "nope".into() });
        assert_eq!(proxy.captured()[0].response, Vec::<u8>::new());
    }

    #[test]
    fn interceptor_clear() {
        let proxy = Interceptor::new();
        proxy.record(CapturedExchange { path: "/x".into(), request: vec![], response: vec![] });
        assert_eq!(proxy.captured().len(), 1);
        proxy.clear();
        assert!(proxy.captured().is_empty());
    }

    #[test]
    fn error_display() {
        assert!(NetError::PinningViolation.to_string().contains("pinned"));
    }
}
