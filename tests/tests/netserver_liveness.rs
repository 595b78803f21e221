//! Liveness regressions for the TCP client transport.
//!
//! The tests pin fixes to real hang/stale-read bugs in the pooled
//! [`TcpBinder`]:
//!
//! 1. The client's reply read had no deadline (a never-set shutdown
//!    flag guarded it), so a wedged server hung the caller forever. A
//!    stalled server must now surface the transient
//!    [`DrmError::Timeout`] within the configured deadline.
//! 2. The health-checked reconnect only covered write failures. A
//!    server restart *between checkout and read* — the write lands in
//!    the dead socket's buffer, then the read sees a clean EOF before
//!    any reply byte — hard-failed `BinderDied`. It must now cost
//!    exactly one reconnect and succeed.
//! 3. The deadline bounds the whole reply frame, not each read: a
//!    server that trickles a valid reply slower than the deadline
//!    allows still surfaces the timeout.
//!
//! The fake servers here speak the wire format directly so the tests
//! control exactly when a connection goes quiet or dies.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use wideleak::android_drm::binder::{DrmCall, DrmReply, Transport};
use wideleak::android_drm::netserver::TcpBinder;
use wideleak::android_drm::wire::{encode_frame, read_frame, FrameBody, FrameMeta};
use wideleak::android_drm::DrmError;
use wideleak::bmff::types::WIDEVINE_SYSTEM_ID;

/// Reads one whole request frame off a fake server's socket.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    read_frame(stream)?.ok_or_else(|| std::io::ErrorKind::UnexpectedEof.into())
}

#[test]
fn a_stalled_server_surfaces_a_timeout_instead_of_hanging() {
    // A server that accepts — and even reads the request — but never
    // writes a reply byte. The old client blocked in read forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _ = read_request(&mut stream);
        // Hold the socket open, replying with nothing, until the
        // client gives up and closes its end.
        let mut sink = [0u8; 64];
        while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
    });
    let binder = TcpBinder::connect(addr)
        .pool_size(1)
        .read_timeout(Duration::from_millis(100))
        .build()
        .unwrap();
    let started = Instant::now();
    let reply = binder.transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID });
    assert_eq!(reply, Err(DrmError::Timeout { ms: 100 }));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline bounded the read ({:?})",
        started.elapsed()
    );
    // The taxonomy marks the expiry as its own transient class, so app
    // retry policies treat it like a dropped binder, not a hard error.
    assert_eq!(reply.unwrap_err().class(), "timeout");
    drop(binder);
    stall.join().unwrap();
}

#[test]
fn the_deadline_covers_a_whole_trickled_reply() {
    // A server that answers, but one byte every 50 ms: each read waits
    // less than the 100 ms deadline, the whole 19-byte reply far more.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply_frame =
        encode_frame(&FrameBody::Reply(Ok(DrmReply::Bool(true))), FrameMeta::default());
    let trickle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        read_request(&mut stream).unwrap();
        for byte in &reply_frame {
            std::thread::sleep(Duration::from_millis(50));
            // The client hangs up once its deadline passes.
            if stream.write_all(std::slice::from_ref(byte)).is_err() {
                break;
            }
        }
    });
    let binder = TcpBinder::connect(addr)
        .pool_size(1)
        .read_timeout(Duration::from_millis(100))
        .build()
        .unwrap();
    let started = Instant::now();
    let reply = binder.transact(DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID });
    assert_eq!(reply, Err(DrmError::Timeout { ms: 100 }), "after {:?}", started.elapsed());
    drop(binder);
    trickle.join().unwrap();
}

#[test]
fn eof_between_checkout_and_read_costs_exactly_one_reconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reply_frame =
        encode_frame(&FrameBody::Reply(Ok(DrmReply::Bool(true))), FrameMeta::default());
    let server = std::thread::spawn(move || {
        let mut accepts = 0u32;
        // Connection 1: serve one call, then read the next request and
        // close without a reply byte — the restart-between-checkout-
        // and-read shape (the write lands, the reply never comes).
        let (mut first, _) = listener.accept().unwrap();
        accepts += 1;
        read_request(&mut first).unwrap();
        first.write_all(&reply_frame).unwrap();
        read_request(&mut first).unwrap();
        drop(first);
        // Connection 2: the client's single retry; serve normally.
        let (mut second, _) = listener.accept().unwrap();
        accepts += 1;
        read_request(&mut second).unwrap();
        second.write_all(&reply_frame).unwrap();
        // No third accept: a client paying more than one reconnect
        // would hang here and fail the join's accept count.
        accepts
    });
    let binder = TcpBinder::connect(addr).pool_size(1).build().unwrap();
    let probe = DrmCall::IsSchemeSupported { uuid: WIDEVINE_SYSTEM_ID };
    assert!(binder.transact(probe.clone()).unwrap().into_bool().unwrap());
    // The pooled socket is checked out live; the write succeeds into a
    // connection the server then closes cleanly. The old client
    // returned BinderDied here.
    assert!(binder.transact(probe).unwrap().into_bool().unwrap());
    drop(binder);
    assert_eq!(server.join().unwrap(), 2, "the clean EOF cost exactly one reconnect");
}
