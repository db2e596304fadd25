//! Socket state a `NetClient` leaves behind between receive calls: an
//! error out of `recv_timeout` must not leave the read timeout armed,
//! or the next blocking `recv` fails with `WouldBlock` instead of
//! waiting for the frame.

use nfm_net::protocol::{ProtocolError, RejectReason, ServerFrame, WireReject};
use nfm_net::{NetClient, NetError};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// Offset of the kind byte: 4-byte length prefix, then the version.
const KIND_OFFSET: usize = 5;

#[test]
fn blocking_recv_waits_after_recv_timeout_fails_on_a_bad_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (written_tx, written_rx) = mpsc::channel();
    let (failed_tx, failed_rx) = mpsc::channel::<()>();
    let peer = thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut bad = Vec::new();
        WireReject::new(1, RejectReason::Malformed, "bad kind").encode(&mut bad);
        bad[KIND_OFFSET] = 0x7f;
        sock.write_all(&bad).expect("write bad frame");
        written_tx.send(()).expect("signal");
        // The valid frame arrives well after the client's 50 ms
        // timeout has run out.
        failed_rx.recv().expect("client result");
        thread::sleep(Duration::from_millis(300));
        let mut good = Vec::new();
        WireReject::new(2, RejectReason::Overloaded, "late").encode(&mut good);
        sock.write_all(&good).expect("write late frame");
        // Hold the connection open until the client hangs up.
        let _ = sock.read(&mut [0u8; 1]);
    });

    let mut client = NetClient::connect(addr).expect("connect");
    written_rx.recv().expect("peer wrote the bad frame");
    let err = client
        .recv_timeout(Duration::from_millis(50))
        .expect_err("a frame of unknown kind fails to decode");
    assert!(
        matches!(
            err,
            NetError::Protocol(ProtocolError::UnknownKind { found: 0x7f })
        ),
        "{err}"
    );
    failed_tx.send(()).expect("signal");
    let frame = client
        .recv()
        .expect("a blocking recv waits for the late frame");
    assert!(
        matches!(&frame, ServerFrame::Reject(r) if r.id == 2 && r.reason == RejectReason::Overloaded),
        "{frame:?}"
    );
    drop(client);
    peer.join().expect("peer thread");
}
