//! Fuzz and corruption-matrix tests of the hydra-serve wire codec
//! (mirroring the snapshot-layer style of `tests/persist_roundtrip.rs` /
//! the container tests): arbitrary bytes, truncated frames, flipped
//! magic/version/length fields and oversized declared lengths must each
//! yield the exact typed `ProtocolError` — never a panic, a hang, or a
//! partially decoded answer.
//!
//! The second half aims the same corruptions at the **router path**: a
//! live `Router` whose worker answers queries with malformed or lying
//! frames must degrade each poisoned query into a typed `Unavailable`
//! error (never a panic, a hang, or a garbage answer passed through) and
//! recover fully once the worker behaves again.
//!
//! The third part sends one table of damaged *request* frames to both
//! roles — a `Server`, and a `Router` over one worker — and demands the
//! same bytes back: they are one connection engine.

mod common;

use std::io::{Cursor, Read};

use proptest::prelude::*;

use hydra::{SearchMode, SearchParams};
use hydra_serve::protocol::{
    read_frame, read_request, read_response, ProtocolError, Request, Response, ResponseBody,
    MAX_FRAME_LEN, PROTOCOL_VERSION, REQUEST_MAGIC, RESPONSE_MAGIC,
};

/// Builds a deterministic but parameter-diverse query request.
fn sample_request(k: usize, nprobe: usize, mode_pick: usize, qlen: usize, id: usize) -> Request {
    let mode = match mode_pick % 4 {
        0 => SearchMode::Exact,
        1 => SearchMode::Ng { nprobe },
        2 => SearchMode::Epsilon {
            epsilon: nprobe as f32 * 0.25,
        },
        _ => SearchMode::DeltaEpsilon {
            epsilon: nprobe as f32 * 0.25,
            delta: 1.0 / (1.0 + id as f32),
        },
    };
    Request::Query {
        request_id: id as u64 + 1,
        index: format!("idx-{}", id % 7),
        params: SearchParams { k: k.max(1), mode },
        query: (0..qlen).map(|i| (i as f32 - 3.5) * 0.75).collect(),
    }
}

/// A reader that fails the test if more than `limit` bytes are ever read —
/// proving a decoder rejected a hostile header *before* consuming (or
/// waiting for) the payload it declares.
struct ByteBudget {
    inner: Cursor<Vec<u8>>,
    limit: usize,
    consumed: usize,
}

impl Read for ByteBudget {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed += n;
        assert!(
            self.consumed <= self.limit,
            "decoder consumed {} bytes; a rejected frame must stop at {}",
            self.consumed,
            self.limit
        );
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed frames of every shape round-trip exactly.
    #[test]
    fn valid_requests_roundtrip(
        k in 1usize..2_000,
        nprobe in 0usize..1_000,
        mode_pick in 0usize..4,
        qlen in 0usize..64,
        id in 0usize..1_000,
    ) {
        let request = sample_request(k, nprobe, mode_pick, qlen, id);
        let mut cur = Cursor::new(request.encode());
        let decoded = read_request(&mut cur).unwrap().unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert!(read_request(&mut cur).unwrap().is_none());
    }

    /// Arbitrary byte soup never panics or hangs either decoder: every
    /// outcome is a clean end, a decoded value, or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(
        len in 0usize..200,
        seed in 0usize..1_000_000,
    ) {
        let mut state = seed as u64 ^ 0x9E37_79B9_7F4A_7C15;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        // Both directions, frame layer and payload layer: the assertion is
        // simply that these calls return (no panic, no hang) — and when
        // they fail, with a ProtocolError, which is statically guaranteed
        // by the signature.
        let _ = read_request(&mut Cursor::new(bytes.clone()));
        let _ = read_response(&mut Cursor::new(bytes.clone()));
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// Every strict prefix of a valid frame is `Truncated` — no prefix can
    /// decode, hang, or yield a partial answer.
    #[test]
    fn truncated_frames_are_typed(
        k in 1usize..100,
        nprobe in 0usize..64,
        mode_pick in 0usize..4,
        qlen in 1usize..16,
        cut_pick in 0usize..10_000,
    ) {
        let bytes = sample_request(k, nprobe, mode_pick, qlen, cut_pick).encode();
        let cut = 1 + cut_pick % (bytes.len() - 1);
        prop_assert!(matches!(
            read_request(&mut Cursor::new(bytes[..cut].to_vec())),
            Err(ProtocolError::Truncated)
        ));
    }

    /// A flipped magic byte is `BadMagic`; a bumped version field is
    /// `VersionMismatch` carrying the exact found/supported pair.
    #[test]
    fn flipped_magic_and_version_are_typed(
        byte_pick in 0usize..4,
        flip in 1usize..256,
        version_bump in 1usize..1_000,
    ) {
        let good = Request::ListIndexes { request_id: 1 }.encode();
        let mut bad_magic = good.clone();
        bad_magic[byte_pick] ^= flip as u8;
        prop_assert!(matches!(
            read_request(&mut Cursor::new(bad_magic)),
            Err(ProtocolError::BadMagic { .. })
        ));
        let mut bad_version = good.clone();
        let version = PROTOCOL_VERSION.wrapping_add(version_bump as u16);
        bad_version[4..6].copy_from_slice(&version.to_le_bytes());
        prop_assert!(matches!(
            read_request(&mut Cursor::new(bad_version)),
            Err(ProtocolError::VersionMismatch { found, supported: PROTOCOL_VERSION })
                if found == version
        ));
    }

    /// An oversized declared length is rejected after the 10 header bytes,
    /// before a single payload byte is consumed, allocated, or awaited —
    /// the no-hang guarantee.
    #[test]
    fn oversized_lengths_fail_before_the_payload(excess in 1usize..1_000_000) {
        let declared = MAX_FRAME_LEN + excess as u32;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REQUEST_MAGIC);
        bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&declared.to_le_bytes());
        bytes.extend_from_slice(&vec![0u8; 64]); // bait: must never be read
        let mut budget = ByteBudget { inner: Cursor::new(bytes), limit: 10, consumed: 0 };
        prop_assert!(matches!(
            read_frame(&mut budget, REQUEST_MAGIC),
            Err(ProtocolError::FrameTooLarge { declared: d, max: MAX_FRAME_LEN }) if d == declared
        ));
    }

    /// A tampered length field still yields a typed error (never a panic):
    /// shrinking the frame leaves trailing garbage (`Corrupt`) or cuts a
    /// field (`Truncated`); growing it promises bytes that never come
    /// (`Truncated`).
    #[test]
    fn tampered_length_fields_are_typed(
        k in 1usize..100,
        qlen in 1usize..16,
        delta_pick in 0usize..2_000,
    ) {
        let bytes = sample_request(k, 8, 1, qlen, delta_pick).encode();
        let true_len = (bytes.len() - 10) as u32;
        // Any wrong length in [0, true_len + 1000], excluding the true one.
        let mut wrong = (delta_pick as u32 * 7) % (true_len + 1_000);
        if wrong == true_len {
            wrong += 1;
        }
        let mut tampered = bytes.clone();
        tampered[6..10].copy_from_slice(&wrong.to_le_bytes());
        match read_request(&mut Cursor::new(tampered)) {
            Err(
                ProtocolError::Truncated
                | ProtocolError::Corrupt(_)
                | ProtocolError::BadMagic { .. },
            ) => {}
            // A shorter declared length can, rarely, still frame a valid
            // request whose trailing bytes then fail as the next frame's
            // magic — also a typed outcome, verified above. But it must
            // never decode to the same request as the untampered frame
            // with a *different* declared length, panic, or I/O-error.
            Ok(_) => {}
            Err(other) => {
                prop_assert!(false, "unexpected error variant: {other:?}");
            }
        }
    }

    /// Stats frames ride the same frame layer: any text round-trips, every
    /// strict prefix is `Truncated`, and a flipped magic is `BadMagic` —
    /// a scrape can never wedge or panic a connection.
    #[test]
    fn stats_frames_obey_the_frame_layer(
        id in 1usize..1_000,
        text_len in 0usize..300,
        seed in 0usize..1_000_000,
        cut_pick in 0usize..10_000,
    ) {
        let text: String = (0..text_len)
            .map(|i| char::from(b' ' + ((seed + i * 31) % 90) as u8))
            .collect();
        let response = Response {
            request_id: id as u64,
            body: ResponseBody::Stats { text },
        };
        let bytes = response.encode();
        let decoded = read_response(&mut Cursor::new(bytes.clone())).unwrap().unwrap();
        prop_assert_eq!(&decoded, &response);
        let cut = 1 + cut_pick % (bytes.len() - 1);
        prop_assert!(matches!(
            read_response(&mut Cursor::new(bytes[..cut].to_vec())),
            Err(ProtocolError::Truncated)
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0x40;
        prop_assert!(matches!(
            read_response(&mut Cursor::new(bad)),
            Err(ProtocolError::BadMagic { .. })
        ));
    }

    /// Flipping any single payload byte of a query frame never panics the
    /// decoder: it either still decodes (the flip landed in value bits) or
    /// fails with a typed error.
    #[test]
    fn payload_bitflips_never_panic(
        k in 1usize..100,
        qlen in 1usize..16,
        pos_pick in 0usize..10_000,
        flip in 1usize..256,
    ) {
        let bytes = sample_request(k, 8, pos_pick, qlen, flip).encode();
        let pos = 10 + pos_pick % (bytes.len() - 10);
        let mut tampered = bytes.clone();
        tampered[pos] ^= flip as u8;
        let _ = read_request(&mut Cursor::new(tampered));
    }
}

// ---------------------------------------------------------------------------
// Deterministic corruption matrix (one pinned case per failure class, in
// the style of the persist container tests).
// ---------------------------------------------------------------------------

#[test]
fn corruption_matrix_pins_every_error_class() {
    let good = sample_request(10, 16, 1, 8, 42).encode();

    // Pristine decodes.
    assert!(read_request(&mut Cursor::new(good.clone())).unwrap().is_some());

    // Empty stream: clean end, not an error.
    assert!(read_request(&mut Cursor::new(Vec::new())).unwrap().is_none());

    // Response magic on the request channel (and vice versa): BadMagic.
    let mut crossed = good.clone();
    crossed[..4].copy_from_slice(&RESPONSE_MAGIC);
    assert!(matches!(
        read_request(&mut Cursor::new(crossed)),
        Err(ProtocolError::BadMagic { found, expected })
            if found == RESPONSE_MAGIC && expected == REQUEST_MAGIC
    ));

    // Unknown op / mode / status / error-code tags: Corrupt.
    let mut cases: Vec<Vec<u8>> = Vec::new();
    {
        use hydra::persist::Section;
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(9); // unknown op (4, Stats, is the highest assigned)
        cases.push(s.as_bytes().to_vec());
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(0);
        s.put_str("idx");
        s.put_u64(10);
        s.put_u8(4); // unknown mode tag
        cases.push(s.as_bytes().to_vec());
    }
    for payload in cases {
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    // k = 0 and absurd k: Corrupt (a hostile k must not reach TopK).
    for k in [0u64, u64::MAX] {
        use hydra::persist::Section;
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(0);
        s.put_str("idx");
        s.put_u64(k);
        s.put_u8(0);
        s.put_f32s(&[1.0]);
        assert!(matches!(
            Request::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    // Trailing bytes inside the declared payload: Corrupt.
    let mut padded = Request::Shutdown { request_id: 1 }.encode();
    padded.extend_from_slice(&[0xAB; 3]);
    let len = (padded.len() - 10) as u32;
    padded[6..10].copy_from_slice(&len.to_le_bytes());
    assert!(matches!(
        read_request(&mut Cursor::new(padded)),
        Err(ProtocolError::Corrupt(_))
    ));

    // A response whose neighbor count outruns its payload: typed, bounded.
    {
        use hydra::persist::Section;
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(0);
        s.put_u64(u64::MAX); // declares ~2^64 neighbors
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Truncated)
        ));
    }

    // Stats frames obey the same matrix. A stats request is op 4 with no
    // payload — trailing bytes are Corrupt, not ignored.
    {
        use hydra::persist::Section;
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(4);
        assert_eq!(
            Request::decode(s.as_bytes()).unwrap(),
            Request::Stats { request_id: 1 }
        );
        s.put_u8(0xAB);
        assert!(matches!(
            Request::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
    }
    // A stats response declaring ~2^64 text bytes fails typed before any
    // allocation; one declaring more than it carries is Truncated; a text
    // that is not UTF-8 is Corrupt, never a panic.
    {
        use hydra::persist::Section;
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(5);
        s.put_u64(u64::MAX);
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Truncated)
        ));
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(5);
        s.put_u64(100); // declares 100 bytes...
        s.put_u8s(b"short"); // ...after an 8-byte count, carries 5
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Truncated)
        ));
        let mut s = Section::new();
        s.put_u64(1);
        s.put_u8(5);
        s.put_u8s(&[0xFF, 0xFE, 0x41]);
        assert!(matches!(
            Response::decode(s.as_bytes()),
            Err(ProtocolError::Corrupt(_))
        ));
    }

    // Responses round-trip too (shared frame layer, distinct magic).
    let response = Response {
        request_id: 7,
        body: ResponseBody::Answer {
            neighbors: vec![hydra::Neighbor::new(3, 0.5)],
        },
    };
    let mut cur = Cursor::new(response.encode());
    assert_eq!(read_response(&mut cur).unwrap().unwrap(), response);
}

// ---------------------------------------------------------------------------
// Router path: the same corruption classes, delivered by a live worker to a
// live router over real sockets.
// ---------------------------------------------------------------------------

mod router_path {
    use std::sync::Arc;
    use std::time::Duration;

    use proptest::prelude::*;

    use hydra::Neighbor;
    use hydra_serve::protocol::{MAX_FRAME_LEN, PROTOCOL_VERSION};
    use hydra_serve::{Response, ResponseBody};

    use crate::common::serving::{
        ask, ask_until_answered, unavailable, Corruption, Deployment, Mode, Shard,
    };

    const SHARD_LEN: usize = 8;

    /// Boots a one-worker router over a scripted worker that answers its
    /// first query with `corrupt` and every later one honestly, fires the
    /// poisoned query, and asserts the full degradation contract: a typed
    /// response in bounded time (`strict` additionally pins it to
    /// `Unavailable` — relaxed for corruptions that may still decode to a
    /// valid frame), a live listing afterwards, and eventual recovery to
    /// the brute-force answer over the shard through the reconnection
    /// backoff.
    fn router_survives(
        corrupt: impl Fn(Response) -> Option<Vec<u8>> + Send + Sync + 'static,
        strict: bool,
    ) {
        let corrupt: Arc<Corruption> = Arc::new(corrupt);
        let data = hydra::data::random_walk(SHARD_LEN, 4, 11);
        // A cut frame fails only when the worker timeout strikes inside it.
        let timeout = Duration::from_millis(100);
        let d = Deployment::spawn(data, vec![Shard::Scripted(Mode::Corrupt(corrupt))], timeout);
        let mut client = d.client();
        // A wedged router must fail the test, not hang it.
        client
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let query = vec![0.0; 4];

        let poisoned = ask(&mut client, 1, &query, 2);
        match &poisoned {
            body if unavailable(body) => {}
            ResponseBody::Answer { .. } if !strict => {}
            other => panic!("poisoned query must degrade typed, got {other:?}"),
        }

        // The router is still alive: the cached merged listing answers.
        assert_eq!(client.list_indexes().unwrap().len(), 1);

        // And it recovers to the honest merged answer through its backoff.
        d.assert_exact("recovered", ask_until_answered(&mut client, 2, &query, 2), &query, 2);

        drop(client);
        d.stop();
    }

    #[test]
    fn connection_dropped_instead_of_an_answer() {
        router_survives(|_| None, true);
    }

    #[test]
    fn truncated_answer_frame() {
        router_survives(|honest| {
            let bytes = honest.encode();
            Some(bytes[..bytes.len() / 2].to_vec())
        }, true);
    }

    #[test]
    fn answer_with_flipped_magic() {
        router_survives(
            |honest| {
                let mut bytes = honest.encode();
                bytes[0] ^= 0xFF;
                Some(bytes)
            },
            true,
        );
    }

    #[test]
    fn answer_from_a_future_protocol_version() {
        router_survives(
            |honest| {
                let mut bytes = honest.encode();
                bytes[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes());
                Some(bytes)
            },
            true,
        );
    }

    #[test]
    fn answer_declaring_an_oversized_frame() {
        router_survives(
            |honest| {
                let mut bytes = honest.encode();
                bytes[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
                Some(bytes)
            },
            true,
        );
    }

    #[test]
    fn answer_that_is_byte_soup() {
        router_survives(
            |_| {
                let mut state = 0xDEAD_BEEFu64;
                Some(
                    (0..40)
                        .map(|_| {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            (state >> 33) as u8
                        })
                        .collect(),
                )
            },
            true,
        );
    }

    #[test]
    fn answer_echoing_the_wrong_request_id() {
        router_survives(
            |honest| Some(Response { request_id: honest.request_id + 1, ..honest }.encode()),
            true,
        );
    }

    #[test]
    fn answer_with_the_wrong_body_kind() {
        router_survives(
            |honest| Some(Response { body: ResponseBody::ShutdownAck, ..honest }.encode()),
            true,
        );
    }

    #[test]
    fn answer_with_an_out_of_range_series_id() {
        router_survives(
            |honest| {
                let neighbors = vec![Neighbor::new(SHARD_LEN + 7, 0.5)];
                Some(Response { body: ResponseBody::Answer { neighbors }, ..honest }.encode())
            },
            true,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Randomly mutilated worker responses (a cut, plus byte flips at
        /// LCG-chosen positions) never panic or wedge the router. The
        /// response may legitimately still decode — a flip can land in
        /// distance value bits — so the assertion is the relaxed contract:
        /// typed answer or typed error, live listing, full recovery.
        #[test]
        fn random_response_mutilations_never_wedge_the_router(seed in 0usize..1_000_000) {
            let corrupt = move |honest: Response| {
                let mut state = seed as u64 ^ 0xA076_1D64_78BD_642F;
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 33) as usize
                };
                let mut bytes = honest.encode();
                let cut = 1 + next() % bytes.len();
                bytes.truncate(cut);
                for _ in 0..(next() % 4) {
                    let pos = next() % bytes.len();
                    bytes[pos] ^= (next() % 255 + 1) as u8;
                }
                Some(bytes)
            };
            router_survives(corrupt, false);
        }
    }
}

// ---------------------------------------------------------------------------
// Both roles: one table of damaged request frames, one contract.
// ---------------------------------------------------------------------------

mod both_roles {
    use std::io::{BufReader, Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpStream};
    use std::time::Duration;

    use hydra::SearchParams;
    use hydra_serve::protocol::{read_response, MAX_FRAME_LEN, PROTOCOL_VERSION};
    use hydra_serve::{ErrorCode, Request, ResponseBody, ServeClient};

    use crate::common::serving::{ask, query, scan_server, Deployment, Shard, INDEX, WORKER_TIMEOUT};

    /// Offset of the payload in a frame: magic (4) + version (2) + length (4).
    const PAYLOAD: usize = 10;

    /// Every way the table damages a good list-indexes frame, by name.
    fn damaged_frames() -> Vec<(&'static str, Vec<u8>)> {
        let good = Request::ListIndexes { request_id: 5 }.encode();
        let mut table = Vec::new();
        let mut damage = |name: &'static str, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut frame = good.clone();
            edit(&mut frame);
            table.push((name, frame));
        };
        damage("bad magic", &|f| f[0] ^= 0xFF);
        damage("version + 1", &|f| {
            f[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_le_bytes())
        });
        damage("declared length > MAX_FRAME_LEN", &|f| {
            f[6..PAYLOAD].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes())
        });
        damage("unknown op tag", &|f| f[PAYLOAD + 8] = 99);
        damage("request id 0", &|f| f[PAYLOAD..PAYLOAD + 8].fill(0));
        damage("cut mid-payload", &|f| f.truncate(f.len() - 3));
        damage("trailing bytes", &|f| {
            f.push(0xAB);
            let declared = (f.len() - PAYLOAD) as u32;
            f[6..PAYLOAD].copy_from_slice(&declared.to_le_bytes());
        });
        table
    }

    /// Sends `frame`, half-closes, and returns every byte that comes back
    /// before the peer hangs up.
    fn exchange(addr: SocketAddr, frame: &[u8]) -> Vec<u8> {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A role that never hangs up must fail the test, not wedge it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(frame).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut received = Vec::new();
        stream
            .read_to_end(&mut received)
            .expect("a hangup, not a timeout");
        received
    }

    #[test]
    fn damaged_frames_get_the_same_bytes_back_from_a_server_and_a_router() {
        let data = hydra::data::random_walk(32, 8, 19);
        let server = scan_server(&data);
        let d = Deployment::spawn(data, vec![Shard::Scan], WORKER_TIMEOUT);
        let router = &d.router;

        for (name, frame) in damaged_frames() {
            let from_server = exchange(server.local_addr(), &frame);
            let from_router = exchange(router.local_addr(), &frame);
            assert_eq!(
                from_server, from_router,
                "{name}: the two roles answered differently"
            );
            // One typed protocol error on id 0, then EOF — nothing after it.
            let mut bytes = from_server.as_slice();
            let response = read_response(&mut bytes)
                .unwrap()
                .expect("no response at all");
            assert_eq!(response.request_id, 0, "{name}");
            assert!(
                matches!(
                    response.body,
                    ResponseBody::Error {
                        code: ErrorCode::Protocol,
                        ..
                    }
                ),
                "{name}: {:?}",
                response.body
            );
            assert!(bytes.is_empty(), "{name}: bytes after the protocol error");
            // The damage stayed on its own connection.
            for addr in [server.local_addr(), router.local_addr()] {
                let mut fresh = ServeClient::connect(addr).unwrap();
                assert_eq!(fresh.list_indexes().unwrap().len(), 1, "{name}");
            }
        }

        // The router's shutdown frame reaches its worker; the server gets its own.
        for addr in [router.local_addr(), server.local_addr()] {
            ServeClient::connect(addr).unwrap().shutdown().unwrap();
        }
        d.stop();
        server.join();
    }

    /// A peer that trickles a valid query frame, one byte per 20 ms, holds
    /// up only itself on either role: another connection's listing and
    /// query are answered while the frame is cut inside its magic, at the
    /// end of its header and one byte short, and the trickled query is
    /// answered once its last byte arrives. (A peer that disconnects
    /// mid-frame is the table's "cut mid-payload" row above.)
    #[test]
    fn a_slow_loris_peer_holds_up_no_other_connection_on_either_role() {
        let data = hydra::data::random_walk(32, 4, 23);
        let server = scan_server(&data);
        let d = Deployment::spawn(data.clone(), vec![Shard::Scan], WORKER_TIMEOUT);
        let series = data.series(5);
        let frame = query(7, INDEX, SearchParams::exact(3), series).encode();
        std::thread::scope(|scope| {
            for addr in [server.local_addr(), d.router.local_addr()] {
                let (d, frame) = (&d, &frame);
                scope.spawn(move || {
                    let loris = TcpStream::connect(addr).unwrap();
                    loris.set_nodelay(true).unwrap();
                    loris.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
                    let mut other = ServeClient::connect(addr).unwrap();
                    for (i, byte) in frame.iter().enumerate() {
                        if [2, PAYLOAD, frame.len() - 1].contains(&i) {
                            let context = format!("{addr} with {i} bytes trickled");
                            assert_eq!(other.list_indexes().unwrap().len(), 1, "{context}");
                            let body = ask(&mut other, i as u64 + 1, series, 3);
                            d.assert_exact(&context, body, series, 3);
                        }
                        (&loris).write_all(&[*byte]).unwrap();
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    let response = read_response(&mut BufReader::new(&loris))
                        .unwrap()
                        .expect("the trickled query was never answered");
                    assert_eq!(response.request_id, 7);
                    let context = format!("{addr}: the trickled query");
                    d.assert_exact(&context, response.body, series, 3);
                });
            }
        });
        server.shutdown();
        server.join();
        d.stop();
    }
}
