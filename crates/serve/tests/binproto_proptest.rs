//! Property/fuzz tests for the binary wire framing (`nok_serve::binproto`).
//!
//! The decoder faces a TCP stream, i.e. arbitrary bytes at arbitrary
//! split points. The properties pinned here:
//!
//! 1. **Round-trip**: every encodable request/response decodes back to
//!    itself, from any position inside a concatenated stream of frames.
//! 2. **Torn frames**: any strict prefix of a valid frame is "incomplete,
//!    read more" at the slice layer and a clean error (never a hang, panic,
//!    or huge allocation) at the stream layer.
//! 3. **Oversized lengths**: a declared payload length beyond `MAX_FRAME`
//!    is rejected before any allocation of that size.
//! 4. **Unknown opcodes**: decode to `FrameError::UnknownOpcode`, leaving
//!    the frame boundary intact so the connection can answer
//!    `bad_request` and keep going.
//! 5. **Arbitrary garbage**: the decoder never panics, whatever the bytes.
//! 6. **Interleaving**: responses permuted across ids still map back to
//!    the correct request by id — the invariant pipelined clients rely on.
//! 7. **Chunked answers**: sorted Dewey lists cut into parts at arbitrary
//!    points and interleaved with other answers, `Pong` and `Error` frames
//!    reassemble exactly; a bad prefix delta, a torn chunk or a chunk after
//!    its answer's final frame is an error, never a panic.

use proptest::prelude::*;

use nok_core::Dewey;
use nok_serve::binproto::{
    decode_request, decode_response, encode_request, encode_response, op, put_frame,
    read_bin_frame, split_frame, BinResponse, ErrCode, FrameError, Reassembly, Request, WireMatch,
    HEADER_LEN, MAX_FRAME,
};

fn arb_path() -> impl Strategy<Value = String> {
    // Paths with slashes, predicate-ish chars, unicode (the `.` pool
    // includes multi-byte code points), and the empty string.
    prop_oneof!["[a-z/<>=0-9 .@*]{0,64}", ".{0,32}", Just(String::new()),]
}

fn arb_request() -> impl Strategy<Value = Request> {
    let timeout = prop_oneof![
        Just(None),
        (0u64..u64::MAX).prop_map(Some), // u64::MAX is the "absent" sentinel
    ];
    prop_oneof![
        (any::<u64>(), arb_path(), timeout).prop_map(|(id, path, timeout_ms)| Request::Query {
            id,
            path,
            timeout_ms
        }),
        (any::<u64>(), arb_path()).prop_map(|(id, path)| Request::Explain { id, path }),
        any::<u64>().prop_map(|id| Request::Stats { id }),
        any::<u64>().prop_map(|id| Request::Ping { id }),
        any::<u64>().prop_map(|id| Request::Shutdown { id }),
    ]
}

fn arb_dewey() -> impl Strategy<Value = Dewey> {
    // Small components share key bytes; any u32 exercises every code length.
    let comp = prop_oneof![0u32..4, any::<u32>()];
    prop::collection::vec(comp, 0..10).prop_map(Dewey::from_components)
}

fn arb_match() -> impl Strategy<Value = WireMatch> {
    arb_dewey().prop_map(|d| WireMatch {
        dewey: d.to_string(),
    })
}

fn wire(deweys: &[Dewey]) -> Vec<WireMatch> {
    deweys
        .iter()
        .map(|d| WireMatch {
            dewey: d.to_string(),
        })
        .collect()
}

/// Read a byte stream the way `BinClient::recv` does: frame, decode,
/// reassemble, and at its end refuse an answer left without its final
/// frame.
fn reassemble(mut stream: &[u8]) -> Result<Vec<BinResponse>, String> {
    let mut answers = Reassembly::default();
    let mut out = Vec::new();
    while let Some((opcode, id, payload)) =
        read_bin_frame(&mut stream).map_err(|e| e.to_string())?
    {
        let resp = decode_response(opcode, id, &payload).map_err(|e| e.to_string())?;
        out.extend(answers.take(resp).map_err(|e| e.to_string())?);
    }
    answers.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

fn arb_err_code() -> impl Strategy<Value = ErrCode> {
    prop_oneof![
        Just(ErrCode::Timeout),
        Just(ErrCode::QueueFull),
        Just(ErrCode::Engine),
        Just(ErrCode::Shutdown),
        Just(ErrCode::BadRequest),
    ]
}

fn arb_response() -> impl Strategy<Value = BinResponse> {
    prop_oneof![
        (any::<u64>(), prop::collection::vec(arb_match(), 0..16))
            .prop_map(|(id, matches)| BinResponse::QueryOk { id, matches }),
        (any::<u64>(), prop::collection::vec(arb_match(), 0..16))
            .prop_map(|(id, matches)| BinResponse::QueryPart { id, matches }),
        (any::<u64>(), any::<u32>(), ".{0,64}")
            .prop_map(|(id, count, text)| BinResponse::ExplainOk { id, count, text }),
        (any::<u64>(), ".{0,64}").prop_map(|(id, json)| BinResponse::StatsOk { id, json }),
        any::<u64>().prop_map(|id| BinResponse::Pong { id }),
        any::<u64>().prop_map(|id| BinResponse::Stopping { id }),
        (any::<u64>(), arb_err_code(), ".{0,48}")
            .prop_map(|(id, code, message)| BinResponse::Error { id, code, message }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(reqs in prop::collection::vec(arb_request(), 1..8)) {
        // Concatenate all frames into one stream, then walk it frame by
        // frame — both with the slice splitter and the stream reader.
        let mut wire = Vec::new();
        for r in &reqs {
            encode_request(&mut wire, r);
        }
        let mut rest = &wire[..];
        for r in &reqs {
            let (opcode, id, payload, used) = split_frame(rest).unwrap().unwrap();
            prop_assert_eq!(&decode_request(opcode, id, payload).unwrap(), r);
            rest = &rest[used..];
        }
        prop_assert!(rest.is_empty());
        let mut stream = &wire[..];
        for r in &reqs {
            let (opcode, id, payload) = read_bin_frame(&mut stream).unwrap().unwrap();
            prop_assert_eq!(&decode_request(opcode, id, &payload).unwrap(), r);
        }
        prop_assert!(read_bin_frame(&mut stream).unwrap().is_none());
    }

    #[test]
    fn responses_round_trip(resps in prop::collection::vec(arb_response(), 1..8)) {
        let mut wire = Vec::new();
        for r in &resps {
            encode_response(&mut wire, r);
        }
        let mut rest = &wire[..];
        for r in &resps {
            let (opcode, id, payload, used) = split_frame(rest).unwrap().unwrap();
            prop_assert_eq!(&decode_response(opcode, id, payload).unwrap(), r);
            rest = &rest[used..];
        }
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn torn_frames_never_decode_and_never_hang(req in arb_request(), cut in any::<u64>()) {
        let mut wire = Vec::new();
        encode_request(&mut wire, &req);
        let cut = (cut % wire.len() as u64) as usize; // strict prefix: 0..len
        // Slice layer: a prefix is "incomplete", never a bogus frame.
        prop_assert_eq!(split_frame(&wire[..cut]).unwrap().map(|f| f.3), None);
        // Stream layer: empty prefix is clean EOF, mid-frame EOF errors.
        let mut r = &wire[..cut];
        match read_bin_frame(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Ok(Some(_)) => prop_assert!(false, "torn frame decoded"),
            Err(_) => prop_assert!(cut > 0),
        }
    }

    #[test]
    fn oversized_lengths_rejected(
        opcode in any::<u8>(),
        id in any::<u64>(),
        excess in 1u64..u32::MAX as u64 - MAX_FRAME as u64,
    ) {
        let bad_len = (MAX_FRAME as u64 + excess) as u32;
        let mut wire = vec![opcode];
        wire.extend_from_slice(&id.to_le_bytes());
        wire.extend_from_slice(&bad_len.to_le_bytes());
        prop_assert!(matches!(split_frame(&wire), Err(FrameError::Oversized(_))));
        let mut r = &wire[..];
        prop_assert!(read_bin_frame(&mut r).is_err());
    }

    #[test]
    fn unknown_opcodes_are_isolated_errors(
        opcode in prop_oneof![Just(0u8), 6u8..=255u8],
        id in any::<u64>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
        follow in arb_request(),
    ) {
        let mut wire = Vec::new();
        put_frame(&mut wire, opcode, id, &payload);
        encode_request(&mut wire, &follow);
        // The bad frame splits fine (framing is opcode-agnostic)…
        let (op_got, id_got, body, used) = split_frame(&wire).unwrap().unwrap();
        prop_assert_eq!((op_got, id_got), (opcode, id));
        // …decoding flags exactly the opcode…
        prop_assert_eq!(decode_request(op_got, id_got, body), Err(FrameError::UnknownOpcode(opcode)));
        // …and the next frame on the wire is untouched.
        let (op2, id2, body2, _) = split_frame(&wire[used..]).unwrap().unwrap();
        prop_assert_eq!(&decode_request(op2, id2, body2).unwrap(), &follow);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Whatever the bytes, the decoder returns — no panic, no unbounded
        // allocation (oversized lengths are rejected before allocating).
        if let Ok(Some((opcode, id, payload, _))) = split_frame(&bytes) {
            let _ = decode_request(opcode, id, payload);
            let _ = decode_response(opcode, id, payload);
        }
        let mut r = &bytes[..];
        while let Ok(Some((opcode, id, payload))) = read_bin_frame(&mut r) {
            let _ = decode_response(opcode, id, &payload);
        }
    }

    #[test]
    fn interleaved_responses_map_to_request_ids(
        paths in prop::collection::vec("[a-z]{1,8}", 2..10),
        seed in any::<u64>(),
    ) {
        // Requests go out with ids 0..n; responses come back in an
        // arbitrary permutation (that is the pipelining contract). A
        // client keyed purely on ids must reassociate every response with
        // its request.
        let n = paths.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Cheap deterministic shuffle from the seed.
        for i in (1..n).rev() {
            let j = (seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut wire = Vec::new();
        for &i in &order {
            // Response payload encodes which request it answers: one match
            // whose dewey is the request index.
            encode_response(&mut wire, &BinResponse::QueryOk {
                id: i as u64,
                matches: vec![WireMatch { dewey: i.to_string() }],
            });
        }
        let mut rest = &wire[..];
        let mut seen = vec![false; n];
        for _ in 0..n {
            let (opcode, id, payload, used) = split_frame(rest).unwrap().unwrap();
            rest = &rest[used..];
            let resp = decode_response(opcode, id, payload).unwrap();
            match resp {
                BinResponse::QueryOk { id, matches } => {
                    prop_assert_eq!(matches[0].dewey.clone(), id.to_string());
                    prop_assert!(!seen[id as usize], "duplicate id");
                    seen[id as usize] = true;
                }
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn header_len_is_the_incompleteness_threshold(bytes in prop::collection::vec(any::<u8>(), 0..HEADER_LEN)) {
        // Below HEADER_LEN nothing can ever be a frame or an error —
        // regardless of content, the splitter must ask for more bytes.
        prop_assert_eq!(split_frame(&bytes).unwrap().map(|f| f.3), None);
    }

    #[test]
    fn chunked_answers_reassemble_exactly(
        answers in prop::collection::vec(
            (prop::collection::vec(arb_dewey(), 0..40), prop::collection::vec(0usize..40, 0..4)),
            1..4,
        ),
        others in prop::collection::vec(any::<bool>(), 0..4),
        seed in any::<u64>(),
        tear in any::<u64>(),
    ) {
        // Answer i travels as id 100 + i: its sorted list cut at the given
        // points into parts, then the final frame with the rest.
        let mut lanes: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut expected = Vec::new();
        for (i, (deweys, cuts)) in answers.iter().enumerate() {
            let id = 100 + i as u64;
            let mut sorted = deweys.clone();
            sorted.sort();
            sorted.dedup();
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(sorted.len())).collect();
            cuts.sort_unstable();
            let mut frames = Vec::new();
            let mut from = 0;
            for &cut in &cuts {
                let mut f = Vec::new();
                encode_response(&mut f, &BinResponse::QueryPart { id, matches: wire(&sorted[from..cut]) });
                frames.push(f);
                from = cut;
            }
            let mut f = Vec::new();
            encode_response(&mut f, &BinResponse::QueryOk { id, matches: wire(&sorted[from..]) });
            frames.push(f);
            lanes.push(frames);
            expected.push(BinResponse::QueryOk { id, matches: wire(&sorted) });
        }
        // Single-frame responses to other ids ride between the chunks.
        for (j, &pong) in others.iter().enumerate() {
            let id = 200 + j as u64;
            let resp = if pong {
                BinResponse::Pong { id }
            } else {
                BinResponse::Error { id, code: ErrCode::Timeout, message: "late".into() }
            };
            let mut f = Vec::new();
            encode_response(&mut f, &resp);
            lanes.push(vec![f]);
            expected.push(resp);
        }
        // Interleave the lanes, each in its own order, noting after each
        // frame whether some answer is under way.
        let mut stream = Vec::new();
        let mut boundaries = vec![(0, false)];
        let mut next = vec![0usize; lanes.len()];
        let mut state = seed | 1;
        loop {
            let open: Vec<usize> = (0..lanes.len()).filter(|&l| next[l] < lanes[l].len()).collect();
            if open.is_empty() {
                break;
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let l = open[(state % open.len() as u64) as usize];
            stream.extend_from_slice(&lanes[l][next[l]]);
            next[l] += 1;
            let under_way = (0..lanes.len()).any(|l| next[l] > 0 && next[l] < lanes[l].len());
            boundaries.push((stream.len(), under_way));
        }
        let mut got = reassemble(&stream).expect("a well-formed stream reassembles");
        got.sort_by_key(BinResponse::id);
        prop_assert_eq!(got, expected);

        // Torn: a stream cut inside a frame, or between frames while an
        // answer is under way, fails cleanly.
        let cut = (tear % stream.len() as u64) as usize;
        let torn = reassemble(&stream[..cut]);
        match boundaries.iter().find(|(b, _)| *b == cut) {
            Some(&(_, under_way)) => prop_assert_eq!(torn.is_err(), under_way),
            None => prop_assert!(torn.is_err()),
        }

        // A chunk after its answer's final frame leaves an answer open.
        let mut late = stream.clone();
        encode_response(&mut late, &BinResponse::QueryPart { id: 100, matches: wire(&[Dewey::root()]) });
        prop_assert!(reassemble(&late).is_err());
    }

    #[test]
    fn bad_deltas_are_errors(deweys in prop::collection::vec(arb_dewey(), 1..20), at in any::<u64>(), extra in 1usize..4) {
        // Re-encode by hand with match `k`'s shared prefix past the key
        // before it.
        let mut sorted = deweys.clone();
        sorted.sort();
        let keys: Vec<Vec<u8>> = sorted.iter().map(Dewey::to_key).collect();
        let k = (at % keys.len() as u64) as usize;
        let mut payload = (keys.len() as u32).to_le_bytes().to_vec();
        let mut prev: &[u8] = &[];
        for (i, key) in keys.iter().enumerate() {
            let shared = key.iter().zip(prev).take_while(|(a, b)| a == b).count();
            let claimed = if i == k { prev.len() + extra } else { shared };
            payload.push(claimed as u8);
            payload.push((key.len() - shared) as u8);
            payload.extend_from_slice(&key[shared..]);
            prev = key;
        }
        prop_assert!(matches!(
            decode_response(op::QUERY_OK, 1, &payload),
            Err(FrameError::Malformed(_))
        ));
    }
}
