//! Property/fuzz loop for the binary wire-frame codec: seeded random
//! byte-level corruption over valid `attack` and `add_auxiliary_users`
//! frames must always produce either a typed [`FrameError`] / decode
//! error or a valid parse — never a panic, a hang, or a silent misparse
//! of a corrupted payload.
//!
//! The harness drives the exact sequence the daemon's front thread runs
//! on every binary message: [`parse_header`] (which also enforces the
//! byte cap from the fixed header), [`verify_checksum`], then the
//! tag-appropriate payload decoder. Everything in that chain is bounded
//! by the declared length, so completing the loop at all is the no-hang
//! half of the property.

use dehealth_corpus::{Forum, ForumConfig};
use dehealth_service::frame::{
    decode_add_users_payload, decode_attack_payload, encode_add_users_frame, encode_attack_frame,
    parse_header, verify_checksum, FrameTag, FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES,
};
use dehealth_service::AttackOptions;

const CAP: usize = 8 * 1024 * 1024;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one full front-thread pass over `bytes` produced.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Fewer bytes than the header (or the declared frame) — the real
    /// daemon would keep reading or see EOF; nothing to validate.
    Incomplete,
    /// A typed framing error (header or checksum layer).
    Frame(&'static str),
    /// The frame was well-formed but the payload decoder rejected it.
    Decode,
    /// Parsed to a valid command payload.
    Valid(FrameTag),
}

/// Run the daemon's exact header → checksum → decode sequence. Any panic
/// escapes and fails the test; any return is an acceptable outcome.
fn drive(bytes: &[u8]) -> Outcome {
    let Some(header) = bytes.get(..FRAME_HEADER_BYTES) else {
        return Outcome::Incomplete;
    };
    let header: &[u8; FRAME_HEADER_BYTES] = header.try_into().unwrap();
    let header = match parse_header(header, CAP) {
        Ok(h) => h,
        Err(e) => return Outcome::Frame(e.kind()),
    };
    if bytes.len() < header.frame_len() {
        return Outcome::Incomplete;
    }
    let payload = &bytes[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + header.payload_len as usize];
    let trailer_at = FRAME_HEADER_BYTES + header.payload_len as usize;
    let trailer: &[u8; FRAME_TRAILER_BYTES] =
        bytes[trailer_at..trailer_at + FRAME_TRAILER_BYTES].try_into().unwrap();
    if let Err(e) = verify_checksum(payload, trailer) {
        return Outcome::Frame(e.kind());
    }
    let decoded = match header.tag {
        FrameTag::Attack => decode_attack_payload(payload).map(|_| ()),
        FrameTag::AddAuxiliaryUsers => decode_add_users_payload(payload).map(|_| ()),
    };
    match decoded {
        Ok(()) => Outcome::Valid(header.tag),
        Err(_) => Outcome::Decode,
    }
}

/// One seeded mutation of a valid frame. Every strategy changes the byte
/// string (XOR masks are forced nonzero; truncation/extension change the
/// length), so a mutated frame is never byte-identical to the original.
fn mutate(frame: &[u8], state: &mut u64) -> Vec<u8> {
    let mut out = frame.to_vec();
    match splitmix64(state) % 6 {
        // Flip one random byte.
        0 => {
            let at = (splitmix64(state) % out.len() as u64) as usize;
            out[at] ^= (splitmix64(state) % 255 + 1) as u8;
        }
        // Flip up to 8 random bytes.
        1 => {
            for _ in 0..=(splitmix64(state) % 8) {
                let at = (splitmix64(state) % out.len() as u64) as usize;
                out[at] ^= (splitmix64(state) % 255 + 1) as u8;
            }
        }
        // Truncate to a random shorter prefix.
        2 => {
            out.truncate((splitmix64(state) % frame.len() as u64) as usize);
        }
        // Append random trailing garbage.
        3 => {
            for _ in 0..=(splitmix64(state) % 32) {
                out.push((splitmix64(state) % 256) as u8);
            }
        }
        // Tamper with the declared payload length.
        4 => {
            let declared = (splitmix64(state) % (2 * frame.len() as u64 + 64)) as u32;
            out[4..8].copy_from_slice(&declared.to_le_bytes());
        }
        // Replace everything with random bytes of a random length,
        // keeping the magic half the time so the header survives into
        // the deeper layers.
        _ => {
            let len = (splitmix64(state) % 512 + 1) as usize;
            out = (0..len).map(|_| (splitmix64(state) % 256) as u8).collect();
            if splitmix64(state) % 2 == 0 && out.len() >= 2 {
                out[0] = 0xDE;
                out[1] = 0x48;
            }
        }
    }
    out
}

fn valid_frames() -> Vec<(Vec<u8>, FrameTag)> {
    let forum = Forum::generate(&ForumConfig::tiny(), 11);
    let options = AttackOptions {
        top_k: Some(5),
        n_landmarks: Some(12),
        threads: Some(2),
        seed: Some(0xdead_beef_cafe_f00d),
    };
    vec![
        (encode_attack_frame(&forum, &options), FrameTag::Attack),
        (encode_attack_frame(&forum, &AttackOptions::default()), FrameTag::Attack),
        (encode_add_users_frame(&forum), FrameTag::AddAuxiliaryUsers),
    ]
}

#[test]
fn seeded_mutations_never_panic_and_always_classify() {
    let mut state = 0x5eed_f422_0b57_ac1eu64;
    let frames = valid_frames();
    let mut tally = [0usize; 4];
    for round in 0..200 {
        for (frame, tag) in &frames {
            // The unmutated frame must parse — the baseline the mutants
            // corrupt.
            assert_eq!(drive(frame), Outcome::Valid(*tag), "pristine frame failed (round {round})");
            let mutant = mutate(frame, &mut state);
            assert_ne!(&mutant, frame, "mutation was a no-op (round {round})");
            match drive(&mutant) {
                Outcome::Incomplete => tally[0] += 1,
                Outcome::Frame(kind) => {
                    assert!(
                        matches!(kind, "bad_frame" | "oversize_request" | "frame_checksum"),
                        "unknown frame-error kind {kind}"
                    );
                    tally[1] += 1;
                }
                Outcome::Decode => tally[2] += 1,
                Outcome::Valid(t) => {
                    // A mutant that still parses must have confined its
                    // damage to bytes outside the validated frame extent
                    // (trailing garbage past frame_len) — same tag, same
                    // declared extent, bit-identical bytes within it.
                    let len = frame.len();
                    assert_eq!(t, *tag, "mutant flipped the command tag yet parsed");
                    assert!(
                        mutant.len() >= len && mutant[..len] == frame[..len],
                        "mutant altered validated bytes yet parsed cleanly (round {round})"
                    );
                    tally[3] += 1;
                }
            }
        }
    }
    // 600 mutants must actually exercise the interesting layers, not
    // degenerate into one bucket.
    assert!(tally[1] > 50, "framing layer underexercised: {tally:?}");
    assert!(tally[0] + tally[1] + tally[2] + tally[3] == 600, "lost mutants: {tally:?}");
}

#[test]
fn payload_and_trailer_corruption_is_always_a_checksum_error() {
    let mut state = 7u64;
    for (frame, _) in valid_frames() {
        let payload_len = frame.len() - FRAME_HEADER_BYTES - FRAME_TRAILER_BYTES;
        for _ in 0..50 {
            // Any single-byte corruption past the header — payload or
            // trailer — must surface as the typed checksum error: the
            // declared extent still arrives, parses, and fails closed.
            let mut mutant = frame.clone();
            let at = FRAME_HEADER_BYTES
                + (splitmix64(&mut state) % (payload_len + FRAME_TRAILER_BYTES) as u64) as usize;
            mutant[at] ^= (splitmix64(&mut state) % 255 + 1) as u8;
            assert_eq!(drive(&mutant), Outcome::Frame("frame_checksum"), "flip at byte {at}");
        }
    }
}

#[test]
fn every_truncation_of_a_valid_frame_is_incomplete_or_typed() {
    // Exhaustive, not sampled: every prefix of a valid frame. Prefixes
    // shorter than the declared extent are incomplete reads; no prefix
    // may parse as valid (the trailer can't both arrive and match).
    for (frame, _) in valid_frames() {
        for cut in 0..frame.len() {
            match drive(&frame[..cut]) {
                Outcome::Valid(_) => panic!("truncation to {cut} bytes parsed as valid"),
                Outcome::Incomplete | Outcome::Frame(_) | Outcome::Decode => {}
            }
        }
    }
}
