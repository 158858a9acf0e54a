//! The retired binary `attack` frame codec, kept for the benchmark.
//!
//! The daemon speaks newline JSON only; no daemon or client path reads or
//! writes these bytes. The codec stays because the benchmark's traced
//! serve replay still times a frame decode (`frame.decode_s` in
//! `perfbench/src/serve.rs`), and goes with that metric at the next
//! benchmark change.
//!
//! A frame wraps the attack payload in an 8-byte header and an 8-byte
//! trailer:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────────────
//!      0     2  magic 0xDE 0x48
//!      2     1  command tag 1 (attack)
//!      3     1  reserved, 0
//!      4     4  payload length n  (u32, little-endian)
//!      8     n  payload
//!  8 + n     8  FNV-1a-64 of the payload  (u64, little-endian)
//! ```
//!
//! The payload reuses the snapshot codec's little-endian primitives:
//!
//! ```text
//! u32  option flags      (bit 0 top_k, 1 n_landmarks, 2 threads,
//!                         3 seed; any other bit is rejected)
//! u64  × popcount(flags) option values, in bit order
//! u32  n_users │ u32 n_threads │ u32 n_posts │ posts…   (encode_forum)
//! ```

use dehealth_corpus::snapshot::{
    decode_forum, encode_forum, fnv1a, SectionBuf, SectionReader, SectionTag,
};
use dehealth_corpus::Forum;

use crate::protocol::AttackOptions;

/// Fixed frame header: magic (2) + tag (1) + reserved (1) + length (4).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Fixed frame trailer: the payload's FNV-1a-64 checksum.
pub const FRAME_TRAILER_BYTES: usize = 8;

/// The first four header bytes of an `attack` frame: magic, tag,
/// reserved byte.
const ATTACK_HEADER: [u8; 4] = [0xDE, 0x48, 1, 0];

/// Section tag labelling frame payloads in codec error messages.
const WIRE_TAG: SectionTag = SectionTag(*b"WIRE");

const FLAG_TOP_K: u32 = 1 << 0;
const FLAG_N_LANDMARKS: u32 = 1 << 1;
const FLAG_THREADS: u32 = 1 << 2;
const FLAG_SEED: u32 = 1 << 3;
const KNOWN_FLAGS: u32 = FLAG_TOP_K | FLAG_N_LANDMARKS | FLAG_THREADS | FLAG_SEED;

/// Encode a complete `attack` frame: header, payload and checksum
/// trailer.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes.
#[must_use]
pub fn encode_attack_frame(anonymized: &Forum, options: &AttackOptions) -> Vec<u8> {
    let mut buf = SectionBuf::new();
    let mut flags = 0u32;
    for (set, flag) in [
        (options.top_k.is_some(), FLAG_TOP_K),
        (options.n_landmarks.is_some(), FLAG_N_LANDMARKS),
        (options.threads.is_some(), FLAG_THREADS),
        (options.seed.is_some(), FLAG_SEED),
    ] {
        if set {
            flags |= flag;
        }
    }
    buf.put_u32(flags);
    if let Some(k) = options.top_k {
        buf.put_len(k);
    }
    if let Some(h) = options.n_landmarks {
        buf.put_len(h);
    }
    if let Some(t) = options.threads {
        buf.put_len(t);
    }
    if let Some(s) = options.seed {
        buf.put_u64(s);
    }
    encode_forum(anonymized, &mut buf);
    let payload = buf.into_bytes();
    let len = u32::try_from(payload.len()).expect("frame payload overflows u32");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&ATTACK_HEADER);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

/// A decoded `attack` payload.
#[derive(Debug, Clone)]
pub struct AttackPayload {
    /// Per-request overrides (unset fields keep the defaults).
    pub options: AttackOptions,
    /// The anonymized forum to de-anonymize.
    pub forum: Forum,
}

fn take_usize(r: &mut SectionReader<'_>, what: &'static str) -> Result<usize, String> {
    let v = r.take_u64().map_err(|e| e.to_string())?;
    usize::try_from(v).map_err(|_| format!("{what} overflows usize"))
}

/// Decode the payload of an `attack` frame (the bytes between its header
/// and trailer).
///
/// # Errors
/// A human-readable description of the malformed field.
pub fn decode_attack_payload(payload: &[u8]) -> Result<AttackPayload, String> {
    let mut r = SectionReader::standalone(payload, WIRE_TAG);
    let flags = r.take_u32().map_err(|e| e.to_string())?;
    if flags & !KNOWN_FLAGS != 0 {
        return Err(format!("unknown attack option flags 0x{:x}", flags & !KNOWN_FLAGS));
    }
    let mut options = AttackOptions::default();
    if flags & FLAG_TOP_K != 0 {
        options.top_k = Some(take_usize(&mut r, "top_k")?);
    }
    if flags & FLAG_N_LANDMARKS != 0 {
        options.n_landmarks = Some(take_usize(&mut r, "n_landmarks")?);
    }
    if flags & FLAG_THREADS != 0 {
        options.threads = Some(take_usize(&mut r, "threads")?);
    }
    if flags & FLAG_SEED != 0 {
        options.seed = Some(r.take_u64().map_err(|e| e.to_string())?);
    }
    let forum = decode_forum(&mut r).map_err(|e| e.to_string())?;
    r.expect_end().map_err(|e| e.to_string())?;
    Ok(AttackPayload { options, forum })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::ForumConfig;

    /// The payload of a frame, between its header and trailer.
    fn payload_of(frame: &[u8]) -> &[u8] {
        &frame[FRAME_HEADER_BYTES..frame.len() - FRAME_TRAILER_BYTES]
    }

    #[test]
    fn attack_frame_roundtrips_with_full_u64_seed() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let options = AttackOptions {
            top_k: Some(7),
            n_landmarks: None,
            threads: Some(2),
            seed: Some(u64::MAX - 5), // far beyond the JSON wire's 2^53
        };
        let frame = encode_attack_frame(&forum, &options);
        assert_eq!(frame[..4], ATTACK_HEADER);
        let payload = payload_of(&frame);
        let declared = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        assert_eq!(declared as usize, payload.len());
        let trailer = u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap());
        assert_eq!(trailer, fnv1a(payload));
        let decoded = decode_attack_payload(payload).unwrap();
        assert_eq!(decoded.options, options);
        assert_eq!(decoded.forum.n_users, forum.n_users);
        assert_eq!(decoded.forum.posts.len(), forum.posts.len());
        for (a, b) in decoded.forum.posts.iter().zip(&forum.posts) {
            assert_eq!((a.author, a.thread, &a.text), (b.author, b.thread, &b.text));
        }
    }

    #[test]
    fn unknown_option_flags_are_rejected() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let frame = encode_attack_frame(&forum, &AttackOptions::default());
        let mut payload = payload_of(&frame).to_vec();
        // Bit 4 once carried an approximate-tier margin; no flag above
        // bit 3 is defined.
        for bit in [4, 5, 31] {
            payload[..4].copy_from_slice(&(1u32 << bit).to_le_bytes());
            let err = decode_attack_payload(&payload).unwrap_err();
            assert!(err.starts_with("unknown attack option flags"), "bit {bit}: {err}");
        }
    }
}
