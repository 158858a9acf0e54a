//! Length-prefixed binary frames for bulk payloads.
//!
//! ## Why frames
//!
//! The newline-JSON protocol ([`protocol`](crate::protocol)) is kept for
//! every control command and as a fully supported legacy path for the
//! bulk ones — but a JSON `forum` is expensive on both sides of the
//! wire: numbers print as text, every post is re-escaped, and the
//! receiver re-validates character by character. The two bulk commands
//! (`attack`, `add_auxiliary_users`) therefore also speak a binary
//! encoding whose `forum` body **reuses the snapshot codec's
//! little-endian byte layout** ([`encode_forum`] / [`decode_forum`] —
//! the exact bytes a corpus snapshot stores), wrapped in a checksummed
//! frame the daemon can validate *before* parsing:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────────────
//!      0     1  magic 0xDE   (never the first byte of a JSON line)
//!      1     1  magic 0x48   ('H')
//!      2     1  command tag  (1 = attack, 2 = add_auxiliary_users)
//!      3     1  reserved, must be 0
//!      4     4  payload length n  (u32, little-endian)
//!      8     n  payload           (snapshot-codec primitives)
//!  8 + n     8  FNV-1a-64 of the payload  (u64, little-endian)
//! ```
//!
//! The declared length lives entirely inside the fixed 8-byte header,
//! so the daemon enforces its request byte cap **from the header** — a
//! frame claiming 2 GiB is rejected the moment those 8 bytes arrive,
//! before any payload is buffered, let alone allocated.
//!
//! ## Encoding detection
//!
//! Requests on one connection are detected per message by their first
//! byte: [`FRAME_MAGIC`]`[0]` (`0xDE`) starts a binary frame, anything
//! else starts a newline-terminated JSON line. `0xDE` is not valid
//! UTF-8 as a leading byte, so no JSON request line can ever begin with
//! it — a connection may freely interleave binary bulk frames with JSON
//! control lines, while JSON bytes *inside* a frame's declared extent
//! fail its checksum and close the connection with a typed error.
//!
//! ## Attack payload schema
//!
//! ```text
//! u32  option flags      (bit 0 top_k, 1 n_landmarks, 2 threads,
//!                         3 seed; any other bit is rejected)
//! u64  × popcount(flags) option values, in bit order
//! u32  n_users │ u32 n_threads │ u32 n_posts │ posts…   (encode_forum)
//! ```
//!
//! `add_auxiliary_users` payloads are the bare [`encode_forum`] bytes.
//! A binary `seed` carries the full `u64` range — the JSON path's
//! 2^53 exact-representation ceiling is a property of `f64` numbers,
//! not of the protocol.
//!
//! Responses are always newline-JSON regardless of request encoding, so
//! replies stay byte-comparable across encodings (`tests/
//! service_parity.rs` holds them bit-identical to each other and to the
//! serial oracle).

use dehealth_corpus::snapshot::{
    decode_forum, encode_forum, fnv1a, SectionBuf, SectionReader, SectionTag,
};
use dehealth_corpus::Forum;

use crate::protocol::AttackOptions;

/// The two-byte frame magic. The first byte doubles as the per-message
/// encoding discriminator (see the [module docs](self)).
pub const FRAME_MAGIC: [u8; 2] = [0xDE, 0x48];

/// Fixed frame header: magic (2) + tag (1) + reserved (1) + length (4).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Fixed frame trailer: the payload's FNV-1a-64 checksum.
pub const FRAME_TRAILER_BYTES: usize = 8;

/// Section tag labelling wire-frame payloads in codec error messages.
const WIRE_TAG: SectionTag = SectionTag(*b"WIRE");

/// The command a binary frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTag {
    /// An `attack` request (options + anonymized forum).
    Attack,
    /// An `add_auxiliary_users` request (auxiliary forum chunk).
    AddAuxiliaryUsers,
}

impl FrameTag {
    /// The tag's wire byte.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            FrameTag::Attack => 1,
            FrameTag::AddAuxiliaryUsers => 2,
        }
    }

    /// Decode a wire byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameTag::Attack),
            2 => Some(FrameTag::AddAuxiliaryUsers),
            _ => None,
        }
    }

    /// The command label the tag maps to (metric families, logs).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FrameTag::Attack => "attack",
            FrameTag::AddAuxiliaryUsers => "add_auxiliary_users",
        }
    }
}

/// A malformed or oversized frame, detected at the framing layer —
/// answered with a typed `"ok":false` line and a closed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The second magic byte is wrong (the first one selected binary
    /// framing, so this is a corrupt or foreign stream).
    BadMagic(u8),
    /// The command tag byte maps to no known bulk command.
    BadTag(u8),
    /// The reserved header byte is nonzero.
    BadReserved(u8),
    /// The declared frame would exceed the request byte cap.
    Oversize {
        /// Total frame bytes the header declares (header + payload +
        /// trailer).
        declared: u64,
        /// The daemon's `max_request_bytes` cap.
        cap: usize,
    },
    /// The payload's FNV-1a checksum does not match the trailer.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(b) => write!(f, "bad frame magic byte 0x{b:02x}"),
            FrameError::BadTag(b) => write!(f, "unknown frame command tag {b}"),
            FrameError::BadReserved(b) => write!(f, "nonzero reserved frame byte {b}"),
            FrameError::Oversize { declared, cap } => {
                write!(f, "frame declares {declared} bytes, exceeding the {cap} byte limit")
            }
            FrameError::ChecksumMismatch => write!(f, "frame payload checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The `daemon_error_kind_total` label this error is counted under.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FrameError::BadMagic(_) | FrameError::BadTag(_) | FrameError::BadReserved(_) => {
                "bad_frame"
            }
            FrameError::Oversize { .. } => "oversize_request",
            FrameError::ChecksumMismatch => "frame_checksum",
        }
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The command the frame carries.
    pub tag: FrameTag,
    /// Payload bytes between header and checksum trailer.
    pub payload_len: u32,
}

impl FrameHeader {
    /// Total frame size: header + payload + trailer.
    #[must_use]
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload_len as usize + FRAME_TRAILER_BYTES
    }
}

/// Validate the fixed 8-byte header: magic, tag, reserved byte, and the
/// declared total length against `cap` — **before** any payload is
/// buffered.
///
/// # Errors
/// The typed [`FrameError`] the daemon answers with.
pub fn parse_header(
    header: &[u8; FRAME_HEADER_BYTES],
    cap: usize,
) -> Result<FrameHeader, FrameError> {
    if header[0] != FRAME_MAGIC[0] || header[1] != FRAME_MAGIC[1] {
        let bad = if header[0] == FRAME_MAGIC[0] { header[1] } else { header[0] };
        return Err(FrameError::BadMagic(bad));
    }
    let tag = FrameTag::from_byte(header[2]).ok_or(FrameError::BadTag(header[2]))?;
    if header[3] != 0 {
        return Err(FrameError::BadReserved(header[3]));
    }
    let payload_len = u32::from_le_bytes(header[4..8].try_into().expect("4 header bytes"));
    let declared = payload_len as u64 + (FRAME_HEADER_BYTES + FRAME_TRAILER_BYTES) as u64;
    if declared > cap as u64 {
        return Err(FrameError::Oversize { declared, cap });
    }
    Ok(FrameHeader { tag, payload_len })
}

/// Verify a complete frame's checksum trailer against its payload.
///
/// # Errors
/// [`FrameError::ChecksumMismatch`].
pub fn verify_checksum(
    payload: &[u8],
    trailer: &[u8; FRAME_TRAILER_BYTES],
) -> Result<(), FrameError> {
    if fnv1a(payload) == u64::from_le_bytes(*trailer) {
        Ok(())
    } else {
        Err(FrameError::ChecksumMismatch)
    }
}

/// Wrap a payload in the frame header and checksum trailer.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes (far beyond any
/// daemon's request cap).
#[must_use]
pub fn encode_frame(tag: FrameTag, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload overflows u32");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len() + FRAME_TRAILER_BYTES);
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(tag.to_byte());
    out.push(0);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

const FLAG_TOP_K: u32 = 1 << 0;
const FLAG_N_LANDMARKS: u32 = 1 << 1;
const FLAG_THREADS: u32 = 1 << 2;
const FLAG_SEED: u32 = 1 << 3;
const KNOWN_FLAGS: u32 = FLAG_TOP_K | FLAG_N_LANDMARKS | FLAG_THREADS | FLAG_SEED;

/// Encode a complete binary `attack` request frame.
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
    encode_frame(FrameTag::Attack, &buf.into_bytes())
}

/// Encode a complete binary `add_auxiliary_users` request frame.
#[must_use]
pub fn encode_add_users_frame(chunk: &Forum) -> Vec<u8> {
    let mut buf = SectionBuf::new();
    encode_forum(chunk, &mut buf);
    encode_frame(FrameTag::AddAuxiliaryUsers, &buf.into_bytes())
}

/// A decoded binary `attack` payload.
#[derive(Debug, Clone)]
pub struct AttackPayload {
    /// Per-request overrides (unset fields keep the daemon's defaults).
    pub options: AttackOptions,
    /// The anonymized forum to de-anonymize.
    pub forum: Forum,
}

fn take_usize(r: &mut SectionReader<'_>, what: &'static str) -> Result<usize, String> {
    let v = r.take_u64().map_err(|e| e.to_string())?;
    usize::try_from(v).map_err(|_| format!("{what} overflows usize"))
}

/// Decode the payload of a checksum-verified binary `attack` frame.
///
/// # Errors
/// A human-readable description of the malformed field (answered as an
/// `invalid_argument` protocol error, mirroring the JSON path).
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

/// Decode the payload of a checksum-verified binary
/// `add_auxiliary_users` frame.
///
/// # Errors
/// Like [`decode_attack_payload`].
pub fn decode_add_users_payload(payload: &[u8]) -> Result<Forum, String> {
    let mut r = SectionReader::standalone(payload, WIRE_TAG);
    let forum = decode_forum(&mut r).map_err(|e| e.to_string())?;
    r.expect_end().map_err(|e| e.to_string())?;
    Ok(forum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::ForumConfig;

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
        let header = parse_header(frame[..8].try_into().unwrap(), usize::MAX).unwrap();
        assert_eq!(header.tag, FrameTag::Attack);
        assert_eq!(header.frame_len(), frame.len());
        let payload = &frame[8..8 + header.payload_len as usize];
        verify_checksum(payload, frame[frame.len() - 8..].try_into().unwrap()).unwrap();
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
        let mut payload = frame[8..frame.len() - 8].to_vec();
        // Bit 4 once carried an approximate-tier margin; no flag above
        // bit 3 is defined.
        for bit in [4, 5, 31] {
            payload[..4].copy_from_slice(&(1u32 << bit).to_le_bytes());
            let err = decode_attack_payload(&payload).unwrap_err();
            assert!(err.starts_with("unknown attack option flags"), "bit {bit}: {err}");
        }
    }

    #[test]
    fn add_users_frame_roundtrips() {
        let forum = Forum::generate(&ForumConfig::tiny(), 9);
        let frame = encode_add_users_frame(&forum);
        let header = parse_header(frame[..8].try_into().unwrap(), usize::MAX).unwrap();
        assert_eq!(header.tag, FrameTag::AddAuxiliaryUsers);
        let payload = &frame[8..8 + header.payload_len as usize];
        let decoded = decode_add_users_payload(payload).unwrap();
        assert_eq!(decoded.posts.len(), forum.posts.len());
    }

    #[test]
    fn header_rejects_oversize_before_any_payload_exists() {
        // A frame claiming 2 GiB, validated from the 8 header bytes alone.
        let mut header = [0u8; 8];
        header[..2].copy_from_slice(&FRAME_MAGIC);
        header[2] = FrameTag::Attack.to_byte();
        header[4..8].copy_from_slice(&(2u32 << 30).to_le_bytes());
        let err = parse_header(&header, 64 * 1024 * 1024).unwrap_err();
        assert!(matches!(err, FrameError::Oversize { declared, .. } if declared > 2 << 30));
        assert_eq!(err.kind(), "oversize_request");
    }

    #[test]
    fn header_rejects_bad_magic_tag_and_reserved() {
        let good = |tag: u8, reserved: u8| {
            let mut h = [0u8; 8];
            h[..2].copy_from_slice(&FRAME_MAGIC);
            h[2] = tag;
            h[3] = reserved;
            h
        };
        let mut h = good(1, 0);
        h[1] = b'X';
        assert!(matches!(parse_header(&h, 1024), Err(FrameError::BadMagic(b'X'))));
        assert!(matches!(parse_header(&good(9, 0), 1024), Err(FrameError::BadTag(9))));
        assert!(matches!(parse_header(&good(2, 7), 1024), Err(FrameError::BadReserved(7))));
        assert_eq!(FrameError::BadTag(9).kind(), "bad_frame");
        assert_eq!(FrameError::ChecksumMismatch.kind(), "frame_checksum");
    }

    #[test]
    fn checksum_catches_a_flipped_payload_byte() {
        let forum = Forum::generate(&ForumConfig::tiny(), 1);
        let mut frame = encode_add_users_frame(&forum);
        let len = frame.len();
        frame[10] ^= 0x40;
        let payload = &frame[8..len - 8];
        let err = verify_checksum(payload, frame[len - 8..].try_into().unwrap()).unwrap_err();
        assert_eq!(err, FrameError::ChecksumMismatch);
    }

    #[test]
    fn first_magic_byte_cannot_start_a_json_line() {
        // 0xDE is a UTF-8 continuation-range lead for 2-byte sequences
        // (0xC2..=0xDF) — but JSON text must start with a structural
        // character or whitespace, all ASCII. The discriminator is safe.
        assert!(!FRAME_MAGIC[0].is_ascii());
    }
}
