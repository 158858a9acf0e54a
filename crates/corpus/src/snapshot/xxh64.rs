//! XXH64 with seed 0: the per-section checksum of the snapshot container.
//!
//! XXH64 folds 32-byte stripes into four independent 64-bit lanes, so it
//! runs several bytes per cycle where byte-serial FNV-1a runs one: over a
//! 4.7 MB snapshot (200 users) it takes ~1.0 ms against FNV-1a's ~8.5 ms
//! (release, 2-vCPU x86-64 VM). [`xxh64`] hashes a whole buffer; [`Xxh64`]
//! hashes a stream written in pieces of any size and gives the same value.

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// Bytes per stripe: four 8-byte lanes.
const STRIPE: usize = 32;

// Inlined in unoptimized builds too: the hot loop of every verified load.
#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Streaming XXH64 (seed 0): [`Self::update`] with the bytes in any
/// number of pieces, then [`Self::finish`].
#[derive(Debug, Clone)]
pub(crate) struct Xxh64 {
    lanes: [u64; 4],
    /// A partial stripe carried between updates.
    buf: [u8; STRIPE],
    buf_len: usize,
    total: u64,
}

impl Xxh64 {
    /// The state before any byte.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            buf: [0; STRIPE],
            buf_len: 0,
            total: 0,
        }
    }

    /// Whole stripes, as runs of four little-endian `u64` lanes.
    fn stripes(&mut self, bytes: &[u8]) {
        let (lanes, rest) = bytes.as_chunks::<8>();
        debug_assert!(rest.is_empty() && lanes.len().is_multiple_of(4));
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for stripe in lanes.chunks_exact(4) {
            a = round(a, u64::from_le_bytes(stripe[0]));
            b = round(b, u64::from_le_bytes(stripe[1]));
            c = round(c, u64::from_le_bytes(stripe[2]));
            d = round(d, u64::from_le_bytes(stripe[3]));
        }
        self.lanes = [a, b, c, d];
    }

    /// Hash the next bytes of the stream.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        if self.buf_len > 0 {
            let take = (STRIPE - self.buf_len).min(bytes.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&bytes[..take]);
            self.buf_len += take;
            bytes = &bytes[take..];
            if self.buf_len < STRIPE {
                return;
            }
            let stripe = self.buf;
            self.stripes(&stripe);
            self.buf_len = 0;
        }
        let (body, rest) = bytes.split_at(bytes.len() / STRIPE * STRIPE);
        self.stripes(body);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// The hash of every byte so far.
    #[must_use]
    pub(crate) fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.lanes.iter().fold(h, |h, &lane| merge_round(h, lane))
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            h ^= round(0, read_u64(tail));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            h ^= u64::from(word).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// XXH64 (seed 0) of `bytes`.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn streamed_equals_one_shot_at_every_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i.wrapping_mul(131) ^ (i >> 3)) as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let want = xxh64(input);
            for split in 0..=len {
                let mut h = Xxh64::new();
                h.update(&input[..split]);
                h.update(&input[split..]);
                assert_eq!(h.finish(), want, "len {len}, split {split}");
            }
            // Byte by byte, through the partial-stripe buffer every time.
            let mut h = Xxh64::new();
            for b in input.chunks(1) {
                h.update(b);
            }
            assert_eq!(h.finish(), want, "len {len}, byte by byte");
        }
    }
}
