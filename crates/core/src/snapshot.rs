//! Snapshot codecs for the attack's per-post feature vectors.
//!
//! The container format (magic/version header, checksummed sections,
//! little-endian primitives) lives in [`dehealth_corpus::snapshot`]; the
//! derived attack structures serialize themselves
//! ([`AttributeIndex::encode`](crate::index::AttributeIndex::encode),
//! [`RefinedContext::encode`](crate::refined::RefinedContext::encode)).
//! This module adds the one codec that belongs to neither: the per-post
//! [`FeatureVector`] lists that every derived structure is computed from.
//! Persisting them is what lets a reload skip stylometric feature
//! extraction — by far the most expensive part of preparing a corpus.

use dehealth_corpus::snapshot::{SectionReader, SectionWrite, SnapshotError};
use dehealth_mapped::LePod;
use dehealth_stylometry::FeatureVector;

/// Encode per-post feature vectors: a count, then each vector as its
/// non-zero `(index u32, value f64-bits)` entry list.
///
/// # Panics
/// Panics if there are more than `u32::MAX` vectors or entries per vector
/// (beyond any supported corpus).
pub fn encode_features<W: SectionWrite>(features: &[FeatureVector], buf: &mut W) {
    buf.put_u32(u32::try_from(features.len()).expect("feature count overflows u32"));
    for v in features {
        buf.put_u32(u32::try_from(v.nnz()).expect("entry count overflows u32"));
        for (i, x) in v.iter_nonzero() {
            buf.put_u32(u32::try_from(i).expect("feature index overflows u32"));
            buf.put_f64(x);
        }
    }
}

/// Decode feature vectors written by [`encode_features`], revalidating
/// the sparse-vector invariants (strictly ascending in-range indices,
/// non-zero finite values) through
/// [`FeatureVector::try_from_sorted_entries`].
///
/// # Errors
/// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`] on
/// malformed payloads; never panics.
pub fn decode_features(r: &mut SectionReader<'_>) -> Result<Vec<FeatureVector>, SnapshotError> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() / 4 {
        return Err(SnapshotError::Malformed { context: "implausible feature-vector count" });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let nnz = r.take_u32()? as usize;
        if nnz > r.remaining() / 12 {
            return Err(SnapshotError::Malformed { context: "implausible entry count" });
        }
        // One bounds check for the vector's `nnz` 12-byte entries, read
        // as three little-endian `u32` words each where the payload is
        // aligned for them (every field is 4 bytes wide, and snapshot
        // payloads start 8-aligned).
        let raw = r.take_raw(nnz * 12)?;
        let mut entries = Vec::with_capacity(nnz);
        if let Some(words) = u32::cast_slice(raw) {
            for w in words.chunks_exact(3) {
                entries.push((w[0], f64::from_bits(u64::from(w[1]) | u64::from(w[2]) << 32)));
            }
        } else {
            for e in raw.chunks_exact(12) {
                let (i, v) = e.split_at(4);
                let i = u32::from_le_bytes(i.try_into().expect("4 bytes"));
                let v = u64::from_le_bytes(v.try_into().expect("8 bytes"));
                entries.push((i, f64::from_bits(v)));
            }
        }
        out.push(
            FeatureVector::try_from_sorted_entries(entries)
                .map_err(|_| SnapshotError::Malformed { context: "invalid feature vector" })?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
    use dehealth_stylometry::extract;

    const TAG: SectionTag = SectionTag(*b"TEST");

    fn roundtrip(features: &[FeatureVector]) -> Result<Vec<FeatureVector>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        encode_features(features, w.section(TAG));
        let bytes = w.finish();
        let reader = SnapshotReader::parse(&bytes)?;
        let mut s = reader.section(TAG)?;
        let out = decode_features(&mut s)?;
        s.expect_end()?;
        Ok(out)
    }

    #[test]
    fn extracted_features_roundtrip_bit_exact() {
        let features: Vec<FeatureVector> = [
            "I realy hate this migrane pain!",
            "rest helps a lot, the doctor said so.",
            "",
            "20 mg twice a day & water",
        ]
        .iter()
        .map(|t| extract(t))
        .collect();
        let back = roundtrip(&features).unwrap();
        assert_eq!(back.len(), features.len());
        for (a, b) in back.iter().zip(&features) {
            assert_eq!(a.nnz(), b.nnz());
            for ((i, x), (j, y)) in a.iter_nonzero().zip(b.iter_nonzero()) {
                assert_eq!(i, j);
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn aligned_and_unaligned_payloads_decode_alike() {
        // An aligned payload reads each entry as three `u32` words, one at
        // an odd address byte by byte; both give the encoded vectors.
        use dehealth_corpus::snapshot::SectionBuf;
        use dehealth_mapped::{AlignedBytes, LePod};
        let features: Vec<FeatureVector> = ["I realy hate this migrane pain!", "", "20 mg & water"]
            .iter()
            .map(|t| extract(t))
            .collect();
        let mut buf = SectionBuf::new();
        encode_features(&features, &mut buf);
        let bytes = buf.into_bytes();
        let aligned = AlignedBytes::from_slice(&bytes);
        let shifted = AlignedBytes::from_slice(&[&[0u8][..], &bytes].concat());
        assert!(u32::cast_slice(&shifted[1..5]).is_none());
        let bits = |vs: &[FeatureVector]| -> Vec<Vec<(usize, u64)>> {
            vs.iter().map(|v| v.iter_nonzero().map(|(i, x)| (i, x.to_bits())).collect()).collect()
        };
        for payload in [&aligned[..], &shifted[1..]] {
            let mut r = SectionReader::standalone(payload, TAG);
            let back = decode_features(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(bits(&back), bits(&features));
        }
    }

    #[test]
    fn corrupt_entries_are_rejected_not_panicked() {
        // Hand-craft a payload with a descending index pair.
        let mut w = SnapshotWriter::new();
        let s = w.section(TAG);
        s.put_u32(1); // one vector
        s.put_u32(2); // two entries
        s.put_u32(5);
        s.put_f64(1.0);
        s.put_u32(3); // descending
        s.put_f64(1.0);
        let bytes = w.finish();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let mut s = reader.section(TAG).unwrap();
        assert!(matches!(
            decode_features(&mut s),
            Err(SnapshotError::Malformed { context: "invalid feature vector" })
        ));
    }
}
