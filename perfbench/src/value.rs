//! Keys and self-checking values.
//!
//! A key is its index as 8 big-endian bytes, so key order is index order
//! and a 10-key scan from index `i` covers `i..i+10` on a dense range.
//! Every value carries the key index it was written for, so any read can
//! be checked without a model of the store:
//! * 8-byte values hold `index | version << 40`;
//! * longer values hold the index and the version as two little-endian
//!   words, then a filler derived from both, checked byte by byte.

/// Bits of an 8-byte value that hold the key index.
const IDX_BITS: u32 = 40;

/// The key bytes for index `idx`.
pub fn key(idx: u64) -> [u8; 8] {
    idx.to_be_bytes()
}

/// The index a key encodes, if it is a benchmark key.
pub fn key_index(key: &[u8]) -> Option<u64> {
    <[u8; 8]>::try_from(key).ok().map(u64::from_be_bytes)
}

fn filler(idx: u64, version: u64, j: usize) -> u8 {
    (idx.wrapping_mul(31) ^ version.wrapping_mul(131) ^ j as u64) as u8
}

/// Writes the value of length `len` (8, or at least 16) for `(idx,
/// version)` into `out`.
pub fn encode(idx: u64, version: u64, len: usize, out: &mut Vec<u8>) {
    out.clear();
    if len == 8 {
        let v = (idx & ((1 << IDX_BITS) - 1)) | (version << IDX_BITS);
        out.extend_from_slice(&v.to_le_bytes());
        return;
    }
    assert!(len >= 16, "values are 8 bytes or at least 16");
    out.extend_from_slice(&idx.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend((16..len).map(|j| filler(idx, version, j)));
}

/// The value for `(idx, version)` as a fresh vector.
pub fn make(idx: u64, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    encode(idx, version, len, &mut v);
    v
}

/// Checks that `val` is a well-formed value of length `len` written for
/// key index `idx`; returns the version it carries.
pub fn check(idx: u64, val: &[u8], len: usize) -> Result<u64, String> {
    if val.len() != len {
        return Err(format!(
            "key {idx}: value has {} bytes, expected {len}",
            val.len()
        ));
    }
    if len == 8 {
        let v = u64::from_le_bytes(val.try_into().expect("8 bytes"));
        let got = v & ((1 << IDX_BITS) - 1);
        if got != idx & ((1 << IDX_BITS) - 1) {
            return Err(format!("key {idx}: value was written for key {got}"));
        }
        return Ok(v >> IDX_BITS);
    }
    let got = u64::from_le_bytes(val[..8].try_into().expect("8 bytes"));
    if got != idx {
        return Err(format!("key {idx}: value was written for key {got}"));
    }
    let version = u64::from_le_bytes(val[8..16].try_into().expect("8 bytes"));
    for (j, &b) in val.iter().enumerate().skip(16) {
        if b != filler(idx, version, j) {
            return Err(format!("key {idx}: value byte {j} is corrupt"));
        }
    }
    Ok(version)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_foreign_or_corrupt_bytes() {
        for len in [8usize, 16, 32, 100] {
            let v = make(1234, 56, len);
            assert_eq!(check(1234, &v, len), Ok(56));
            assert!(check(1235, &v, len).is_err(), "foreign key at {len}");
            assert!(check(1234, &v[..len - 1], len).is_err());
        }
        let mut v = make(9, 3, 100);
        v[50] ^= 1;
        assert!(check(9, &v, 100).is_err(), "flipped filler byte");
        assert_eq!(key_index(&key(77)), Some(77));
        assert_eq!(key_index(b"short"), None);
    }
}
