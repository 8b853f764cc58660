//! Conversions between a per-byte bit mask of one memory reference (bit `i`
//! = byte `i`, at most four bytes) and the 2-bit-per-byte packed fields
//! [`igm_shadow::TwoLevelShadow::packed_load`] returns for it — the
//! metadata format MemCheck and TaintCheck share.

/// The 2-bit value `v` in each of the first `n` fields.
#[inline]
pub(crate) fn every(v: u8, n: u32) -> u32 {
    (v as u32 * 0x55) & ((1 << (2 * n)) - 1)
}

/// Bit `i` of `mask` (`i < 4`) moved to the low bit of field `i`.
#[inline]
pub(crate) fn spread(mask: u8) -> u32 {
    let m = mask as u32;
    (m & 1) | (m & 2) << 1 | (m & 4) << 2 | (m & 8) << 3
}

/// The low bit of field `i` (`i < 4`) moved to bit `i`; the fields' high
/// bits are ignored.
#[inline]
pub(crate) fn gather(fields: u32) -> u8 {
    ((fields & 1) | (fields >> 1 & 2) | (fields >> 2 & 4) | (fields >> 3 & 8)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_and_gather_are_inverse_on_low_bits() {
        for mask in 0..16u8 {
            let fields = spread(mask);
            assert_eq!(fields & !0x55, 0);
            assert_eq!(gather(fields), mask);
            // High bits of the fields do not leak into the gathered mask.
            assert_eq!(gather(fields | 0xaa), mask);
        }
    }

    #[test]
    fn every_fills_only_the_reference() {
        assert_eq!(every(0b10, 1), 0b10);
        assert_eq!(every(0b11, 2), 0b1111);
        assert_eq!(every(0b01, 4), 0b0101_0101);
        assert_eq!(every(0, 4), 0);
    }
}
