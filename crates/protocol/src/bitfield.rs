//! Piece-availability bitsets exchanged between peers.

use serde::{Deserialize, Serialize};

use crate::error::ProtocolError;

/// A fixed-width bitset tracking which segments a peer holds.
///
/// # Examples
///
/// ```
/// use splicecast_protocol::Bitfield;
///
/// let mut held = Bitfield::new(10);
/// held.set(3);
/// held.set(7);
/// assert_eq!(held.count_ones(), 2);
/// assert!(held.get(3) && !held.get(4));
/// assert_eq!(held.iter_set().collect::<Vec<_>>(), vec![3, 7]);
/// ```
/// The backing store is a boxed slice rather than a `Vec`: a bitfield
/// never grows after construction, and dropping the capacity word keeps
/// the struct at 24 bytes — swarms hold one of these per (peer, view)
/// pair, so the word matters at 10k-peer scale.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitfield {
    len: u32,
    bits: Box<[u8]>,
}

impl Bitfield {
    /// Creates an all-zero bitfield of `len` bits.
    pub fn new(len: u32) -> Self {
        Bitfield {
            len,
            bits: vec![0; (len as usize).div_ceil(8)].into_boxed_slice(),
        }
    }

    /// Reconstructs a bitfield from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::MalformedBitfield`] when the byte length
    /// does not match `len` bits or a spare bit is set.
    pub fn from_wire(len: u32, bytes: Vec<u8>) -> Result<Self, ProtocolError> {
        if bytes.len() != (len as usize).div_ceil(8) {
            return Err(ProtocolError::MalformedBitfield);
        }
        let spare_bits = bytes.len() * 8 - len as usize;
        if spare_bits > 0 {
            let last = *bytes.last().expect("non-empty when spare bits exist");
            if last & ((1u8 << spare_bits) - 1) != 0 {
                return Err(ProtocolError::MalformedBitfield);
            }
        }
        Ok(Bitfield {
            len,
            bits: bytes.into_boxed_slice(),
        })
    }

    /// Bytes of heap this bitfield owns (exactly `len.div_ceil(8)`; a
    /// boxed slice has no spare capacity). Input to the swarm's per-peer
    /// memory accounting.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.bits.len()
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when the bitfield has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw bytes, most significant bit first (BitTorrent convention).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Whether bit `index` is set.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn get(&self, index: u32) -> bool {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bits[(index / 8) as usize] & (0x80 >> (index % 8)) != 0
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn set(&mut self, index: u32) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bits[(index / 8) as usize] |= 0x80 >> (index % 8);
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn clear(&mut self, index: u32) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bits[(index / 8) as usize] &= !(0x80 >> (index % 8));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// The expected value of the trailing byte when every bit is set:
    /// all ones except the spare (past-`len`) bits, which stay clear.
    #[inline]
    fn last_byte_mask(&self) -> u8 {
        let spare = self.bits.len() * 8 - self.len as usize;
        0xFFu8 << spare
    }

    /// True when every bit is set. Compares whole 64-bit words against
    /// `u64::MAX` and short-circuits on the first one with a hole, so a
    /// wide field costs len/64 comparisons, not a per-bit (or per-byte)
    /// scan; only the sub-word tail is checked byte-wise.
    pub fn is_complete(&self) -> bool {
        let Some((&last, body)) = self.bits.split_last() else {
            return true;
        };
        let mut words = body.chunks_exact(8);
        for word in words.by_ref() {
            if u64::from_ne_bytes(word.try_into().expect("8-byte chunk")) != u64::MAX {
                return false;
            }
        }
        words.remainder().iter().all(|&b| b == 0xFF) && last == self.last_byte_mask()
    }

    /// A bitfield of `len` bits, all set.
    pub fn full(len: u32) -> Self {
        let mut bf = Bitfield::new(len);
        for b in &mut bf.bits {
            *b = 0xFF;
        }
        let mask = bf.last_byte_mask();
        if let Some(last) = bf.bits.last_mut() {
            *last = mask;
        }
        bf
    }

    /// Iterates over the indices of set bits, ascending. Skips zero bytes
    /// wholesale and walks set bits of a nonzero byte via leading-zeros
    /// (bits are MSB-first on the wire).
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != 0)
            .flat_map(|(byte, &b)| SetBits {
                byte: byte as u32,
                bits: b,
            })
    }

    /// Indices set in `self` but not in `other` — what we could offer them.
    ///
    /// Diffs byte-at-a-time (`self & !other`), so runs where the two fields
    /// agree cost one comparison per byte, not one per bit.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn missing_from(&self, other: &Bitfield) -> Vec<u32> {
        assert_eq!(self.len, other.len, "bitfield lengths differ");
        let mut out = Vec::new();
        for (byte, (&s, &o)) in self.bits.iter().zip(&other.bits).enumerate() {
            let diff = s & !o;
            if diff != 0 {
                out.extend(SetBits {
                    byte: byte as u32,
                    bits: diff,
                });
            }
        }
        out
    }

    /// True when any bit set in `self` is clear in `other` — the boolean
    /// form of [`Bitfield::missing_from`], O(bytes) with early exit and no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn has_any_not_in(&self, other: &Bitfield) -> bool {
        assert_eq!(self.len, other.len, "bitfield lengths differ");
        self.bits
            .iter()
            .zip(&other.bits)
            .any(|(&s, &o)| s & !o != 0)
    }
}

/// Iterator over the set bits of one byte, ascending (MSB-first order).
struct SetBits {
    byte: u32,
    bits: u8,
}

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.bits == 0 {
            return None;
        }
        let bit = self.bits.leading_zeros();
        self.bits &= !(0x80 >> bit);
        Some(self.byte * 8 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bf = Bitfield::new(20);
        assert_eq!(bf.count_ones(), 0);
        bf.set(0);
        bf.set(19);
        bf.set(8);
        assert!(bf.get(0) && bf.get(19) && bf.get(8));
        assert!(!bf.get(1));
        bf.clear(8);
        assert!(!bf.get(8));
        assert_eq!(bf.count_ones(), 2);
    }

    #[test]
    fn completeness() {
        let mut bf = Bitfield::new(3);
        assert!(!bf.is_complete());
        bf.set(0);
        bf.set(1);
        bf.set(2);
        assert!(bf.is_complete());
        assert_eq!(bf, Bitfield::full(3));
    }

    #[test]
    fn wire_round_trip() {
        let mut bf = Bitfield::new(11);
        bf.set(1);
        bf.set(10);
        let restored = Bitfield::from_wire(11, bf.as_bytes().to_vec()).unwrap();
        assert_eq!(restored, bf);
    }

    #[test]
    fn wire_rejects_bad_lengths_and_spare_bits() {
        assert_eq!(
            Bitfield::from_wire(9, vec![0xFF]).unwrap_err(),
            ProtocolError::MalformedBitfield
        );
        // 9 bits needs 2 bytes, with the low 7 bits of byte 1 clear.
        assert!(Bitfield::from_wire(9, vec![0xFF, 0x80]).is_ok());
        assert_eq!(
            Bitfield::from_wire(9, vec![0xFF, 0xC0]).unwrap_err(),
            ProtocolError::MalformedBitfield
        );
    }

    #[test]
    fn missing_from_diffs() {
        let mut seeder = Bitfield::full(5);
        seeder.clear(4);
        let mut leecher = Bitfield::new(5);
        leecher.set(0);
        assert_eq!(seeder.missing_from(&leecher), vec![1, 2, 3]);
        assert_eq!(leecher.missing_from(&seeder), Vec::<u32>::new());
    }

    #[test]
    fn empty_bitfield() {
        let bf = Bitfield::new(0);
        assert!(bf.is_empty());
        assert!(bf.is_complete());
        assert_eq!(bf.iter_set().count(), 0);
        assert!(Bitfield::from_wire(0, vec![]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        let bf = Bitfield::new(4);
        let _ = bf.get(4);
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_diff_panics() {
        let _ = Bitfield::new(4).missing_from(&Bitfield::new(5));
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn mismatched_has_any_panics() {
        let _ = Bitfield::new(4).has_any_not_in(&Bitfield::new(5));
    }

    /// Deterministic LCG for the property tests (no external fuzzing deps).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    fn random_bitfield(len: u32, density_pct: u64, state: &mut u64) -> Bitfield {
        let mut bf = Bitfield::new(len);
        for i in 0..len {
            if lcg(state) % 100 < density_pct {
                bf.set(i);
            }
        }
        bf
    }

    /// The byte-skipping fast paths must agree with the definitional
    /// per-bit implementations across lengths (including non-multiples of
    /// 8 and zero) and densities (empty, sparse, dense, full).
    #[test]
    fn word_level_ops_match_naive() {
        let mut state = 0x5EED_CAFE;
        for len in [0u32, 1, 7, 8, 9, 16, 63, 64, 65, 200, 1031] {
            for density in [0u64, 3, 50, 97, 100] {
                let a = random_bitfield(len, density, &mut state);
                let b = random_bitfield(len, density, &mut state);

                let naive_set: Vec<u32> = (0..len).filter(|&i| a.get(i)).collect();
                assert_eq!(a.iter_set().collect::<Vec<_>>(), naive_set);

                let naive_missing: Vec<u32> = (0..len).filter(|&i| a.get(i) && !b.get(i)).collect();
                assert_eq!(a.missing_from(&b), naive_missing);
                assert_eq!(a.has_any_not_in(&b), !naive_missing.is_empty());

                let naive_complete = (0..len).all(|i| a.get(i));
                assert_eq!(a.is_complete(), naive_complete);
            }
        }
    }

    #[test]
    fn full_matches_per_bit_construction() {
        for len in [0u32, 1, 7, 8, 9, 63, 64, 65, 200] {
            let mut naive = Bitfield::new(len);
            for i in 0..len {
                naive.set(i);
            }
            let fast = Bitfield::full(len);
            assert_eq!(fast, naive, "len {len}");
            assert!(fast.is_complete());
            // Spare bits stay clear, so the wire form stays canonical.
            assert!(Bitfield::from_wire(len, fast.as_bytes().to_vec()).is_ok());
        }
    }
}
