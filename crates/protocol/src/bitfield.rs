//! Piece-availability bitsets exchanged between peers.

use crate::error::ProtocolError;

/// A fixed-width bitset of segments: the wire form of what a peer holds
/// ([`Message::Bitfield`](crate::Message::Bitfield)) and a leecher's mask
/// of the segments it has in flight.
///
/// The bytes are a boxed slice rather than a `Vec`: a bitfield never
/// grows, so it needs no capacity word.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bitfield {
    len: u32,
    /// `len.div_ceil(8)` bytes; the spare bits of the last stay zero, so
    /// the derived `Eq` and `Hash` compare content.
    bytes: Box<[u8]>,
}

impl Bitfield {
    /// Creates an all-zero bitfield of `len` bits.
    pub fn new(len: u32) -> Self {
        Bitfield {
            len,
            bytes: vec![0; (len as usize).div_ceil(8)].into_boxed_slice(),
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
            bytes: bytes.into_boxed_slice(),
        })
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
        &self.bytes
    }

    /// Whether bit `index` is set.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn get(&self, index: u32) -> bool {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bytes[(index / 8) as usize] & (0x80 >> (index % 8)) != 0
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn set(&mut self, index: u32) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bytes[(index / 8) as usize] |= 0x80 >> (index % 8);
    }

    /// Clears bit `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index >= len`.
    #[inline]
    pub fn clear(&mut self, index: u32) {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.bytes[(index / 8) as usize] &= !(0x80 >> (index % 8));
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.bytes.iter().map(|b| b.count_ones()).sum()
    }

    /// The expected value of the trailing byte when every bit is set:
    /// all ones except the spare (past-`len`) bits, which stay clear.
    #[inline]
    fn last_byte_mask(&self) -> u8 {
        let spare = self.bytes.len() * 8 - self.len as usize;
        0xFFu8 << spare
    }

    /// A bitfield of `len` bits, all set.
    pub fn full(len: u32) -> Self {
        let mut bf = Bitfield::new(len);
        let mask = bf.last_byte_mask();
        bf.bytes.fill(0xFF);
        if let Some(last) = bf.bytes.last_mut() {
            *last = mask;
        }
        bf
    }

    /// Iterates over the indices of set bits, ascending. Skips zero bytes
    /// wholesale and walks set bits of a nonzero byte via leading-zeros
    /// (bits are MSB-first on the wire).
    pub fn iter_set(&self) -> impl Iterator<Item = u32> + '_ {
        self.bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b != 0)
            .flat_map(|(byte, &b)| SetBits {
                byte: byte as u32,
                bits: b,
            })
    }

    /// True when any bit set in `self` is clear in `other`: something
    /// `self` could offer. O(bytes) with early exit and no allocation.
    ///
    /// No program path calls it; it stays because the benchmark times it
    /// (`protocol.bitfield.has_any_not_in_ns`), and goes with that metric.
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    pub fn has_any_not_in(&self, other: &Bitfield) -> bool {
        assert_eq!(self.len, other.len, "bitfield lengths differ");
        self.bytes
            .iter()
            .zip(&other.bytes)
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
        assert_ne!(bf, Bitfield::full(3));
        bf.set(0);
        bf.set(1);
        bf.set(2);
        assert_eq!(bf.count_ones(), bf.len());
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
    fn empty_bitfield() {
        let bf = Bitfield::new(0);
        assert!(bf.is_empty());
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

                let naive_any = (0..len).any(|i| a.get(i) && !b.get(i));
                assert_eq!(a.has_any_not_in(&b), naive_any);
            }
        }
    }

    fn hash_of(bf: &Bitfield) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        bf.hash(&mut hasher);
        hasher.finish()
    }

    /// Every public reader of `bf` (and the binary ones against `other`)
    /// against the `Vec<bool>` it is supposed to represent.
    fn assert_matches_model(bf: &Bitfield, model: &[bool], other: &Bitfield, other_model: &[bool]) {
        let len = model.len() as u32;
        let set: Vec<u32> = (0..len).filter(|&i| model[i as usize]).collect();
        assert_eq!((bf.len(), bf.is_empty()), (len, len == 0));
        assert!((0..len).all(|i| bf.get(i) == model[i as usize]));
        assert_eq!(bf.count_ones() as usize, set.len());
        assert_eq!(bf.iter_set().collect::<Vec<_>>(), set);
        let mut wire = vec![0u8; model.len().div_ceil(8)];
        for &i in &set {
            wire[i as usize / 8] |= 0x80 >> (i % 8);
        }
        assert_eq!(bf.as_bytes(), wire);
        let any_missing = set.iter().any(|&i| !other_model[i as usize]);
        assert_eq!(bf.has_any_not_in(other), any_missing);
        // The wire form round-trips to an equal field that hashes alike.
        let back = Bitfield::from_wire(len, wire).unwrap();
        assert_eq!(&back, bf);
        assert_eq!(hash_of(&back), hash_of(bf));
        assert_eq!(bf == other, model == other_model);
    }

    /// The inline (≤ 64 bits) and boxed stores are one type: on both sides
    /// of the boundary every method agrees with a `Vec<bool>`.
    #[test]
    fn every_method_matches_a_bool_vec_on_both_sides_of_64_bits() {
        let mut state = 0xB17F_1E1D;
        for len in [0u32, 1, 7, 8, 63, 64, 65, 128, 197] {
            let n = len as usize;
            let other = random_bitfield(len, 50, &mut state);
            let other_model: Vec<bool> = (0..len).map(|i| other.get(i)).collect();
            let mut bf = Bitfield::new(len);
            let mut model = vec![false; n];
            assert_matches_model(&bf, &model, &other, &other_model);
            for _ in 0..3 * n {
                let i = (lcg(&mut state) % u64::from(len)) as u32;
                if lcg(&mut state).is_multiple_of(3) {
                    bf.clear(i);
                    model[i as usize] = false;
                } else {
                    bf.set(i);
                    model[i as usize] = true;
                }
                assert_matches_model(&bf, &model, &other, &other_model);
            }
            // The same content reached from the other end: full, then cleared.
            let mut carved = Bitfield::full(len);
            assert_matches_model(&carved, &vec![true; n], &other, &other_model);
            for i in (0..len).filter(|&i| !model[i as usize]) {
                carved.clear(i);
            }
            assert_eq!(carved, bf);
            assert_eq!(hash_of(&carved), hash_of(&bf));
            assert_eq!(carved.clone(), bf);

            // The wire form is still checked: byte count and spare bits.
            let wire = bf.as_bytes().to_vec();
            let mut long = wire.clone();
            long.push(0);
            assert!(Bitfield::from_wire(len, long).is_err());
            if let Some((&last, short)) = wire.split_last() {
                assert!(Bitfield::from_wire(len, short.to_vec()).is_err());
                if len % 8 != 0 {
                    let mut spare = wire.clone();
                    spare[n / 8] = last | 1;
                    assert!(Bitfield::from_wire(len, spare).is_err());
                }
            }
        }
    }

    /// 24 bytes: the length and the boxed slice's pointer and length
    /// words.
    #[test]
    fn bitfield_is_three_words() {
        assert_eq!(std::mem::size_of::<Bitfield>(), 24);
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
            assert_eq!(fast.count_ones(), len);
            // Spare bits stay clear, so the wire form stays canonical.
            assert!(Bitfield::from_wire(len, fast.as_bytes().to_vec()).is_ok());
        }
    }
}
