//! Property-based tests for the wire protocol.

use proptest::prelude::*;

use splicecast_protocol::*;

fn arbitrary_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::NotInterested),
        Just(Message::ManifestRequest),
        Just(Message::Goodbye),
        any::<u32>().prop_map(|index| Message::Have { index }),
        any::<u32>().prop_map(|index| Message::Request { index }),
        any::<u32>().prop_map(|index| Message::Cancel { index }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(index, bytes)| Message::SegmentHeader { index, bytes }),
        (any::<u64>(), any::<[u8; 20]>()).prop_map(|(peer_id, info_hash)| Message::Handshake {
            peer_id,
            info_hash,
            version: 1
        }),
        prop::collection::vec(any::<bool>(), 0..200).prop_map(|bits| {
            let mut bf = Bitfield::new(bits.len() as u32);
            for (i, &on) in bits.iter().enumerate() {
                if on {
                    bf.set(i as u32);
                }
            }
            Message::Bitfield(bf)
        }),
        prop::collection::vec(any::<u8>(), 0..500).prop_map(|data| Message::ManifestData {
            payload: data.into()
        }),
        prop::collection::vec(any::<u32>(), 0..64)
            .prop_map(|indices| Message::HaveBundle { indices }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bitfield_matches_a_reference_model(
        ops in prop::collection::vec((any::<bool>(), any::<u16>()), 0..300),
        len in 1u32..300,
    ) {
        let mut bf = Bitfield::new(len);
        let mut model = vec![false; len as usize];
        for (set, pos) in ops {
            let i = u32::from(pos) % len;
            if set {
                bf.set(i);
                model[i as usize] = true;
            } else {
                bf.clear(i);
                model[i as usize] = false;
            }
        }
        for i in 0..len {
            prop_assert_eq!(bf.get(i), model[i as usize]);
        }
        prop_assert_eq!(bf.count_ones() as usize, model.iter().filter(|&&b| b).count());
        let set_indices: Vec<u32> = bf.iter_set().collect();
        let model_indices: Vec<u32> =
            (0..len).filter(|&i| model[i as usize]).collect();
        prop_assert_eq!(set_indices, model_indices);
        // Wire round trip preserves everything.
        let restored = Bitfield::from_wire(len, bf.as_bytes().to_vec()).unwrap();
        prop_assert_eq!(restored, bf);
    }

    #[test]
    fn truncated_frames_never_decode_to_garbage(msg in arbitrary_message()) {
        let wire = encode_to_bytes(&msg);
        for cut in 0..wire.len() {
            // Every frame has a type byte, so no proper prefix completes
            // one: each is an error, never a shorter message.
            prop_assert!(decode_single(&wire[..cut]).is_err());
        }
    }

    #[test]
    fn flipping_any_length_byte_is_safe(msg in arbitrary_message(), flip in any::<u8>()) {
        let mut wire = encode_to_bytes(&msg).to_vec();
        if wire.len() >= 4 {
            wire[3] ^= flip; // corrupt the low length byte
            // Must not panic; any result is acceptable.
            let _ = decode_single(&wire);
        }
    }
}
