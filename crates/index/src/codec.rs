//! Tiny length-prefixed encoding for (key, value) entry lists stored inside
//! bucket / leaf objects.

use bytes::{BufMut, Bytes, BytesMut};

/// Encodes a list of `(key, value)` pairs into one object payload.
pub fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u16_le(entries.len() as u16);
    for (k, v) in entries {
        buf.put_u16_le(k.len() as u16);
        buf.put_slice(k);
        buf.put_u16_le(v.len() as u16);
        buf.put_slice(v);
    }
    buf.freeze()
}

/// Decodes an object payload produced by [`encode_entries`]. Returns an empty
/// list for an empty payload (freshly allocated bucket).
pub fn decode_entries(data: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
    entries(data)
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect()
}

/// The value stored under `key` in a payload produced by
/// [`encode_entries`], borrowed from the payload: the entries before it are
/// skipped by their length prefixes, none is copied, nothing is allocated.
/// Agrees with searching [`decode_entries`]'s output.
pub fn find_entry<'a>(data: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    entries(data).find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The complete entries of a payload, borrowed from it, in order. A
/// truncated payload yields the entries before the first incomplete one.
fn entries(data: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
    let count = match data {
        [lo, hi, ..] => u16::from_le_bytes([*lo, *hi]) as usize,
        _ => 0,
    };
    let mut rest = data.get(2..).unwrap_or_default();
    (0..count).map_while(move |_| {
        let key = take_field(&mut rest)?;
        let value = take_field(&mut rest)?;
        Some((key, value))
    })
}

/// Splits one `u16`-length-prefixed field off the front of `rest`.
fn take_field<'a>(rest: &mut &'a [u8]) -> Option<&'a [u8]> {
    let [lo, hi, tail @ ..] = *rest else {
        return None;
    };
    let len = u16::from_le_bytes([*lo, *hi]) as usize;
    if tail.len() < len {
        return None;
    }
    let (field, tail) = tail.split_at(len);
    *rest = tail;
    Some(field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let entries = vec![
            (b"alpha".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), vec![7u8; 100]),
            (Vec::new(), Vec::new()),
        ];
        let encoded = encode_entries(&entries);
        assert_eq!(decode_entries(&encoded), entries);
    }

    #[test]
    fn empty_and_garbage_payloads_decode_to_empty() {
        assert!(decode_entries(&[]).is_empty());
        assert!(decode_entries(&[0]).is_empty());
        let truncated = encode_entries(&[(b"key".to_vec(), b"value".to_vec())]);
        let cut = &truncated[..truncated.len() - 2];
        // Truncated payloads never panic; they just yield fewer entries.
        assert!(decode_entries(cut).len() <= 1);
    }

    /// The reference `find_entry` must agree with: decode everything, then
    /// search.
    fn decode_then_find(data: &[u8], key: &[u8]) -> Option<Vec<u8>> {
        decode_entries(data)
            .into_iter()
            .find(|(k, _)| k.as_slice() == key)
            .map(|(_, v)| v)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// On well-formed multi-entry payloads (small key alphabet, so
        /// duplicates and near-misses occur), on every truncation of them,
        /// and for present and absent keys alike.
        #[test]
        fn find_entry_agrees_with_decode(
            entries in prop::collection::vec(
                (prop::collection::vec(0u8..3, 0..4), prop::collection::vec(0u8..=255, 0..6)),
                0..8,
            ),
            probe in prop::collection::vec(0u8..3, 0..4),
        ) {
            let encoded = encode_entries(&entries);
            let mut keys: Vec<&[u8]> = entries.iter().map(|(k, _)| k.as_slice()).collect();
            keys.push(&probe);
            for cut in 0..=encoded.len() {
                let data = &encoded[..cut];
                for key in &keys {
                    let found = find_entry(data, key);
                    prop_assert_eq!(found.map(<[u8]>::to_vec), decode_then_find(data, key));
                    // A cut payload never yields a cut value.
                    prop_assert!(found.is_none() || found == find_entry(&encoded, key));
                }
            }
            // Every stored key is found, with the value of its first entry.
            for (k, _) in &entries {
                let first = entries.iter().find(|(k2, _)| k2 == k).map(|(_, v)| v.as_slice());
                prop_assert_eq!(find_entry(&encoded, k), first);
            }
        }

        /// Arbitrary bytes never panic and still agree with decoding.
        #[test]
        fn find_entry_survives_garbage(
            data in prop::collection::vec(0u8..=255, 0..48),
            probe in prop::collection::vec(0u8..=255, 0..3),
        ) {
            prop_assert_eq!(find_entry(&data, &probe).map(<[u8]>::to_vec), decode_then_find(&data, &probe));
        }
    }
}
