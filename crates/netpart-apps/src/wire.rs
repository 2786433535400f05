//! The one wire codec every application marshals through: a payload or
//! checkpoint blob is a concatenation of little-endian `u64` header words
//! and runs of `f32`/`f64` raw bit patterns — no framing, padding or
//! length prefix, so NaN payloads, signed zeros and subnormals cross the
//! wire bit for bit. `put_*` appends a slice, or any run of known length
//! such as a strided column, to a `Vec` the caller pre-sized; `get_*`
//! fills a slice the caller owns; both go through `chunks_exact`, which
//! compiles to a straight copy on little-endian targets.

macro_rules! codec {
    ($put:ident, $get:ident, $t:ty) => {
        /// Append `vals` to `buf`, little-endian, in order.
        pub(crate) fn $put<'a, I>(buf: &mut Vec<u8>, vals: I)
        where
            I: IntoIterator<Item = &'a $t>,
            I::IntoIter: ExactSizeIterator,
        {
            const W: usize = std::mem::size_of::<$t>();
            let vals = vals.into_iter();
            let at = buf.len();
            buf.resize(at + W * vals.len(), 0);
            for (dst, v) in buf[at..].chunks_exact_mut(W).zip(vals) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
        }

        /// Decode `bytes` into `out`. Panics unless `bytes` holds exactly
        /// `out.len()` values.
        pub(crate) fn $get(bytes: &[u8], out: &mut [$t]) {
            const W: usize = std::mem::size_of::<$t>();
            assert_eq!(bytes.len(), W * out.len(), "wire run length mismatch");
            for (src, v) in bytes.chunks_exact(W).zip(out) {
                *v = <$t>::from_le_bytes(src.try_into().expect("chunk width"));
            }
        }
    };
}

codec!(put_f32s, get_f32s, f32);
codec!(put_f64s, get_f64s, f64);
codec!(put_u64s, get_u64s, u64);

/// The `u64` header word at byte offset `at`, as an index.
pub(crate) fn get_index(bytes: &[u8], at: usize) -> usize {
    let mut word = [0u64];
    get_u64s(&bytes[at..at + 8], &mut word);
    word[0] as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Raw bit patterns — NaN payloads, −0.0, subnormals, infinities —
        /// round-trip exactly, and the encoding is `to_le_bytes` per value.
        #[test]
        fn f32_runs_round_trip_bit_for_bit(
            bits in prop::collection::vec(any::<u32>(), 0..300),
            prefix in 0usize..9,
        ) {
            let mut vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            vals.extend([f32::NAN, -0.0, f32::MIN_POSITIVE / 2.0, f32::INFINITY]);
            let mut buf = vec![0xAB; prefix];
            put_f32s(&mut buf, &vals);
            prop_assert_eq!(buf.len(), prefix + 4 * vals.len());
            let naive: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(&buf[prefix..], &naive[..]);
            let mut back = vec![0.0f32; vals.len()];
            get_f32s(&buf[prefix..], &mut back);
            let back_bits: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back_bits, want_bits);
        }

        #[test]
        fn f64_and_u64_runs_round_trip_bit_for_bit(
            bits in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let mut vals: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            vals.extend([f64::NAN, -0.0, f64::MIN_POSITIVE / 2.0, f64::NEG_INFINITY]);
            let mut buf = Vec::new();
            put_f64s(&mut buf, &vals);
            let naive: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(&buf, &naive);
            let mut back = vec![0.0f64; vals.len()];
            get_f64s(&buf, &mut back);
            let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&back_bits, &want_bits);

            let mut words = Vec::new();
            put_u64s(&mut words, &want_bits);
            prop_assert_eq!(&words, &naive);
            for (i, &w) in want_bits.iter().enumerate() {
                prop_assert_eq!(get_index(&words, 8 * i), w as usize);
            }
        }

        /// A run whose byte length disagrees with the destination — short,
        /// long, or not a multiple of the width — is refused, never
        /// partially decoded.
        #[test]
        fn length_mismatch_panics(len in 0usize..40, bytes in 0usize..200) {
            prop_assume!(bytes != 4 * len);
            let refused = std::panic::catch_unwind(|| {
                get_f32s(&vec![0u8; bytes], &mut vec![0.0f32; len]);
            });
            prop_assert!(refused.is_err());
        }
    }
}
