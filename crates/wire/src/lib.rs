//! Binary wire format for Globe.
//!
//! The ICDCS'98 Globe paper requires that replication and communication
//! sub-objects be unaware of an object's semantics: they operate only on
//! *marshalled invocation messages* "in which method identifiers and
//! parameters have been encoded". This crate supplies that marshalling
//! layer: a small, explicit, length-checked binary format used by every
//! protocol message, clock, and invocation in the workspace.
//!
//! Values implement [`WireEncode`] and [`WireDecode`]. The format is not
//! self-describing; both sides must agree on the type, exactly as two
//! replicas of the same distributed object do.
//!
//! # Examples
//!
//! ```
//! use globe_wire::{from_bytes, to_bytes};
//!
//! # fn main() -> Result<(), globe_wire::WireError> {
//! let v: Vec<String> = vec!["index.html".into(), "logo.png".into()];
//! let bytes = to_bytes(&v);
//! let back: Vec<String> = from_bytes(&bytes)?;
//! assert_eq!(v, back);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
pub mod varint;

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes};

pub use error::WireError;
pub use varint::{get_varint, put_varint, varint_len, zigzag_decode, zigzag_encode};

/// Sanity limit on decoded length prefixes (strings, vectors, byte blobs).
///
/// Nothing in the framework legitimately ships a single value larger than
/// this; the limit keeps a corrupt or hostile length prefix from causing a
/// multi-gigabyte allocation.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Types that can be serialized into the Globe wire format.
pub trait WireEncode {
    /// Appends the encoding of `self` to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Exact number of bytes [`WireEncode::encode`] will append.
    fn encoded_len(&self) -> usize;
}

/// Types that can be deserialized from the Globe wire format.
pub trait WireDecode: Sized {
    /// Reads one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is truncated or malformed.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError>;
}

/// Encodes `value` into a freshly allocated [`Bytes`].
pub fn to_bytes<T: WireEncode + ?Sized>(value: &T) -> Bytes {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    debug_assert_eq!(buf.len(), value.encoded_len(), "encoded_len mismatch");
    Bytes::from(buf)
}

/// Decodes a complete value from `bytes`, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`WireError`] on malformed input or if bytes remain after the
/// value has been decoded.
pub fn from_bytes<T: WireDecode>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: bytes.len(),
        });
    }
    Ok(value)
}

fn need<B: Buf>(buf: &B, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated {
            needed: n,
            remaining: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Reads a length prefix and validates it against [`MAX_LEN`].
///
/// # Errors
///
/// Returns [`WireError::LengthOverflow`] if the prefix exceeds the limit.
pub fn get_len<B: Buf>(buf: &mut B) -> Result<usize, WireError> {
    let len = get_varint(buf)?;
    if len > MAX_LEN {
        return Err(WireError::LengthOverflow { len, max: MAX_LEN });
    }
    Ok(len as usize)
}

macro_rules! impl_fixed_int {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl WireEncode for $ty {
            fn encode<B: BufMut>(&self, buf: &mut B) {
                buf.$put(*self);
            }
            fn encoded_len(&self) -> usize {
                $size
            }
        }
        impl WireDecode for $ty {
            fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
                need(buf, $size)?;
                Ok(buf.$get())
            }
        }
    };
}

impl_fixed_int!(u8, put_u8, get_u8, 1);
impl_fixed_int!(u16, put_u16, get_u16, 2);
impl_fixed_int!(u32, put_u32, get_u32, 4);

impl WireEncode for u64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, *self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl WireDecode for u64 {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        get_varint(buf)
    }
}

impl WireEncode for i64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, zigzag_encode(*self));
    }
    fn encoded_len(&self) -> usize {
        varint_len(zigzag_encode(*self))
    }
}

impl WireDecode for i64 {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(zigzag_decode(get_varint(buf)?))
    }
}

impl WireEncode for usize {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl WireDecode for usize {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let v = get_varint(buf)?;
        usize::try_from(v).map_err(|_| WireError::LengthOverflow {
            len: v,
            max: usize::MAX as u64,
        })
    }
}

impl WireEncode for bool {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl WireDecode for bool {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag {
                type_name: "bool",
                tag,
            }),
        }
    }
}

impl WireEncode for f64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_f64(*self);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl WireDecode for f64 {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        need(buf, 8)?;
        Ok(buf.get_f64())
    }
}

impl WireEncode for std::time::Duration {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        // Nanoseconds as a varint: identical on the wire to the
        // hand-rolled `as_nanos() as u64` encodings that predate this
        // impl, so adopting it is not a format change. Durations beyond
        // ~584 years saturate.
        put_varint(buf, u64::try_from(self.as_nanos()).unwrap_or(u64::MAX));
    }
    fn encoded_len(&self) -> usize {
        varint_len(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl WireDecode for std::time::Duration {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok(std::time::Duration::from_nanos(get_varint(buf)?))
    }
}

impl WireEncode for str {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl WireEncode for String {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.as_str().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl WireDecode for String {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        need(buf, len)?;
        let mut raw = vec![0u8; len];
        buf.copy_to_slice(&mut raw);
        String::from_utf8(raw).map_err(|_| WireError::InvalidUtf8)
    }
}

impl WireEncode for Bytes {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl WireDecode for Bytes {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        need(buf, len)?;
        Ok(buf.copy_to_bytes(len))
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(WireEncode::encoded_len).sum::<usize>()
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        // Avoid pre-allocating attacker-controlled capacity: cap the initial
        // reservation, grow organically beyond it.
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, WireEncode::encoded_len)
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Option",
                tag,
            }),
        }
    }
}

impl<K: WireEncode, V: WireEncode> WireEncode for BTreeMap<K, V> {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, self.len() as u64);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64)
            + self
                .iter()
                .map(|(k, v)| k.encoded_len() + v.encoded_len())
                .sum::<usize>()
    }
}

impl<K: WireDecode + Ord, V: WireDecode> WireDecode for BTreeMap<K, V> {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let len = get_len(buf)?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(buf)?;
            let v = V::decode(buf)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: WireEncode, B2: WireEncode> WireEncode for (A, B2) {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: WireDecode, B2: WireDecode> WireDecode for (A, B2) {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B2::decode(buf)?))
    }
}

impl<A: WireEncode, B2: WireEncode, C: WireEncode> WireEncode for (A, B2, C) {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<A: WireDecode, B2: WireDecode, C: WireDecode> WireDecode for (A, B2, C) {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B2::decode(buf)?, C::decode(buf)?))
    }
}

/// Implements [`WireEncode`]/[`WireDecode`] for a fieldless enum with a
/// one-byte discriminant.
///
/// ```
/// globe_wire::wire_enum! {
///     /// Example direction.
///     pub enum Direction {
///         North = 0,
///         South = 1,
///     }
/// }
/// let b = globe_wire::to_bytes(&Direction::South);
/// let d: Direction = globe_wire::from_bytes(&b).unwrap();
/// assert_eq!(d, Direction::South);
/// ```
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:expr
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// All variants, in declaration order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )+ ];
        }

        impl $crate::WireEncode for $name {
            fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
                let tag: u8 = match self {
                    $( $name::$variant => $tag, )+
                };
                buf.put_u8(tag);
            }
            fn encoded_len(&self) -> usize {
                1
            }
        }

        impl $crate::WireDecode for $name {
            fn decode<B: bytes::Buf>(buf: &mut B) -> Result<Self, $crate::WireError> {
                if !buf.has_remaining() {
                    return Err($crate::WireError::Truncated { needed: 1, remaining: 0 });
                }
                match buf.get_u8() {
                    $( $tag => Ok($name::$variant), )+
                    tag => Err($crate::WireError::InvalidTag {
                        type_name: stringify!($name),
                        tag,
                    }),
                }
            }
        }
    };
}

/// Implements [`WireEncode`]/[`WireDecode`] for a struct as the plain
/// sequence of the listed fields, in list order. The struct is declared
/// as ordinary Rust; decode infers each field's type from it, and a
/// field missing from the list is a compile error.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// pub struct Stamp { pub counter: u64, pub node: u32 }
/// globe_wire::wire_record!(Stamp { counter, node });
///
/// let b = globe_wire::to_bytes(&Stamp { counter: 5, node: 7 });
/// assert_eq!(&b[..], [5, 0, 0, 0, 7]);
/// assert_eq!(globe_wire::from_bytes::<Stamp>(&b), Ok(Stamp { counter: 5, node: 7 }));
/// ```
#[macro_export]
macro_rules! wire_record {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::WireEncode for $name {
            fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
                let $name { $($field),+ } = self;
                $( $crate::WireEncode::encode($field, buf); )+
            }
            fn encoded_len(&self) -> usize {
                let $name { $($field),+ } = self;
                0 $( + $crate::WireEncode::encoded_len($field) )+
            }
        }

        impl $crate::WireDecode for $name {
            fn decode<B: bytes::Buf>(buf: &mut B) -> Result<Self, $crate::WireError> {
                Ok($name { $( $field: $crate::WireDecode::decode(buf)?, )+ })
            }
        }
    };
}

/// Implements the codec of an enum of struct-like variants from one
/// `tag => Variant { fields }` table: a one-byte tag, then the listed
/// fields in list order. Also generates `KINDS`, `tag()` and
/// `kind_name()`. The enum is declared as ordinary Rust; a variant
/// missing from the table, a field missing from its row, or a tag used
/// twice is a compile error.
///
/// ```
/// #[derive(Debug, PartialEq)]
/// pub enum Probe { Ping { seq: u64 }, Pong { seq: u64, load: u8 } }
/// globe_wire::wire_tagged!(Probe { 0 => Ping { seq }, 1 => Pong { seq, load } });
///
/// let pong = Probe::Pong { seq: 9, load: 3 };
/// assert_eq!((pong.tag(), pong.kind_name()), (1, "Pong"));
/// assert_eq!(Probe::KINDS, [(0, "Ping"), (1, "Pong")]);
/// let b = globe_wire::to_bytes(&pong);
/// assert_eq!(&b[..], [1, 9, 3]);
/// assert_eq!(globe_wire::from_bytes::<Probe>(&b), Ok(pong));
/// assert!(globe_wire::from_bytes::<Probe>(&[2, 0]).is_err());
/// ```
#[macro_export]
macro_rules! wire_tagged {
    ($name:ident { $( $tag:literal => $variant:ident { $($field:ident),+ $(,)? } ),+ $(,)? }) => {
        impl $name {
            /// `(tag byte, variant name)` of every variant, in table order.
            pub const KINDS: &'static [(u8, &'static str)] =
                &[ $( ($tag, stringify!($variant)), )+ ];

            /// The byte that announces this variant on the wire.
            pub fn tag(&self) -> u8 {
                match self { $( $name::$variant { .. } => $tag, )+ }
            }

            /// Short name of the variant, for traffic accounting.
            pub fn kind_name(&self) -> &'static str {
                match self { $( $name::$variant { .. } => stringify!($variant), )+ }
            }
        }

        impl $crate::WireEncode for $name {
            fn encode<B: bytes::BufMut>(&self, buf: &mut B) {
                match self {
                    $( $name::$variant { $($field),+ } => {
                        buf.put_u8($tag);
                        $( $crate::WireEncode::encode($field, buf); )+
                    } )+
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $( $name::$variant { $($field),+ } => {
                        1 $( + $crate::WireEncode::encoded_len($field) )+
                    } )+
                }
            }
        }

        impl $crate::WireDecode for $name {
            #[deny(unreachable_patterns)] // a tag used twice
            fn decode<B: bytes::Buf>(buf: &mut B) -> Result<Self, $crate::WireError> {
                if !buf.has_remaining() {
                    return Err($crate::WireError::Truncated { needed: 1, remaining: 0 });
                }
                match buf.get_u8() {
                    $( $tag => Ok($name::$variant {
                        $( $field: $crate::WireDecode::decode(buf)?, )+
                    }), )+
                    tag => Err($crate::WireError::InvalidTag {
                        type_name: stringify!($name),
                        tag,
                    }),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(value: T)
    where
        T: WireEncode + WireDecode + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(&value);
        assert_eq!(bytes.len(), value.encoded_len());
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(513u16);
        roundtrip(70_000u32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f64);
        roundtrip(usize::MAX);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("hello κόσμε"));
        roundtrip(String::new());
        roundtrip(Bytes::from_static(b"\x00\x01\xff"));
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((String::from("a"), 9u64));
        let mut map = BTreeMap::new();
        map.insert(String::from("x"), 1u64);
        map.insert(String::from("y"), 2u64);
        roundtrip(map);
    }

    #[test]
    fn nested_container_roundtrip() {
        roundtrip(vec![
            Some(vec![String::from("p"), String::from("q")]),
            None,
            Some(Vec::new()),
        ]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&5u64).to_vec();
        bytes.push(0);
        let err = from_bytes::<u64>(&bytes).unwrap_err();
        assert_eq!(err, WireError::TrailingBytes { remaining: 1 });
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let value = (String::from("page"), vec![1u64, 2, 3]);
        let bytes = to_bytes(&value);
        for cut in 0..bytes.len() {
            let res = from_bytes::<(String, Vec<u64>)>(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bogus_bool_and_option_tags() {
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidTag { .. })
        ));
        assert!(matches!(
            from_bytes::<Option<u64>>(&[7]),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        // length 2, bytes [0xff, 0xff]
        let bytes = [2u8, 0xff, 0xff];
        assert_eq!(from_bytes::<String>(&bytes), Err(WireError::InvalidUtf8));
    }

    #[test]
    fn length_limit_enforced() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, MAX_LEN + 1);
        assert!(matches!(
            from_bytes::<Bytes>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    wire_enum! {
        /// Test enum.
        pub enum Tri {
            A = 0,
            B = 1,
            C = 7,
        }
    }

    #[test]
    fn wire_enum_roundtrip_and_errors() {
        for v in Tri::ALL {
            roundtrip(*v);
        }
        assert!(matches!(
            from_bytes::<Tri>(&[2]),
            Err(WireError::InvalidTag {
                type_name: "Tri",
                tag: 2
            })
        ));
        assert!(from_bytes::<Tri>(&[]).is_err());
    }
}
