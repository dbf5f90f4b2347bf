//! Offline compatibility shim for the subset of `serde` this workspace uses.
//!
//! The build environment cannot fetch crates.io, so this crate provides a
//! self-describing data model ([`Content`]) plus [`Serialize`] /
//! [`Deserialize`] traits and derive macros over it. The trait *names* and
//! derive ergonomics match upstream serde (`#[derive(Serialize,
//! Deserialize)]`, `use serde::{Serialize, Deserialize}`), but the trait
//! *signatures* are simpler: serialization goes through the owned
//! [`Content`] tree rather than upstream's visitor architecture.
//!
//! `serde_json` (the sibling shim) prints and parses [`Content`] as JSON
//! with upstream-compatible struct/enum representations (externally-tagged
//! enums, structs as objects). Maps serialize as sequences of `[key,
//! value]` pairs so non-string keys roundtrip.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing serialized value: the data model both derive macros and
/// `serde_json` speak.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(String, Content)>),
}

/// Deserialization error with a human-readable path-free message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl Content {
    /// The map entries, or an error naming `what` was expected.
    pub fn expect_map(&self, what: &str) -> Result<&[(String, Content)], Error> {
        match self {
            Content::Map(m) => Ok(m),
            other => Err(Error(format!(
                "expected map for {what}, found {}",
                other.kind()
            ))),
        }
    }

    /// The sequence elements, or an error naming `what` was expected.
    pub fn expect_seq(&self, what: &str) -> Result<&[Content], Error> {
        match self {
            Content::Seq(s) => Ok(s),
            other => Err(Error(format!(
                "expected sequence for {what}, found {}",
                other.kind()
            ))),
        }
    }

    /// Short tag for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Content::Null => "null",
            Content::Bool(_) => "bool",
            Content::U64(_) => "unsigned integer",
            Content::I64(_) => "signed integer",
            Content::F64(_) => "float",
            Content::Str(_) => "string",
            Content::Seq(_) => "sequence",
            Content::Map(_) => "map",
        }
    }
}

/// Looks up a struct field in serialized map entries; missing fields read as
/// [`Content::Null`] so `Option` fields tolerate absence.
pub fn map_field<'a>(entries: &'a [(String, Content)], key: &str) -> &'a Content {
    const NULL: Content = Content::Null;
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or(&NULL)
}

/// A value serializable into [`Content`].
pub trait Serialize {
    fn serialize(&self) -> Content;
}

/// A value reconstructible from [`Content`].
pub trait Deserialize: Sized {
    fn deserialize(content: &Content) -> Result<Self, Error>;
}

impl Serialize for Content {
    fn serialize(&self) -> Content {
        self.clone()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Content {
        (**self).serialize()
    }
}

// ---------------------------------------------------------------- primitives

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Content {
                Content::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                let v = match *c {
                    Content::U64(v) => v,
                    Content::I64(v) if v >= 0 => v as u64,
                    Content::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                        v as u64
                    }
                    ref other => {
                        return Err(Error(format!(
                            concat!("expected ", stringify!($t), ", found {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(v).map_err(|_| {
                    Error(format!(concat!("value {} overflows ", stringify!($t)), v))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Content {
                Content::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                let v = match *c {
                    Content::I64(v) => v,
                    Content::U64(v) if v <= i64::MAX as u64 => v as i64,
                    Content::F64(v) if v.fract() == 0.0
                        && v >= i64::MIN as f64 && v <= i64::MAX as f64 => v as i64,
                    ref other => {
                        return Err(Error(format!(
                            concat!("expected ", stringify!($t), ", found {}"),
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(v).map_err(|_| {
                    Error(format!(concat!("value {} overflows ", stringify!($t)), v))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Content {
                Content::F64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                match *c {
                    Content::F64(v) => Ok(v as $t),
                    Content::U64(v) => Ok(v as $t),
                    Content::I64(v) => Ok(v as $t),
                    // Non-finite floats serialize as null (JSON has no NaN).
                    Content::Null => Ok(<$t>::NAN),
                    ref other => Err(Error(format!(
                        concat!("expected ", stringify!($t), ", found {}"),
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Bool(b) => Ok(*b),
            other => Err(Error(format!("expected bool, found {}", other.kind()))),
        }
    }
}

impl Serialize for char {
    fn serialize(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error(format!("expected char, found {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Str(s) => Ok(s.clone()),
            other => Err(Error(format!("expected string, found {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl Serialize for () {
    fn serialize(&self) -> Content {
        Content::Null
    }
}

impl Deserialize for () {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(()),
            other => Err(Error(format!("expected null, found {}", other.kind()))),
        }
    }
}

// ---------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Content {
        match self {
            None => Content::Null,
            Some(v) => v.serialize(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        match c {
            Content::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self) -> Content {
        (**self).serialize()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        T::deserialize(c).map(Box::new)
    }
}

fn seq_of<'a, T: Serialize + 'a>(items: impl Iterator<Item = &'a T>) -> Content {
    Content::Seq(items.map(Serialize::serialize).collect())
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Content {
        seq_of(self.iter())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        c.expect_seq("Vec")?.iter().map(T::deserialize).collect()
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize(&self) -> Content {
        seq_of(self.iter())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        c.expect_seq("VecDeque")?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Content {
        seq_of(self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Content {
        seq_of(self.iter())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(c: &Content) -> Result<Self, Error> {
        let seq = c.expect_seq("array")?;
        if seq.len() != N {
            return Err(Error(format!(
                "expected array of length {N}, found {}",
                seq.len()
            )));
        }
        let items: Vec<T> = seq.iter().map(T::deserialize).collect::<Result<_, _>>()?;
        items
            .try_into()
            .map_err(|_| Error("array length mismatch".into()))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self) -> Content {
                Content::Seq(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                let seq = c.expect_seq("tuple")?;
                let expected = [$($idx),+].len();
                if seq.len() != expected {
                    return Err(Error(format!(
                        "expected tuple of length {expected}, found {}", seq.len()
                    )));
                }
                Ok(($($name::deserialize(&seq[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// Maps serialize as sequences of [key, value] pairs so non-string keys
// (FileId, StorageTier, ...) roundtrip without a string conversion.
macro_rules! impl_map {
    ($($map:ident, $($bound:ident)+;)*) => {$(
        impl<K: Serialize $(+ $bound)+, V: Serialize> Serialize for $map<K, V> {
            fn serialize(&self) -> Content {
                Content::Seq(
                    self.iter()
                        .map(|(k, v)| Content::Seq(vec![k.serialize(), v.serialize()]))
                        .collect(),
                )
            }
        }
        impl<K: Deserialize $(+ $bound)+, V: Deserialize> Deserialize for $map<K, V> {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                c.expect_seq("map")?
                    .iter()
                    .map(|pair| {
                        let kv = pair.expect_seq("map entry")?;
                        if kv.len() != 2 {
                            return Err(Error("map entry is not a [key, value] pair".into()));
                        }
                        Ok((K::deserialize(&kv[0])?, V::deserialize(&kv[1])?))
                    })
                    .collect()
            }
        }
    )*};
}

impl_map! {
    HashMap, Eq Hash;
    BTreeMap, Ord;
}

macro_rules! impl_set {
    ($($set:ident, $($bound:ident)+;)*) => {$(
        impl<T: Serialize $(+ $bound)+> Serialize for $set<T> {
            fn serialize(&self) -> Content {
                seq_of(self.iter())
            }
        }
        impl<T: Deserialize $(+ $bound)+> Deserialize for $set<T> {
            fn deserialize(c: &Content) -> Result<Self, Error> {
                c.expect_seq("set")?.iter().map(T::deserialize).collect()
            }
        }
    )*};
}

impl_set! {
    HashSet, Eq Hash;
    BTreeSet, Ord;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::deserialize(&7u32.serialize()), Ok(7));
        assert_eq!(i64::deserialize(&(-3i64).serialize()), Ok(-3));
        assert_eq!(f64::deserialize(&1.5f64.serialize()), Ok(1.5));
        assert_eq!(bool::deserialize(&true.serialize()), Ok(true));
        assert_eq!(
            String::deserialize(&"hi".to_string().serialize()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn float_bits_roundtrip_through_f64() {
        for bits in [0x3f80_0001u32, 0x7f7f_ffff, 0x0000_0001, 0x8000_0000] {
            let x = f32::from_bits(bits);
            let back = f32::deserialize(&x.serialize()).unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn nan_serializes_to_null_and_back() {
        let c = f32::NAN.serialize();
        // NaN survives as Content::F64(NaN) in-memory; serde_json maps it to
        // null at the text layer. Null also deserializes to NaN.
        assert!(f32::deserialize(&Content::Null).unwrap().is_nan());
        assert!(f32::deserialize(&c).unwrap().is_nan());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::deserialize(&v.serialize()), Ok(v));

        let arr = [1.0f32, 2.0, 3.0];
        assert_eq!(<[f32; 3]>::deserialize(&arr.serialize()), Ok(arr));

        let opt: Option<u8> = None;
        assert_eq!(Option::<u8>::deserialize(&opt.serialize()), Ok(None));

        let mut m = HashMap::new();
        m.insert(3u64, "x".to_string());
        assert_eq!(HashMap::<u64, String>::deserialize(&m.serialize()), Ok(m));

        let t = (1u32, 2.5f64);
        assert_eq!(<(u32, f64)>::deserialize(&t.serialize()), Ok(t));
    }

    #[test]
    fn missing_struct_field_reads_as_null() {
        let entries = vec![("a".to_string(), Content::U64(1))];
        assert_eq!(map_field(&entries, "a"), &Content::U64(1));
        assert_eq!(map_field(&entries, "b"), &Content::Null);
    }
}
