//! Marker-trait shim for `serde`. The workspace derives `Serialize` and
//! `Deserialize` on its data types to keep them wire-ready, but never invokes
//! an actual serializer, so blanket marker impls are sufficient.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
