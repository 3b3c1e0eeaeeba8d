//! No-op shim for `serde_derive`: the workspace only uses the derives as
//! markers (no serialization format is ever produced), and the `serde` shim's
//! traits are blanket-implemented, so the derives expand to nothing.

#![forbid(unsafe_code)]

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
