//! Offline stand-in for `serde_derive`. The repository derives
//! `Serialize`/`Deserialize` on a handful of types but links no format
//! crate, so nothing ever calls the generated impls: the derives expand
//! to nothing here.

use proc_macro::TokenStream;

/// No-op `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// No-op `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
