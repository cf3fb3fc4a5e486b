include!("../modlist.rs");

fn main() {
    derive_modules("../../../crates/wire/src");
}
