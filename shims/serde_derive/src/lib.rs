//! Offline stand-in for `serde_derive`.
//!
//! Derives `serde::Serialize`/`serde::Deserialize` impls against the
//! concrete `serde::Value` data model of the sibling `serde` shim. Because
//! the environment has no crates.io access there is no `syn`/`quote` here:
//! the item is parsed directly from the `proc_macro::TokenStream` and the
//! impl is generated as a string.
//!
//! Supported shapes — exactly what this workspace uses:
//! - structs with named fields (no generics),
//! - enums whose variants are units or have named fields (externally tagged,
//!   like upstream serde's default representation).
//!
//! Anything else (tuple structs, tuple variants, generics) produces a clear
//! compile error rather than silently wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed shape of the deriving item.
enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        /// `(variant_name, None)` for unit variants, `Some(fields)` for
        /// struct variants.
        variants: Vec<(String, Option<Vec<String>>)>,
    },
}

/// Derive `serde::Serialize` (shim data-model flavour).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => serialize_struct(name, fields),
        Item::Enum { name, variants } => serialize_enum(name, variants),
    };
    code.parse().expect("generated Serialize impl parses")
}

/// Derive `serde::Deserialize` (shim data-model flavour).
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => deserialize_struct(name, fields),
        Item::Enum { name, variants } => deserialize_enum(name, variants),
    };
    code.parse().expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility to reach `struct`/`enum`.
    let kind = loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 2; // `#` + `[...]` group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                // `pub(crate)` etc: skip the parenthesized restriction.
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    i += 1;
                    break s;
                }
                panic!("serde shim derive: unexpected token `{s}` before struct/enum");
            }
            other => panic!("serde shim derive: unexpected token {other:?}"),
        }
    };

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected item name, found {other:?}"),
    };
    i += 1;

    let body = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde shim derive: generic types are not supported (type `{name}`)")
        }
        other => panic!(
            "serde shim derive: expected braced body for `{name}` \
             (tuple/unit items unsupported), found {other:?}"
        ),
    };

    if kind == "struct" {
        Item::Struct {
            fields: parse_named_fields(body, &name),
            name,
        }
    } else {
        Item::Enum {
            variants: parse_variants(body, &name),
            name,
        }
    }
}

/// Split a brace-group stream into top-level comma-separated segments.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut segments = vec![Vec::new()];
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == ',' => segments.push(Vec::new()),
            _ => segments.last_mut().expect("non-empty").push(tt),
        }
    }
    segments.retain(|seg| !seg.is_empty());
    segments
}

/// Extract field names from `name1: Ty1, name2: Ty2, ...` (attrs/vis allowed).
fn parse_named_fields(stream: TokenStream, ty: &str) -> Vec<String> {
    split_commas(stream)
        .into_iter()
        .map(|seg| {
            let mut j = 0;
            loop {
                match seg.get(j) {
                    Some(TokenTree::Punct(p)) if p.as_char() == '#' => j += 2,
                    Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                        j += 1;
                        if let Some(TokenTree::Group(g)) = seg.get(j) {
                            if g.delimiter() == Delimiter::Parenthesis {
                                j += 1;
                            }
                        }
                    }
                    Some(TokenTree::Ident(id)) => {
                        // Must be followed by `:` — otherwise this is not a
                        // named field.
                        match seg.get(j + 1) {
                            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {
                                break id.to_string()
                            }
                            _ => panic!("serde shim derive: `{ty}` must use named fields"),
                        }
                    }
                    other => {
                        panic!("serde shim derive: unexpected token {other:?} in fields of `{ty}`")
                    }
                }
            }
        })
        .collect()
}

/// Extract `(variant, fields?)` pairs from an enum body.
fn parse_variants(stream: TokenStream, ty: &str) -> Vec<(String, Option<Vec<String>>)> {
    split_commas(stream)
        .into_iter()
        .map(|seg| {
            let mut j = 0;
            while let Some(TokenTree::Punct(p)) = seg.get(j) {
                if p.as_char() == '#' {
                    j += 2;
                } else {
                    break;
                }
            }
            let vname = match seg.get(j) {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => {
                    panic!("serde shim derive: expected variant name in `{ty}`, found {other:?}")
                }
            };
            let fields = match seg.get(j + 1) {
                None => None,
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Some(parse_named_fields(g.stream(), ty))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    panic!("serde shim derive: tuple variant `{ty}::{vname}` is unsupported")
                }
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => panic!(
                    "serde shim derive: explicit discriminant on `{ty}::{vname}` is unsupported"
                ),
                other => {
                    panic!("serde shim derive: unexpected token {other:?} after `{ty}::{vname}`")
                }
            };
            (vname, fields)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn object_literal(entries: &[(String, String)]) -> String {
    // entries: (key, expr producing a ::serde::Value)
    let mut code = String::from("{ let mut __o: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = ::std::vec::Vec::new(); ");
    for (key, expr) in entries {
        code.push_str(&format!(
            "__o.push((::std::string::String::from(\"{key}\"), {expr})); "
        ));
    }
    code.push_str("::serde::Value::Object(__o) }");
    code
}

fn serialize_struct(name: &str, fields: &[String]) -> String {
    let entries: Vec<(String, String)> = fields
        .iter()
        .map(|f| {
            (
                f.clone(),
                format!("::serde::Serialize::to_value(&self.{f})"),
            )
        })
        .collect();
    format!(
        "impl ::serde::Serialize for {name} {{ \
           fn to_value(&self) -> ::serde::Value {{ {} }} \
         }}",
        object_literal(&entries)
    )
}

fn deserialize_struct(name: &str, fields: &[String]) -> String {
    let mut build = format!("::std::result::Result::Ok({name} {{ ");
    for f in fields {
        build.push_str(&format!(
            "{f}: ::serde::__get_field(__obj, \"{f}\", \"{name}\")?, "
        ));
    }
    build.push_str("})");
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ \
             let __obj = match __v {{ \
               ::serde::Value::Object(m) => m, \
               other => return ::std::result::Result::Err(::serde::DeError::expected(\"object\", \"{name}\", other)), \
             }}; \
             {build} \
           }} \
         }}"
    )
}

fn serialize_enum(name: &str, variants: &[(String, Option<Vec<String>>)]) -> String {
    // Externally tagged, matching upstream serde's default:
    //   unit variant    -> "Variant"
    //   struct variant  -> {"Variant": {fields...}}
    let mut arms = String::new();
    for (vname, fields) in variants {
        match fields {
            None => arms.push_str(&format!(
                "{name}::{vname} => ::serde::Value::Str(::std::string::String::from(\"{vname}\")), "
            )),
            Some(fields) => {
                let bindings = fields.join(", ");
                let inner: Vec<(String, String)> = fields
                    .iter()
                    .map(|f| (f.clone(), format!("::serde::Serialize::to_value({f})")))
                    .collect();
                let tagged = object_literal(&[(vname.clone(), object_literal(&inner))]);
                arms.push_str(&format!("{name}::{vname} {{ {bindings} }} => {tagged}, "));
            }
        }
    }
    format!(
        "impl ::serde::Serialize for {name} {{ \
           fn to_value(&self) -> ::serde::Value {{ match self {{ {arms} }} }} \
         }}"
    )
}

fn deserialize_enum(name: &str, variants: &[(String, Option<Vec<String>>)]) -> String {
    let mut unit_arms = String::new();
    let mut tagged_arms = String::new();
    for (vname, fields) in variants {
        match fields {
            None => unit_arms.push_str(&format!(
                "\"{vname}\" => return ::std::result::Result::Ok({name}::{vname}), "
            )),
            Some(fields) => {
                let mut build = format!("::std::result::Result::Ok({name}::{vname} {{ ");
                for f in fields {
                    build.push_str(&format!(
                        "{f}: ::serde::__get_field(__fields, \"{f}\", \"{name}::{vname}\")?, "
                    ));
                }
                build.push_str("})");
                tagged_arms.push_str(&format!(
                    "\"{vname}\" => {{ \
                       let __fields = match __payload {{ \
                         ::serde::Value::Object(m) => m.as_slice(), \
                         other => return ::std::result::Result::Err(::serde::DeError::expected(\"object\", \"{name}::{vname}\", other)), \
                       }}; \
                       return {build}; \
                     }} "
                ));
            }
        }
    }
    format!(
        "impl ::serde::Deserialize for {name} {{ \
           fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ \
             match __v {{ \
               ::serde::Value::Str(__s) => match __s.as_str() {{ \
                 {unit_arms} \
                 _ => {{}} \
               }}, \
               ::serde::Value::Object(__m) if __m.len() == 1 => {{ \
                 let (__tag, __payload) = (&__m[0].0, &__m[0].1); \
                 match __tag.as_str() {{ \
                   {tagged_arms} \
                   _ => {{}} \
                 }} \
               }} \
               _ => {{}} \
             }} \
             ::std::result::Result::Err(::serde::DeError::expected(\"a known variant\", \"{name}\", __v)) \
           }} \
         }}"
    )
}
