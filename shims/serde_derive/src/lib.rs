// Vendored offline shim (see shims/README.md): not held to workspace lint
// standards so the call-site-compatible surface can stay close to upstream.
#![allow(clippy::all)]

//! Workspace-local stand-in for `serde_derive`.
//!
//! Generates `Serialize`/`Deserialize` impls against the shim `serde`
//! crate's content-tree model (`to_content`/`from_content`), and, for
//! named-field structs, unit-only enums and newtypes, the direct text path
//! too (`write_json`/`from_json`); other enums keep the trait's default,
//! which goes through the tree. Parsing is
//! done directly on the `proc_macro` token stream — no `syn`/`quote`,
//! since the build environment cannot fetch crates — which works because
//! codegen never needs field *types*: struct-literal type inference picks
//! the right `Deserialize` impl for every field.
//!
//! Supported shapes (the full set this workspace uses):
//! - named-field structs
//! - transparent newtype structs (`struct Uid(String);`)
//! - externally tagged enums (unit / newtype / tuple / struct variants)
//! - adjacently tagged enums (`#[serde(tag = "t", content = "v")]`)
//! - internally tagged enums (`#[serde(tag = "...")]`), with
//!   `rename_all = "camelCase"` and field-level `rename`

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::fmt::Write as _;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, Mode::Deserialize)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serialize,
    Deserialize,
}

fn expand(input: TokenStream, mode: Mode) -> TokenStream {
    let model = match parse_model(input) {
        Ok(m) => m,
        Err(e) => {
            let msg = e.replace('"', "\\\"");
            return format!("compile_error!(\"serde shim derive: {msg}\");")
                .parse()
                .unwrap();
        }
    };
    let code = match mode {
        Mode::Serialize => gen_serialize(&model),
        Mode::Deserialize => gen_deserialize(&model),
    };
    code.parse().unwrap_or_else(|e| {
        panic!("serde shim derive produced unparsable code for {}: {e}\n{code}", model.name)
    })
}

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

struct FieldDef {
    /// Rust field name.
    name: String,
    /// Wire key (after `#[serde(rename = "...")]`).
    key: String,
}

enum VariantShape {
    Unit,
    Newtype,
    Tuple(usize),
    Struct(Vec<FieldDef>),
}

struct VariantDef {
    name: String,
    shape: VariantShape,
}

enum Shape {
    Struct(Vec<FieldDef>),
    Newtype,
    Enum(Vec<VariantDef>),
}

struct Model {
    name: String,
    shape: Shape,
    tag: Option<String>,
    content: Option<String>,
    camel: bool,
}

impl Model {
    fn wire_variant(&self, variant: &str) -> String {
        if self.camel {
            let mut chars = variant.chars();
            match chars.next() {
                Some(first) => first.to_lowercase().chain(chars).collect(),
                None => String::new(),
            }
        } else {
            variant.to_string()
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SerdeAttrs {
    tag: Option<String>,
    content: Option<String>,
    rename_all: Option<String>,
    rename: Option<String>,
}

fn is_punct(tok: &TokenTree, ch: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tok: &TokenTree, name: &str) -> bool {
    matches!(tok, TokenTree::Ident(id) if id.to_string() == name)
}

fn unquote(lit: &str) -> String {
    lit.trim_matches('"').to_string()
}

/// Consume leading attributes at `*i`, folding any `#[serde(...)]`
/// key/value pairs into the returned set. Doc comments and other
/// attributes are skipped.
fn parse_attrs(toks: &[TokenTree], i: &mut usize, out: &mut SerdeAttrs) -> Result<(), String> {
    while *i < toks.len() && is_punct(&toks[*i], '#') {
        let TokenTree::Group(g) = &toks[*i + 1] else {
            return Err("malformed attribute".into());
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !inner.is_empty() && is_ident(&inner[0], "serde") {
            let TokenTree::Group(args) = &inner[1] else {
                return Err("malformed serde attribute".into());
            };
            parse_serde_args(args.stream(), out)?;
        }
        *i += 2;
    }
    Ok(())
}

fn parse_serde_args(stream: TokenStream, out: &mut SerdeAttrs) -> Result<(), String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        let TokenTree::Ident(key) = &toks[i] else {
            return Err("expected ident in serde attribute".into());
        };
        let key = key.to_string();
        i += 1;
        let mut value = None;
        if i < toks.len() && is_punct(&toks[i], '=') {
            let TokenTree::Literal(lit) = &toks[i + 1] else {
                return Err(format!("expected string value for serde `{key}`"));
            };
            value = Some(unquote(&lit.to_string()));
            i += 2;
        }
        match (key.as_str(), value) {
            ("tag", Some(v)) => out.tag = Some(v),
            ("content", Some(v)) => out.content = Some(v),
            ("rename_all", Some(v)) => out.rename_all = Some(v),
            ("rename", Some(v)) => out.rename = Some(v),
            (other, _) => return Err(format!("unsupported serde attribute `{other}`")),
        }
        if i < toks.len() && is_punct(&toks[i], ',') {
            i += 1;
        }
    }
    Ok(())
}

/// Skip `pub` / `pub(...)` at `*i`.
fn skip_visibility(toks: &[TokenTree], i: &mut usize) {
    if *i < toks.len() && is_ident(&toks[*i], "pub") {
        *i += 1;
        if *i < toks.len() {
            if let TokenTree::Group(g) = &toks[*i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advance past one type, stopping after the top-level `,` (consumed) or
/// at end of tokens. Tracks `<`/`>` depth so commas inside generics don't
/// split the field; parenthesized types arrive as single groups.
fn skip_type(toks: &[TokenTree], i: &mut usize) {
    let mut angle_depth: i32 = 0;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<FieldDef>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let mut attrs = SerdeAttrs::default();
        parse_attrs(&toks, &mut i, &mut attrs)?;
        skip_visibility(&toks, &mut i);
        let TokenTree::Ident(name) = &toks[i] else {
            return Err(format!("expected field name, got `{}`", toks[i]));
        };
        let name = name.to_string();
        i += 1;
        if !is_punct(&toks[i], ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        i += 1;
        skip_type(&toks, &mut i);
        let key = attrs.rename.unwrap_or_else(|| name.clone());
        fields.push(FieldDef { name, key });
    }
    Ok(fields)
}

/// Arity of a tuple variant / tuple struct body.
fn tuple_arity(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle_depth: i32 = 0;
    for (idx, tok) in toks.iter().enumerate() {
        match tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                // A trailing comma doesn't open a new slot.
                if idx + 1 < toks.len() {
                    arity += 1;
                }
            }
            _ => {}
        }
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Result<Vec<VariantDef>, String> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        let mut attrs = SerdeAttrs::default();
        parse_attrs(&toks, &mut i, &mut attrs)?;
        let TokenTree::Ident(name) = &toks[i] else {
            return Err(format!("expected variant name, got `{}`", toks[i]));
        };
        let name = name.to_string();
        i += 1;
        let shape = if i < toks.len() {
            match &toks[i] {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                    i += 1;
                    VariantShape::Struct(parse_named_fields(g.stream())?)
                }
                TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                    i += 1;
                    match tuple_arity(g.stream()) {
                        1 => VariantShape::Newtype,
                        n => VariantShape::Tuple(n),
                    }
                }
                _ => VariantShape::Unit,
            }
        } else {
            VariantShape::Unit
        };
        if i < toks.len() && is_punct(&toks[i], '=') {
            return Err(format!("discriminants unsupported (variant `{name}`)"));
        }
        if i < toks.len() && is_punct(&toks[i], ',') {
            i += 1;
        }
        variants.push(VariantDef { name, shape });
    }
    Ok(variants)
}

fn parse_model(input: TokenStream) -> Result<Model, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut attrs = SerdeAttrs::default();
    parse_attrs(&toks, &mut i, &mut attrs)?;
    skip_visibility(&toks, &mut i);

    let is_enum = if is_ident(&toks[i], "struct") {
        false
    } else if is_ident(&toks[i], "enum") {
        true
    } else {
        return Err(format!("expected struct or enum, got `{}`", toks[i]));
    };
    i += 1;

    let TokenTree::Ident(name) = &toks[i] else {
        return Err("expected type name".into());
    };
    let name = name.to_string();
    i += 1;

    if i < toks.len() && is_punct(&toks[i], '<') {
        return Err(format!("generic type `{name}` unsupported by the serde shim"));
    }

    let shape = if is_enum {
        let TokenTree::Group(g) = &toks[i] else {
            return Err("expected enum body".into());
        };
        Shape::Enum(parse_variants(g.stream())?)
    } else {
        match &toks[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                Shape::Struct(parse_named_fields(g.stream())?)
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                if tuple_arity(g.stream()) != 1 {
                    return Err(format!(
                        "tuple struct `{name}` unsupported (only newtype structs)"
                    ));
                }
                Shape::Newtype
            }
            other => return Err(format!("unexpected struct body `{other}`")),
        }
    };

    if let Some(ra) = &attrs.rename_all {
        if ra != "camelCase" {
            return Err(format!("rename_all = \"{ra}\" unsupported (only camelCase)"));
        }
    }

    Ok(Model {
        name,
        shape,
        tag: attrs.tag,
        content: attrs.content,
        camel: attrs.rename_all.is_some(),
    })
}

// ---------------------------------------------------------------------------
// Codegen: shared fragments
// ---------------------------------------------------------------------------

fn ser_fields_to_obj(out: &mut String, fields: &[FieldDef], accessor: &str) {
    let _ = write!(
        out,
        "let mut __m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
         ::std::vec::Vec::with_capacity({});",
        fields.len()
    );
    for f in fields {
        let _ = write!(
            out,
            "__m.push((::std::string::String::from(\"{key}\"), \
             ::serde::Serialize::to_content(&{accessor}{name})));",
            key = f.key,
            name = f.name,
        );
    }
}

fn de_struct_literal(out: &mut String, ty_path: &str, ctx: &str, fields: &[FieldDef], obj: &str) {
    let _ = write!(out, "{ty_path} {{");
    for f in fields {
        let _ = write!(
            out,
            "{name}: ::serde::__private::field({obj}, \"{key}\", \"{ctx}\")?,",
            name = f.name,
            key = f.key,
        );
    }
    out.push('}');
}

fn bind_tuple(arity: usize) -> String {
    (0..arity).map(|k| format!("__f{k}")).collect::<Vec<_>>().join(", ")
}

// ---------------------------------------------------------------------------
// Codegen: Serialize
// ---------------------------------------------------------------------------

fn gen_serialize(m: &Model) -> String {
    let name = &m.name;
    let mut body = String::new();

    match &m.shape {
        Shape::Struct(fields) => {
            ser_fields_to_obj(&mut body, fields, "self.");
            body.push_str("::serde::Value::Object(__m)");
        }
        Shape::Newtype => {
            body.push_str("::serde::Serialize::to_content(&self.0)");
        }
        Shape::Enum(variants) => {
            body.push_str("match self {");
            for v in variants {
                gen_serialize_variant(&mut body, m, v);
            }
            body.push('}');
        }
    }

    format!(
        "#[automatically_derived] impl ::serde::Serialize for {name} {{ \
         fn to_content(&self) -> ::serde::Value {{ {body} }} {direct} }}",
        direct = gen_write_json(m),
    )
}

/// A Rust string literal holding `text`.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// `key` as a JSON string (wire keys and variant names are identifiers or
/// `rename` values; only `"` and `\` need escaping).
fn json_str(key: &str) -> String {
    format!("\"{}\"", key.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Only unit variants: the enum is a bare string on the wire.
fn unit_only(variants: &[VariantDef]) -> bool {
    !variants.is_empty() && variants.iter().all(|v| matches!(v.shape, VariantShape::Unit))
}

/// `write_json` for the shapes with a direct path; empty for the rest.
fn gen_write_json(m: &Model) -> String {
    let name = &m.name;
    let mut body = String::new();
    match &m.shape {
        Shape::Struct(fields) if fields.is_empty() => body.push_str("__out.push_str(\"{}\");"),
        Shape::Struct(fields) => {
            for (i, f) in fields.iter().enumerate() {
                let open = if i == 0 { "{" } else { "," };
                let _ = write!(
                    body,
                    "__out.push_str({}); ::serde::Serialize::write_json(&self.{}, __out);",
                    lit(&format!("{open}{}:", json_str(&f.key))),
                    f.name,
                );
            }
            body.push_str("__out.push('}');");
        }
        Shape::Newtype => body.push_str("::serde::Serialize::write_json(&self.0, __out);"),
        Shape::Enum(variants) if m.tag.is_none() && unit_only(variants) => {
            body.push_str("__out.push_str(match self {");
            for v in variants {
                let _ = write!(body, "{name}::{} => {},", v.name, lit(&json_str(&m.wire_variant(&v.name))));
            }
            body.push_str("});");
        }
        Shape::Enum(_) => return String::new(),
    }
    format!("fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }}")
}

fn gen_serialize_variant(out: &mut String, m: &Model, v: &VariantDef) {
    let name = &m.name;
    let vname = &v.name;
    let wire = m.wire_variant(vname);
    let tagging = match (&m.tag, &m.content) {
        (Some(t), Some(c)) => Tagging::Adjacent(t, c),
        (Some(t), None) => Tagging::Internal(t),
        _ => Tagging::External,
    };

    match (&v.shape, tagging) {
        // Externally tagged --------------------------------------------------
        (VariantShape::Unit, Tagging::External) => {
            let _ = write!(
                out,
                "{name}::{vname} => ::serde::Value::String(::std::string::String::from(\"{wire}\")),"
            );
        }
        (VariantShape::Newtype, Tagging::External) => {
            let _ = write!(
                out,
                "{name}::{vname}(__f0) => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{wire}\"), \
                 ::serde::Serialize::to_content(__f0))]),"
            );
        }
        (VariantShape::Tuple(arity), Tagging::External) => {
            let binds = bind_tuple(*arity);
            let elems = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_content(__f{k})"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "{name}::{vname}({binds}) => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{wire}\"), \
                 ::serde::Value::Array(::std::vec![{elems}]))]),"
            );
        }
        (VariantShape::Struct(fields), Tagging::External) => {
            let binds = fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ");
            let _ = write!(out, "{name}::{vname} {{ {binds} }} => {{");
            ser_fields_to_obj(out, fields, "");
            let _ = write!(
                out,
                "::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{wire}\"), ::serde::Value::Object(__m))]) }},"
            );
        }

        // Adjacently tagged --------------------------------------------------
        (VariantShape::Unit, Tagging::Adjacent(tag, _)) => {
            let _ = write!(
                out,
                "{name}::{vname} => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{tag}\"), \
                 ::serde::Value::String(::std::string::String::from(\"{wire}\")))]),"
            );
        }
        (VariantShape::Newtype, Tagging::Adjacent(tag, content)) => {
            let _ = write!(
                out,
                "{name}::{vname}(__f0) => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{tag}\"), \
                 ::serde::Value::String(::std::string::String::from(\"{wire}\"))), (\
                 ::std::string::String::from(\"{content}\"), \
                 ::serde::Serialize::to_content(__f0))]),"
            );
        }
        (VariantShape::Tuple(arity), Tagging::Adjacent(tag, content)) => {
            let binds = bind_tuple(*arity);
            let elems = (0..*arity)
                .map(|k| format!("::serde::Serialize::to_content(__f{k})"))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                out,
                "{name}::{vname}({binds}) => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{tag}\"), \
                 ::serde::Value::String(::std::string::String::from(\"{wire}\"))), (\
                 ::std::string::String::from(\"{content}\"), \
                 ::serde::Value::Array(::std::vec![{elems}]))]),"
            );
        }
        (VariantShape::Struct(fields), Tagging::Adjacent(tag, content)) => {
            let binds = fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ");
            let _ = write!(out, "{name}::{vname} {{ {binds} }} => {{");
            ser_fields_to_obj(out, fields, "");
            let _ = write!(
                out,
                "::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{tag}\"), \
                 ::serde::Value::String(::std::string::String::from(\"{wire}\"))), (\
                 ::std::string::String::from(\"{content}\"), ::serde::Value::Object(__m))]) }},"
            );
        }

        // Internally tagged --------------------------------------------------
        (VariantShape::Unit, Tagging::Internal(tag)) => {
            let _ = write!(
                out,
                "{name}::{vname} => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{tag}\"), \
                 ::serde::Value::String(::std::string::String::from(\"{wire}\")))]),"
            );
        }
        (VariantShape::Newtype, Tagging::Internal(tag)) => {
            let _ = write!(
                out,
                "{name}::{vname}(__f0) => ::serde::__private::tag_object(\"{tag}\", \"{wire}\", \
                 ::serde::Serialize::to_content(__f0)),"
            );
        }
        (VariantShape::Struct(fields), Tagging::Internal(tag)) => {
            let binds = fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>().join(", ");
            let _ = write!(out, "{name}::{vname} {{ {binds} }} => {{");
            ser_fields_to_obj(out, fields, "");
            let _ = write!(
                out,
                "::serde::__private::tag_object(\"{tag}\", \"{wire}\", \
                 ::serde::Value::Object(__m)) }},"
            );
        }
        (VariantShape::Tuple(_), Tagging::Internal(_)) => {
            let _ = write!(
                out,
                "{name}::{vname}(..) => panic!(\
                 \"tuple variant {name}::{vname} cannot be internally tagged\"),"
            );
        }
    }
}

enum Tagging<'a> {
    External,
    Internal(&'a str),
    Adjacent(&'a str, &'a str),
}

// ---------------------------------------------------------------------------
// Codegen: Deserialize
// ---------------------------------------------------------------------------

fn gen_deserialize(m: &Model) -> String {
    let name = &m.name;
    let mut body = String::new();

    match &m.shape {
        Shape::Struct(fields) => {
            let _ = write!(
                out_ref(&mut body),
                "let __obj = ::serde::__private::expect_object(__v, \"{name}\")?; \
                 ::std::result::Result::Ok("
            );
            de_struct_literal(&mut body, name, name, fields, "__obj");
            body.push(')');
        }
        Shape::Newtype => {
            let _ = write!(
                out_ref(&mut body),
                "::std::result::Result::Ok({name}(::serde::Deserialize::from_content(__v)?))"
            );
        }
        Shape::Enum(variants) => match (&m.tag, &m.content) {
            (Some(tag), Some(content)) => gen_de_adjacent(&mut body, m, variants, tag, content),
            (Some(tag), None) => gen_de_internal(&mut body, m, variants, tag),
            _ => gen_de_external(&mut body, m, variants),
        },
    }

    format!(
        "#[automatically_derived] impl<'de> ::serde::Deserialize<'de> for {name} {{ \
         fn from_content(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> \
         {{ {body} }} {direct} }}",
        direct = gen_from_json(m),
    )
}

/// `from_json` for the shapes with a direct path; empty for the rest. A
/// token the shape does not start with goes through the tree, which makes
/// the same error of it.
fn gen_from_json(m: &Model) -> String {
    let name = &m.name;
    let mut body = String::new();
    match &m.shape {
        Shape::Struct(fields) => {
            // One slot per field; a key seen again keeps its first value,
            // as the tree's first-match lookup does.
            let _ = write!(
                body,
                "if __r.peek() != ::std::option::Option::Some(b'{{') {{ \
                 return ::serde::__private::from_tree(__r); }}"
            );
            for i in 0..fields.len() {
                let _ = write!(body, "let mut __f{i} = ::std::option::Option::None;");
            }
            body.push_str(
                "let mut __first = true; \
                 while let ::std::option::Option::Some(__k) = __r.next_key(&mut __first)? { \
                 match &*__k {",
            );
            for (i, f) in fields.iter().enumerate() {
                let _ = write!(
                    body,
                    "{key} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(\
                     ::serde::__private::field_json(__r, {key}, \"{name}\")?),",
                    key = lit(&f.key),
                );
            }
            let _ = write!(body, "_ => __r.skip_value()?, }} }} ::std::result::Result::Ok({name} {{");
            for (i, f) in fields.iter().enumerate() {
                let _ = write!(
                    body,
                    "{}: ::serde::__private::field_or_null(__f{i}, {}, \"{name}\")?,",
                    f.name,
                    lit(&f.key),
                );
            }
            body.push_str("})");
        }
        Shape::Newtype => {
            let _ = write!(body, "::std::result::Result::Ok({name}(::serde::Deserialize::from_json(__r)?))");
        }
        Shape::Enum(variants) if m.tag.is_none() && unit_only(variants) => {
            let _ = write!(
                body,
                "if __r.peek() != ::std::option::Option::Some(b'\"') {{ \
                 return ::serde::__private::from_tree(__r); }} \
                 match &*__r.str()? {{"
            );
            for v in variants {
                let _ = write!(
                    body,
                    "{} => ::std::result::Result::Ok({name}::{}),",
                    lit(&m.wire_variant(&v.name)),
                    v.name,
                );
            }
            let _ = write!(
                body,
                "__other => ::std::result::Result::Err(\
                 ::serde::__private::unknown_variant(__other, \"{name}\")), }}"
            );
        }
        Shape::Enum(_) => return String::new(),
    }
    format!(
        "fn from_json(__r: &mut ::serde::json::Reader<'_>) \
         -> ::std::result::Result<Self, ::serde::Error> {{ {body} }}"
    )
}

// `write!` needs a `&mut String`; this keeps call sites terse.
fn out_ref(s: &mut String) -> &mut String {
    s
}

fn gen_de_external(out: &mut String, m: &Model, variants: &[VariantDef]) {
    let name = &m.name;
    out.push_str("match __v {");

    // Unit variants arrive as bare strings.
    out.push_str("::serde::Value::String(__s) => match __s.as_str() {");
    for v in variants {
        if matches!(v.shape, VariantShape::Unit) {
            let _ = write!(
                out,
                "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}),",
                wire = m.wire_variant(&v.name),
                vname = v.name,
            );
        }
    }
    let _ = write!(
        out,
        "__other => ::std::result::Result::Err(\
         ::serde::__private::unknown_variant(__other, \"{name}\")), }},"
    );

    // Data variants arrive as single-member objects.
    out.push_str(
        "::serde::Value::Object(__entries) if __entries.len() == 1 => { \
         let (__k, __inner) = &__entries[0]; match __k.as_str() {",
    );
    for v in variants {
        let wire = m.wire_variant(&v.name);
        let vname = &v.name;
        match &v.shape {
            VariantShape::Unit => {
                // Also accept {"Variant": null}.
                let _ = write!(
                    out,
                    "\"{wire}\" if __inner.is_null() => ::std::result::Result::Ok({name}::{vname}),"
                );
            }
            VariantShape::Newtype => {
                let _ = write!(
                    out,
                    "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}(\
                     ::serde::Deserialize::from_content(__inner)?)),"
                );
            }
            VariantShape::Tuple(arity) => {
                let elems = (0..*arity)
                    .map(|k| format!("::serde::Deserialize::from_content(&__arr[{k}])?"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = write!(
                    out,
                    "\"{wire}\" => {{ let __arr = ::serde::__private::expect_tuple(\
                     __inner, {arity}usize, \"{name}::{vname}\")?; \
                     ::std::result::Result::Ok({name}::{vname}({elems})) }},"
                );
            }
            VariantShape::Struct(fields) => {
                let _ = write!(
                    out,
                    "\"{wire}\" => {{ let __obj = ::serde::__private::expect_object(\
                     __inner, \"{name}::{vname}\")?; ::std::result::Result::Ok("
                );
                de_struct_literal(out, &format!("{name}::{vname}"), &format!("{name}::{vname}"), fields, "__obj");
                out.push_str(") },");
            }
        }
    }
    let _ = write!(
        out,
        "__other => ::std::result::Result::Err(\
         ::serde::__private::unknown_variant(__other, \"{name}\")), }} }},"
    );

    let _ = write!(
        out,
        "__other => ::std::result::Result::Err(::serde::Error::custom(\
         ::std::format!(\"expected string or single-key object for {name}\"))), }}"
    );
}

fn gen_de_adjacent(out: &mut String, m: &Model, variants: &[VariantDef], tag: &str, content: &str) {
    let name = &m.name;
    let _ = write!(
        out,
        "let __obj = ::serde::__private::expect_object(__v, \"{name}\")?; \
         let __tag = ::serde::__private::tag_str(__obj, \"{tag}\", \"{name}\")?; \
         let __content = ::serde::__private::obj_get(__obj, \"{content}\")\
         .unwrap_or(&::serde::Value::Null); match __tag {{"
    );
    for v in variants {
        let wire = m.wire_variant(&v.name);
        let vname = &v.name;
        match &v.shape {
            VariantShape::Unit => {
                let _ = write!(out, "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}),");
            }
            VariantShape::Newtype => {
                let _ = write!(
                    out,
                    "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}(\
                     ::serde::Deserialize::from_content(__content)?)),"
                );
            }
            VariantShape::Tuple(arity) => {
                let elems = (0..*arity)
                    .map(|k| format!("::serde::Deserialize::from_content(&__arr[{k}])?"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = write!(
                    out,
                    "\"{wire}\" => {{ let __arr = ::serde::__private::expect_tuple(\
                     __content, {arity}usize, \"{name}::{vname}\")?; \
                     ::std::result::Result::Ok({name}::{vname}({elems})) }},"
                );
            }
            VariantShape::Struct(fields) => {
                let _ = write!(
                    out,
                    "\"{wire}\" => {{ let __cobj = ::serde::__private::expect_object(\
                     __content, \"{name}::{vname}\")?; ::std::result::Result::Ok("
                );
                de_struct_literal(out, &format!("{name}::{vname}"), &format!("{name}::{vname}"), fields, "__cobj");
                out.push_str(") },");
            }
        }
    }
    let _ = write!(
        out,
        "__other => ::std::result::Result::Err(\
         ::serde::__private::unknown_variant(__other, \"{name}\")), }}"
    );
}

fn gen_de_internal(out: &mut String, m: &Model, variants: &[VariantDef], tag: &str) {
    let name = &m.name;
    let _ = write!(
        out,
        "let __obj = ::serde::__private::expect_object(__v, \"{name}\")?; \
         match ::serde::__private::tag_str(__obj, \"{tag}\", \"{name}\")? {{"
    );
    for v in variants {
        let wire = m.wire_variant(&v.name);
        let vname = &v.name;
        match &v.shape {
            VariantShape::Unit => {
                let _ = write!(out, "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}),");
            }
            VariantShape::Newtype => {
                // The inner struct's deserializer ignores the tag member.
                let _ = write!(
                    out,
                    "\"{wire}\" => ::std::result::Result::Ok({name}::{vname}(\
                     ::serde::Deserialize::from_content(__v)?)),"
                );
            }
            VariantShape::Struct(fields) => {
                let _ = write!(out, "\"{wire}\" => ::std::result::Result::Ok(");
                de_struct_literal(out, &format!("{name}::{vname}"), &format!("{name}::{vname}"), fields, "__obj");
                out.push_str("),");
            }
            VariantShape::Tuple(_) => {
                let _ = write!(
                    out,
                    "\"{wire}\" => ::std::result::Result::Err(::serde::Error::custom(\
                     \"tuple variant {name}::{vname} cannot be internally tagged\")),"
                );
            }
        }
    }
    let _ = write!(
        out,
        "__other => ::std::result::Result::Err(\
         ::serde::__private::unknown_variant(__other, \"{name}\")), }}"
    );
}
