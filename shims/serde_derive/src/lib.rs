//! Derive macros for the offline `serde` shim.
//!
//! `#[derive(Serialize)]` generates an implementation of the shim's
//! JSON-writer `Serialize` trait; `#[derive(Deserialize)]` generates the
//! inverse decoder over the shim's parsed [`Value`] tree, mirroring the
//! serializer's encoding exactly (named struct → object, 1-tuple struct →
//! transparent, n-tuple struct → array, unit enum variant → string, data
//! variant → single-key object). `#[serde(skip)]` fields are restored with
//! `Default::default()`. That is the one `serde` attribute: any other
//! (`default`, `rename`, …) and `skip` anywhere but on a named field fail
//! the build instead of being ignored, so every field a type names is
//! required on decode.
//!
//! The parser walks the raw token stream (no `syn` available offline): it
//! only needs item kind, item name, field/variant names, and `#[serde(skip)]`
//! markers — types are irrelevant because (de)serialization is dispatched
//! through the trait on each field value.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let mut s = String::from("w.begin_object();\n");
            for f in fields.iter().filter(|f| !f.skip) {
                s.push_str(&format!(
                    "w.key(\"{f}\"); ::serde::Serialize::serialize(&self.{f}, w);\n",
                    f = f.name
                ));
            }
            s.push_str("w.end_object();");
            s
        }
        Data::TupleStruct(arity) => {
            if *arity == 1 {
                "::serde::Serialize::serialize(&self.0, w);".to_string()
            } else {
                let mut s = String::from("w.begin_array();\n");
                for i in 0..*arity {
                    s.push_str(&format!(
                        "w.elem(); ::serde::Serialize::serialize(&self.{i}, w);\n"
                    ));
                }
                s.push_str("w.end_array();");
                s
            }
        }
        Data::UnitStruct => "w.begin_object(); w.end_object();".to_string(),
        Data::Enum(variants) => {
            let mut s = String::from("match self {\n");
            for v in variants {
                match &v.fields {
                    VariantFields::Unit => s.push_str(&format!(
                        "{ty}::{v} => w.string(\"{v}\"),\n",
                        ty = item.name,
                        v = v.name
                    )),
                    VariantFields::Tuple(arity) => {
                        let binds: Vec<String> = (0..*arity).map(|i| format!("x{i}")).collect();
                        let mut arm = format!(
                            "{ty}::{v}({binds}) => {{ w.begin_object(); w.key(\"{v}\");\n",
                            ty = item.name,
                            v = v.name,
                            binds = binds.join(", ")
                        );
                        if *arity == 1 {
                            arm.push_str("::serde::Serialize::serialize(x0, w);\n");
                        } else {
                            arm.push_str("w.begin_array();\n");
                            for b in &binds {
                                arm.push_str(&format!(
                                    "w.elem(); ::serde::Serialize::serialize({b}, w);\n"
                                ));
                            }
                            arm.push_str("w.end_array();\n");
                        }
                        arm.push_str("w.end_object(); }\n");
                        s.push_str(&arm);
                    }
                    VariantFields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let mut arm = format!(
                            "{ty}::{v} {{ {binds} }} => {{ w.begin_object(); w.key(\"{v}\"); w.begin_object();\n",
                            ty = item.name,
                            v = v.name,
                            binds = binds.join(", ")
                        );
                        for f in fields.iter().filter(|f| !f.skip) {
                            arm.push_str(&format!(
                                "w.key(\"{f}\"); ::serde::Serialize::serialize({f}, w);\n",
                                f = f.name
                            ));
                        }
                        arm.push_str("w.end_object(); w.end_object(); }\n");
                        s.push_str(&arm);
                    }
                }
            }
            s.push_str("}\n");
            s
        }
    };
    let out = format!(
        "impl<{params}> ::serde::Serialize for {ty} {{\n\
         fn serialize(&self, w: &mut ::serde::ser::JsonWriter) {{\n{body}\n}}\n}}\n",
        params = item.params("::serde::Serialize"),
        ty = item.ty()
    );
    out.parse().expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let mut s = format!("::core::result::Result::Ok({} {{\n", item.name);
            for f in fields {
                if f.skip {
                    s.push_str(&format!(
                        "{f}: ::core::default::Default::default(),\n",
                        f = f.name
                    ));
                } else {
                    s.push_str(&format!(
                        "{f}: ::serde::de::field(v, \"{f}\")?,\n",
                        f = f.name
                    ));
                }
            }
            s.push_str("})");
            s
        }
        Data::TupleStruct(arity) => {
            if *arity == 1 {
                format!(
                    "::core::result::Result::Ok({}(::serde::de::from_value(v)?))",
                    item.name
                )
            } else {
                let mut s = String::from("let arr = v.as_array()?;\n");
                s.push_str(&format!("::core::result::Result::Ok({}(", item.name));
                for i in 0..*arity {
                    s.push_str(&format!("::serde::de::elem(arr, {i})?, "));
                }
                s.push_str("))");
                s
            }
        }
        Data::UnitStruct => format!("let _ = v; ::core::result::Result::Ok({})", item.name),
        Data::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut data_arms = String::new();
            for v in variants {
                match &v.fields {
                    VariantFields::Unit => unit_arms.push_str(&format!(
                        "\"{v}\" => ::core::result::Result::Ok({ty}::{v}),\n",
                        ty = item.name,
                        v = v.name
                    )),
                    VariantFields::Tuple(arity) => {
                        let mut arm = format!("\"{v}\" => {{ ", v = v.name);
                        if *arity == 1 {
                            arm.push_str(&format!(
                                "::core::result::Result::Ok({ty}::{v}(::serde::de::from_value(inner)?))",
                                ty = item.name,
                                v = v.name
                            ));
                        } else {
                            arm.push_str("let arr = inner.as_array()?;\n");
                            arm.push_str(&format!(
                                "::core::result::Result::Ok({ty}::{v}(",
                                ty = item.name,
                                v = v.name
                            ));
                            for i in 0..*arity {
                                arm.push_str(&format!("::serde::de::elem(arr, {i})?, "));
                            }
                            arm.push_str("))");
                        }
                        arm.push_str(" }\n");
                        data_arms.push_str(&arm);
                    }
                    VariantFields::Named(fields) => {
                        let mut arm = format!(
                            "\"{v}\" => ::core::result::Result::Ok({ty}::{v} {{\n",
                            ty = item.name,
                            v = v.name
                        );
                        for f in fields {
                            if f.skip {
                                arm.push_str(&format!(
                                    "{f}: ::core::default::Default::default(),\n",
                                    f = f.name
                                ));
                            } else {
                                arm.push_str(&format!(
                                    "{f}: ::serde::de::field(inner, \"{f}\")?,\n",
                                    f = f.name
                                ));
                            }
                        }
                        arm.push_str("}),\n");
                        data_arms.push_str(&arm);
                    }
                }
            }
            format!(
                "match v {{\n\
                 ::serde::de::Value::Str(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::core::result::Result::Err(::serde::de::DeError::new(\
                 format!(\"unknown {name} variant `{{other}}`\"))),\n\
                 }},\n\
                 other => {{\n\
                 let (tag, inner) = ::serde::de::sole_entry(other)?;\n\
                 let _ = inner;\n\
                 match tag {{\n\
                 {data_arms}\
                 _ => ::core::result::Result::Err(::serde::de::DeError::new(\
                 format!(\"unknown {name} variant `{{tag}}`\"))),\n\
                 }}\n\
                 }}\n\
                 }}",
                name = item.name
            )
        }
    };
    let out = format!(
        "impl<'de, {params}> ::serde::Deserialize<'de> for {ty} {{\n\
         fn deserialize_value(v: &::serde::de::Value) \
         -> ::core::result::Result<Self, ::serde::de::DeError> {{\n{body}\n}}\n}}\n",
        params = item.params("for<'a> ::serde::Deserialize<'a>"),
        ty = item.ty()
    );
    out.parse().expect("generated Deserialize impl parses")
}

struct Field {
    name: String,
    skip: bool,
}

enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum Data {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    /// The item's type parameters, by name.
    generics: Vec<String>,
    data: Data,
}

impl Item {
    /// The type an impl is for: `Name`, or `Name<A, B>`.
    fn ty(&self) -> String {
        if self.generics.is_empty() {
            self.name.clone()
        } else {
            format!("{}<{}>", self.name, self.generics.join(", "))
        }
    }

    /// The impl's parameter list: every type parameter bounded by `bound`.
    fn params(&self, bound: &str) -> String {
        let params: Vec<String> = (self.generics.iter())
            .map(|p| format!("{p}: {bound}"))
            .collect();
        params.join(", ")
    }
}

/// True when the attribute group tokens are `serde(skip)`, false when they
/// are not a `serde` attribute.
///
/// # Panics
/// On any other `serde(…)`: the shim would ignore it.
fn attr_is_serde_skip(group: &proc_macro::Group) -> bool {
    let mut toks = group.stream().into_iter();
    match toks.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    let args = toks.map(|t| t.to_string()).collect::<String>();
    if args != "(skip)" {
        panic!("serde shim: #[serde{args}] is not supported, only #[serde(skip)] on a field");
    }
    true
}

/// Consumes leading `#[...]` attributes; returns true if one is
/// `#[serde(skip)]`.
fn eat_attrs(toks: &[TokenTree], pos: &mut usize) -> bool {
    let mut skip = false;
    while *pos + 1 < toks.len() {
        match (&toks[*pos], &toks[*pos + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                if attr_is_serde_skip(g) {
                    skip = true;
                }
                *pos += 2;
            }
            _ => break,
        }
    }
    skip
}

/// [`eat_attrs`] before an item or a variant, where `skip` means nothing.
fn eat_outer_attrs(toks: &[TokenTree], pos: &mut usize) {
    if eat_attrs(toks, pos) {
        panic!("serde shim: #[serde(skip)] is only supported on a named field");
    }
}

/// Consumes an optional `pub` / `pub(crate)` visibility.
fn eat_vis(toks: &[TokenTree], pos: &mut usize) {
    if matches!(&toks.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(&toks.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

/// Counts top-level comma-separated entries in a tuple field group,
/// ignoring commas nested in groups or angle brackets.
fn tuple_arity(group: &proc_macro::Group) -> usize {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle = 0i32;
    let mut trailing_comma = false;
    for t in &toks {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => {
                angle += 1;
                trailing_comma = false;
            }
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle -= 1;
                trailing_comma = false;
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                arity += 1;
                trailing_comma = true;
            }
            _ => trailing_comma = false,
        }
    }
    if trailing_comma {
        arity -= 1;
    }
    arity
}

/// Parses the named fields of a brace group (struct body or struct
/// variant body).
fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut pos = 0usize;
    let mut fields = Vec::new();
    while pos < toks.len() {
        let skip = eat_attrs(&toks, &mut pos);
        eat_vis(&toks, &mut pos);
        let name = match &toks.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        pos += 1;
        // expect ':', then skip the type until a top-level ','
        debug_assert!(matches!(&toks.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == ':'));
        pos += 1;
        let mut angle = 0i32;
        while pos < toks.len() {
            match &toks[pos] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    pos += 1;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        fields.push(Field { name, skip });
    }
    fields
}

fn parse_variants(group: &proc_macro::Group) -> Vec<Variant> {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    let mut pos = 0usize;
    let mut variants = Vec::new();
    while pos < toks.len() {
        eat_outer_attrs(&toks, &mut pos);
        let name = match &toks.get(pos) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        pos += 1;
        let fields = match &toks.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                VariantFields::Tuple(tuple_arity(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantFields::Named(parse_named_fields(g))
            }
            _ => VariantFields::Unit,
        };
        // skip an optional `= discriminant` and the separating comma
        while pos < toks.len() {
            if matches!(&toks[pos], TokenTree::Punct(p) if p.as_char() == ',') {
                pos += 1;
                break;
            }
            pos += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0usize;
    eat_outer_attrs(&toks, &mut pos);
    eat_vis(&toks, &mut pos);
    let kind = match &toks.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected struct/enum, found {other:?}"),
    };
    pos += 1;
    let name = match &toks.get(pos) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected item name, found {other:?}"),
    };
    pos += 1;
    // type parameters: the first identifier of each top-level entry of
    // `<…>`. A bound written there is not repeated on the impl, which
    // bounds each parameter by the derived trait alone.
    let mut generics = Vec::new();
    if matches!(&toks.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        let (mut angle, mut entry_start) = (0i32, true);
        while pos < toks.len() {
            match &toks[pos] {
                TokenTree::Punct(p) if p.as_char() == '\'' => {
                    panic!("serde shim: lifetime parameters are not supported")
                }
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle -= 1;
                    if angle == 0 {
                        pos += 1;
                        break;
                    }
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 1 => entry_start = true,
                TokenTree::Ident(id) if angle == 1 && entry_start => {
                    generics.push(id.to_string());
                    entry_start = false;
                }
                _ => {}
            }
            pos += 1;
        }
    }
    let data = if kind == "enum" {
        match &toks.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g))
            }
            other => panic!("expected enum body, found {other:?}"),
        }
    } else {
        match &toks.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(tuple_arity(g))
            }
            _ => Data::UnitStruct,
        }
    };
    Item {
        name,
        generics,
        data,
    }
}
