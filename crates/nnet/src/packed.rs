//! Packed checkpoint fields: how [`crate::Linear`] and
//! [`crate::Transition`] spell their bulk data.
//!
//! An `f32` slice is one JSON string, eight lowercase hex digits per value:
//! the bytes of `f32::to_bits` in little-endian order, on every host. That
//! is a fifth of the tokens of a decimal array, needs no shortest-decimal
//! search to write or parse, and is exact for NaN payloads, ±inf and
//! `-0.0`, which the decimal path spells `null`. A mask row is a string of
//! `0`/`1`, one character per entry. Decoding rejects anything else with a
//! [`DeError`] naming the field; it never panics.
//!
//! Writing goes straight into the output through a two-digit table, with no
//! escape pass: hex and binary digits never need one.

use std::fmt::Display;

use serde::de::{DeError, Value};
use serde::ser::JsonWriter;

/// Values (resp. mask entries) staged per `push_str`: enough to amortize
/// the call, few enough that the stack buffer stays small.
const CHUNK: usize = 32;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `HEX2[b]` is byte `b` as two lowercase hex digits: the `u16` whose
/// little-endian bytes they are.
const HEX2: [u16; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = u16::from_le_bytes([HEX[b >> 4], HEX[b & 15]]);
        b += 1;
    }
    table
};

/// `UNHEX[b]` is the value of lowercase hex digit `b`, or `0xff`.
const UNHEX: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// `v`'s eight hex digits.
pub(crate) fn hex8(v: f32) -> [u8; 8] {
    let [a, b, c, d] = v
        .to_bits()
        .to_le_bytes()
        .map(|byte| u64::from(HEX2[byte as usize]));
    (a | b << 16 | c << 32 | d << 48).to_le_bytes()
}

/// Appends `values`, eight hex digits each, to `out`.
pub(crate) fn push_f32s(out: &mut String, values: &[f32]) {
    let mut buf = [0u8; 8 * CHUNK];
    for chunk in values.chunks(CHUNK) {
        for (&v, digits) in chunk.iter().zip(buf.chunks_exact_mut(8)) {
            digits.copy_from_slice(&hex8(v));
        }
        out.push_str(std::str::from_utf8(&buf[..8 * chunk.len()]).expect("hex digits are ASCII"));
    }
}

/// Appends `bits`, one `0`/`1` each, to `out`.
pub(crate) fn push_bits(out: &mut String, bits: &[bool]) {
    let mut buf = [0u8; 2 * CHUNK];
    for chunk in bits.chunks(buf.len()) {
        for (&bit, digit) in chunk.iter().zip(&mut buf) {
            *digit = b'0' + bit as u8;
        }
        out.push_str(std::str::from_utf8(&buf[..chunk.len()]).expect("binary digits are ASCII"));
    }
}

/// Appends `n` in decimal to `out`: the text `n.to_string()` would be.
pub(crate) fn push_usize(out: &mut String, mut n: usize) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Writes the object entry `name` holding `values`.
pub(crate) fn write_f32s(w: &mut JsonWriter, name: &str, values: &[f32]) {
    w.key(name);
    w.unescaped_str(|out| push_f32s(out, values));
}

fn entry<'v>(v: &'v Value, name: &str) -> Result<&'v Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::new(format!("missing field `{name}`")))
}

fn in_field(name: &str, e: impl Display) -> DeError {
    DeError::new(format!("field `{name}`: {e}"))
}

fn decode_f32s(text: &str) -> Result<Vec<f32>, String> {
    let digits = text.as_bytes();
    if !digits.len().is_multiple_of(8) {
        return Err(format!(
            "packed f32s take 8 hex digits each, got {} digits",
            digits.len()
        ));
    }
    let mut values = Vec::with_capacity(digits.len() / 8);
    for (i, word) in digits.chunks_exact(8).enumerate() {
        let mut bytes = [0u8; 4];
        let mut seen = 0u8;
        for (byte, pair) in bytes.iter_mut().zip(word.chunks_exact(2)) {
            let (hi, lo) = (UNHEX[pair[0] as usize], UNHEX[pair[1] as usize]);
            seen |= hi | lo;
            *byte = hi << 4 | lo;
        }
        if seen > 15 {
            return Err(format!(
                "value {i} is `{}`, not 8 lowercase hex digits",
                String::from_utf8_lossy(word)
            ));
        }
        values.push(f32::from_bits(u32::from_le_bytes(bytes)));
    }
    Ok(values)
}

/// Reads what [`write_f32s`] wrote under `name`.
pub(crate) fn read_f32s(v: &Value, name: &str) -> Result<Vec<f32>, DeError> {
    let text = entry(v, name)?.as_str().map_err(|e| in_field(name, e.0))?;
    decode_f32s(text).map_err(|e| in_field(name, e))
}

/// Reads a one-value [`write_f32s`] entry.
pub(crate) fn read_f32(v: &Value, name: &str) -> Result<f32, DeError> {
    match read_f32s(v, name)?[..] {
        [value] => Ok(value),
        ref other => Err(in_field(
            name,
            format!("expected one packed f32, got {}", other.len()),
        )),
    }
}

/// Reads an object entry `name` holding one [`push_bits`] string per mask
/// row.
pub(crate) fn read_masks(v: &Value, name: &str) -> Result<Vec<Vec<bool>>, DeError> {
    let rows = entry(v, name)?
        .as_array()
        .map_err(|e| in_field(name, e.0))?;
    rows.iter()
        .map(|row| {
            row.as_str()?
                .bytes()
                .map(|digit| match digit {
                    b'0' => Ok(false),
                    b'1' => Ok(true),
                    other => Err(DeError::new(format!(
                        "mask digit `{}` is neither 0 nor 1",
                        other.escape_ascii()
                    ))),
                })
                .collect()
        })
        .collect::<Result<_, DeError>>()
        .map_err(|e| in_field(name, e.0))
}

/// The writers as they were before the table, kept as the oracle of the
/// byte-identity tests: a `Display` impl formatted through the writer's
/// escaping `collect_str`, a generic writer call per field.
#[cfg(test)]
pub(crate) mod reference {
    use std::fmt::{self, Display};

    use serde::ser::JsonWriter;

    use super::{CHUNK, HEX};

    struct HexF32s<'a>(&'a [f32]);

    impl Display for HexF32s<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut buf = [0u8; 8 * CHUNK];
            for chunk in self.0.chunks(CHUNK) {
                for (v, digits) in chunk.iter().zip(buf.chunks_exact_mut(8)) {
                    for (byte, pair) in v
                        .to_bits()
                        .to_le_bytes()
                        .iter()
                        .zip(digits.chunks_exact_mut(2))
                    {
                        pair[0] = HEX[(byte >> 4) as usize];
                        pair[1] = HEX[(byte & 15) as usize];
                    }
                }
                f.write_str(
                    std::str::from_utf8(&buf[..8 * chunk.len()]).expect("hex digits are ASCII"),
                )?;
            }
            Ok(())
        }
    }

    struct Bits<'a>(&'a [bool]);

    impl Display for Bits<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let mut buf = [0u8; CHUNK];
            for chunk in self.0.chunks(CHUNK) {
                for (&bit, digit) in chunk.iter().zip(&mut buf) {
                    *digit = b'0' + bit as u8;
                }
                f.write_str(
                    std::str::from_utf8(&buf[..chunk.len()]).expect("binary digits are ASCII"),
                )?;
            }
            Ok(())
        }
    }

    /// Writes the object entry `name` holding `values`.
    pub(crate) fn write_f32s(w: &mut JsonWriter, name: &str, values: &[f32]) {
        w.key(name);
        w.collect_str(&HexF32s(values));
    }

    /// Writes the object entry `name` holding one mask row per string.
    pub(crate) fn write_masks<'a>(
        w: &mut JsonWriter,
        name: &str,
        masks: impl Iterator<Item = &'a [bool]>,
    ) {
        w.key(name);
        w.begin_array();
        for mask in masks {
            w.elem();
            w.collect_str(&Bits(mask));
        }
        w.end_array();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object(write: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        write(&mut w);
        w.end_object();
        w.finish()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn f32s_are_little_endian_lowercase_hex_and_round_trip_bit_exactly() {
        assert_eq!(
            object(|w| write_f32s(w, "x", &[1.0, -0.0])),
            r#"{"x":"0000803f00000080"}"#
        );
        // more than one chunk, and every class the decimal path mangles
        let mut values: Vec<f32> = (0..3 * CHUNK + 5)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        values.extend([
            f32::NAN,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffff_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1),
        ]);
        for values in [&values[..], &[]] {
            let text = object(|w| write_f32s(w, "x", values));
            assert_eq!(
                text,
                object(|w| reference::write_f32s(w, "x", values)),
                "the table writes what the formatter wrote"
            );
            let back = read_f32s(&Value::parse(&text).unwrap(), "x").unwrap();
            assert_eq!(bits(&back), bits(values));
        }
    }

    #[test]
    fn every_byte_is_its_two_digits() {
        for b in 0..=255u8 {
            assert_eq!(
                HEX2[b as usize].to_le_bytes(),
                *format!("{b:02x}").as_bytes()
            );
        }
        for n in [0, 7, 10, 99, 4096, usize::MAX] {
            let mut out = String::from("x");
            push_usize(&mut out, n);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn masks_round_trip_including_empty_rows() {
        let masks = vec![
            vec![],
            vec![true, false, false, true],
            (0..5 * CHUNK + 3).map(|i| i % 3 == 0).collect(),
        ];
        let text = object(|w| {
            w.key("m");
            w.begin_array();
            for mask in &masks {
                w.elem();
                w.unescaped_str(|out| push_bits(out, mask));
            }
            w.end_array();
        });
        assert!(text.starts_with(r#"{"m":["","1001","1001001"#), "{text}");
        assert_eq!(
            text,
            object(|w| reference::write_masks(w, "m", masks.iter().map(Vec::as_slice)))
        );
        assert_eq!(
            read_masks(&Value::parse(&text).unwrap(), "m").unwrap(),
            masks
        );
    }

    #[test]
    fn malformed_fields_are_errors_that_name_the_field() {
        let err = |json: &str| {
            let msg = read_f32s(&Value::parse(json).unwrap(), "x").unwrap_err().0;
            assert!(msg.contains("`x`"), "{msg}");
            msg
        };
        assert!(err(r#"{"y":""}"#).contains("missing"));
        assert!(err(r#"{"x":[1.0]}"#).contains("expected string"));
        assert!(err(r#"{"x":"0000803"}"#).contains("got 7 digits"));
        assert!(err(r#"{"x":"0000803F"}"#).contains("`0000803F`"));
        assert!(err(r#"{"x":"0000803g"}"#).contains("value 0"));
        assert!(err(r#"{"x":"0000803f000é800"}"#).contains("value 1"));
        let v = Value::parse(r#"{"x":["01","0 1"],"y":"0000803f00000000","z":"01"}"#).unwrap();
        let msg = read_masks(&v, "x").unwrap_err().0;
        assert!(
            msg.contains("`x`") && msg.contains("neither 0 nor 1"),
            "{msg}"
        );
        assert!(read_masks(&v, "z")
            .unwrap_err()
            .0
            .contains("expected array"));
        assert!(read_f32(&v, "y").unwrap_err().0.contains("got 2"));
    }
}
