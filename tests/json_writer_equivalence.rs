//! The JSON text writer matches the `Value`-tree walkers it replaced.
//!
//! `serde_json::to_string` and `to_string_pretty` once built a full
//! `Value` tree and walked it with the two functions kept below as
//! `reference_compact` and `reference_pretty`, copied unchanged. The
//! writer streams text straight from `Serialize` impls instead; every
//! byte of its output must equal the reference walk: field order, `{:?}`
//! floats with non-finite ones as `null`, the escape set, verbatim
//! non-control text, stringified integer keys, unit variants as strings
//! and empty `[]`/`{}` in pretty output.
//!
//! Byte slices (`Vec<u8>`, `&[u8]`, `[u8; N]`, `Bytes`) take their own
//! path: `u8`'s `serialize_slice` hands the whole slice to the writer,
//! which renders compact arrays through a digit table. Their text must
//! still equal the reference walk of the same integers, compact and
//! pretty, nested or not, and `to_vec` must be `to_string`'s bytes.
//!
//! The properties keep proptest's default configuration, so the
//! `PROPTEST_CASES` environment variable raises their case count.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::{Range, RangeInclusive};

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Serialize;
use serde_json::JsonValue;

// ---------------------------------------------------------------------------
// The reference walkers: the `Value`-tree writer as it was before streaming.
// ---------------------------------------------------------------------------

fn reference_compact(value: &JsonValue, out: &mut String) {
    match value {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::U64(n) => out.push_str(&n.to_string()),
        JsonValue::I64(n) => out.push_str(&n.to_string()),
        JsonValue::F64(f) => write_float(*f, out),
        JsonValue::Str(s) => write_string(s, out),
        JsonValue::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_compact(item, out);
            }
            out.push(']');
        }
        JsonValue::Map(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                reference_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn reference_pretty(value: &JsonValue, indent: usize, out: &mut String) {
    match value {
        JsonValue::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                reference_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        JsonValue::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_string(key, out);
                out.push_str(": ");
                reference_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        other => reference_compact(other, out),
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        out.push_str(&format!("{f:?}"));
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn compact(value: &JsonValue) -> String {
    let mut out = String::new();
    reference_compact(value, &mut out);
    out
}

fn pretty(value: &JsonValue) -> String {
    let mut out = String::new();
    reference_pretty(value, 0, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Random `Value` trees
// ---------------------------------------------------------------------------

/// Integers at the edges of both kinds plus uniform draws.
fn unsigned() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 0u64..1_000, any::<u64>()]
}

fn signed() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(-1i64), -1_000i64..0, any::<i64>()]
}

/// Every float class: NaN, both infinities, both zeros, subnormals, huge
/// and tiny normals, and arbitrary bit patterns.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::from_bits(1)),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(1e300f64),
        Just(-1e300f64),
        Just(f64::MAX),
        Just(1.0f64),
        -1e6f64..1e6,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Every ASCII byte (controls, quote, backslash and DEL among them) plus
/// two-, three- and four-byte characters.
fn text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII")),
        (0u32..0x80).prop_map(|c| char::from_u32(c).expect("ASCII")),
        Just('é'),
        Just('\u{80}'),
        Just('✓'),
        Just('\u{2028}'),
        Just('😀'),
        any::<char>(),
    ];
    prop::collection::vec(ch, 0..12).prop_map(|chars| chars.into_iter().collect())
}

/// A `Value` tree of at most `depth` container levels.
struct Tree {
    depth: u32,
}

impl Strategy for Tree {
    type Value = JsonValue;

    fn generate(&self, rng: &mut TestRng) -> JsonValue {
        let kinds = if self.depth == 0 { 7u8 } else { 11 };
        let child = Tree { depth: self.depth.saturating_sub(1) };
        match (0..kinds).generate(rng) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(any::<bool>().generate(rng)),
            2 => JsonValue::U64(unsigned().generate(rng)),
            3 => JsonValue::I64(signed().generate(rng)),
            4 => JsonValue::F64(float().generate(rng)),
            5 | 6 => JsonValue::Str(text().generate(rng)),
            7 | 8 => JsonValue::Seq(prop::collection::vec(&child, 0..5).generate(rng)),
            _ => JsonValue::Map(prop::collection::vec((text(), &child), 0..5).generate(rng)),
        }
    }
}

proptest! {
    #[test]
    fn writer_matches_reference_walk(value in Tree { depth: 4 }) {
        prop_assert_eq!(serde_json::to_string(&value).unwrap(), compact(&value));
        prop_assert_eq!(serde_json::to_string_pretty(&value).unwrap(), pretty(&value));
        let rebuilt = serde_json::to_value(&value).unwrap();
        prop_assert_eq!(compact(&rebuilt), compact(&value));
    }
}

// ---------------------------------------------------------------------------
// Typed values: the derive's shapes and every std impl
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
struct Pair(u8, i64);

#[derive(Serialize)]
struct Label(String);

#[derive(Serialize)]
enum Shape {
    Empty,
    Wrapped(Option<u32>),
    Triple(i8, f64, char),
    Nothing(),
    Named { label: String, span: Range<u16>, inner: Vec<Shape> },
    Bare {},
}

#[derive(Serialize)]
struct Record {
    marker: Marker,
    pair: Pair,
    label: Label,
    shapes: Vec<Shape>,
    empty_seq: Vec<u8>,
    empty_map: BTreeMap<String, u8>,
    by_id: BTreeMap<u32, (bool, String)>,
    by_offset: BTreeMap<i64, f32>,
    hashed: HashMap<String, Vec<u16>>,
    inclusive: RangeInclusive<u64>,
    next: Option<Box<Record>>,
    deque: VecDeque<u16>,
    set: BTreeSet<i16>,
    array: [u8; 3],
    nothing: (),
    tuple: (usize, isize, &'static str),
    boxed: Box<[i32]>,
    raw: JsonValue,
}

fn record(nested: bool) -> Record {
    Record {
        marker: Marker,
        pair: Pair(255, i64::MIN),
        label: Label("tab\tquote\"é\u{1f}".to_owned()),
        shapes: vec![
            Shape::Empty,
            Shape::Wrapped(None),
            Shape::Wrapped(Some(7)),
            Shape::Triple(-8, f64::NAN, '\u{0}'),
            Shape::Nothing(),
            Shape::Named {
                label: "line\nbreak".to_owned(),
                span: 3..9,
                inner: vec![Shape::Empty, Shape::Bare {}],
            },
            Shape::Named { label: String::new(), span: 0..0, inner: Vec::new() },
            Shape::Bare {},
        ],
        empty_seq: Vec::new(),
        empty_map: BTreeMap::new(),
        by_id: [(2, (true, "b".to_owned())), (10, (false, String::new()))].into(),
        by_offset: [(-5, 0.5f32), (0, f32::INFINITY), (7, -0.0)].into(),
        hashed: [("only".to_owned(), vec![1, 2])].into(),
        inclusive: 4..=u64::MAX,
        next: nested.then(|| Box::new(record(false))),
        deque: [3, 1].into(),
        set: [5, -5, 0].into(),
        array: [0, 1, 2],
        nothing: (),
        tuple: (usize::MAX, isize::MIN, "\\"),
        boxed: vec![-1, 0, 1].into_boxed_slice(),
        raw: JsonValue::Map(vec![
            ("seq".to_owned(), JsonValue::Seq(vec![JsonValue::Null, JsonValue::F64(1e-7)])),
            ("map".to_owned(), JsonValue::Map(Vec::new())),
        ]),
    }
}

#[test]
fn typed_values_match_reference_walk_of_their_value() {
    let record = record(true);
    let value = serde_json::to_value(&record).unwrap();
    assert_eq!(serde_json::to_string(&record).unwrap(), compact(&value));
    assert_eq!(serde_json::to_string_pretty(&record).unwrap(), pretty(&value));
    // A spot check that the shapes are the externally tagged ones.
    let shapes = serde_json::to_string(&record.shapes).unwrap();
    assert!(shapes.starts_with(r#"["Empty",{"Wrapped":null},{"Wrapped":7},{"Triple":[-8,null,"\u0000"]},{"Nothing":[]},{"Named":{"label":"line\nbreak","span":{"start":3,"end":9},"inner":["Empty",{"Bare":{}}]}}"#), "{shapes}");
}

#[test]
fn scalars_and_empty_containers_print_as_before() {
    assert_eq!(serde_json::to_string(&Marker).unwrap(), "null");
    assert_eq!(serde_json::to_string_pretty(&Shape::Nothing()).unwrap(), "{\n  \"Nothing\": []\n}");
    assert_eq!(serde_json::to_string_pretty(&Shape::Bare {}).unwrap(), "{\n  \"Bare\": {}\n}");
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Triple(1, 2.0, 'x')).unwrap(),
        "{\n  \"Triple\": [\n    1,\n    2.0,\n    \"x\"\n  ]\n}"
    );
    assert_eq!(serde_json::to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    assert_eq!(serde_json::to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(serde_json::to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(serde_json::to_string(&1e300f64).unwrap(), "1e300");
    assert_eq!(serde_json::to_string(&f64::from_bits(1)).unwrap(), "5e-324");
    assert_eq!(serde_json::to_string("\u{7f}\u{1b}").unwrap(), "\"\u{7f}\\u001b\"");
}

#[test]
fn map_keys_stringify_as_before() {
    let bools: BTreeMap<bool, u8> = [(true, 1)].into();
    let options: BTreeMap<Option<u8>, u8> = [(Some(3), 1)].into();
    let units: BTreeMap<(), u8> = [((), 1)].into();
    let seqs: BTreeMap<Vec<u8>, u8> = [(vec![1], 1)].into();
    let maps: BTreeMap<BTreeMap<u8, u8>, u8> = [(BTreeMap::new(), 1)].into();
    let want = |kind: &str| format!("map key must be a string, got {kind}");
    assert_eq!(serde_json::to_string(&bools).unwrap_err().to_string(), want("bool"));
    assert_eq!(serde_json::to_string_pretty(&bools).unwrap_err().to_string(), want("bool"));
    assert_eq!(serde_json::to_value(&bools).unwrap_err().to_string(), want("bool"));
    assert_eq!(serde_json::to_string(&units).unwrap_err().to_string(), want("null"));
    assert_eq!(serde_json::to_string(&seqs).unwrap_err().to_string(), want("sequence"));
    assert_eq!(serde_json::to_string(&maps).unwrap_err().to_string(), want("map"));
    assert_eq!(serde_json::to_string(&options).unwrap(), r#"{"3":1}"#);
    assert_eq!(serde_json::to_string(&units).unwrap_err().to_string(), want("null"));
}

// ---------------------------------------------------------------------------
// Byte slices
// ---------------------------------------------------------------------------

/// The tree a byte slice walked element by element builds.
fn byte_tree(bytes: &[u8]) -> JsonValue {
    JsonValue::Seq(bytes.iter().map(|&b| JsonValue::U64(u64::from(b))).collect())
}

/// `value` prints as the reference walk of `tree` in both forms, its
/// `Value` tree is `tree`, and `to_vec` is `to_string`'s bytes.
fn assert_prints_as<T: Serialize + ?Sized>(value: &T, tree: &JsonValue) {
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, compact(tree));
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty(tree));
    assert_eq!(serde_json::to_vec(value).unwrap(), text.into_bytes());
    assert_eq!(&serde_json::to_value(value).unwrap(), tree);
}

/// Byte strings biased to the table's edges: 0, 9/10, 99/100 and 255.
fn byte_string() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        Just(0u8),
        Just(9u8),
        Just(10u8),
        Just(99u8),
        Just(100u8),
        Just(255u8),
        any::<u8>(),
        any::<u8>(),
    ];
    prop::collection::vec(byte, 0..300)
}

#[derive(Serialize)]
struct Finding {
    input: Vec<u8>,
    tail: Bytes,
    first: Option<Vec<u8>>,
    runs: Vec<Vec<u8>>,
    fixed: [u8; 3],
}

proptest! {
    #[test]
    fn byte_slices_match_reference_walk(bytes in byte_string(), split in 0usize..300) {
        let tree = byte_tree(&bytes);
        assert_prints_as(&bytes, &tree);
        assert_prints_as(&bytes[..], &tree);
        assert_prints_as(&&bytes[..], &tree);
        assert_prints_as(&Bytes::from(bytes.clone()), &tree);
        assert_prints_as(&Some(bytes.clone()), &tree);
        let (head, tail) = bytes.split_at(split.min(bytes.len()));
        let runs = vec![head.to_vec(), Vec::new(), tail.to_vec()];
        let runs_tree = JsonValue::Seq(runs.iter().map(|run| byte_tree(run)).collect());
        assert_prints_as(&runs, &runs_tree);
        // Nested in a struct, at depth, beside the other byte carriers.
        let finding = Finding {
            input: bytes.clone(),
            tail: Bytes::from(tail.to_vec()),
            first: (!head.is_empty()).then(|| head.to_vec()),
            runs,
            fixed: [head.len() as u8, 0, 255],
        };
        let finding_tree = JsonValue::Map(vec![
            ("input".to_owned(), tree),
            ("tail".to_owned(), byte_tree(tail)),
            (
                "first".to_owned(),
                if head.is_empty() { JsonValue::Null } else { byte_tree(head) },
            ),
            ("runs".to_owned(), runs_tree),
            ("fixed".to_owned(), byte_tree(&[head.len() as u8, 0, 255])),
        ]);
        assert_prints_as(&vec![finding], &JsonValue::Seq(vec![finding_tree]));
    }
}

#[test]
fn every_byte_value_and_array_length_prints_as_before() {
    let all: Vec<u8> = (0..=255).collect();
    assert_prints_as(&all, &byte_tree(&all));
    let all_array: [u8; 256] = std::array::from_fn(|i| i as u8);
    assert_prints_as(&all_array, &byte_tree(&all));
    assert_prints_as(&[0u8; 0], &byte_tree(&[]));
    assert_prints_as(&[7u8], &byte_tree(&[7]));
    assert_prints_as(&[100u8, 9, 10, 255, 0, 99, 1], &byte_tree(&[100, 9, 10, 255, 0, 99, 1]));
    assert_prints_as(&Vec::<u8>::new(), &byte_tree(&[]));
    assert_prints_as(&Bytes::new(), &byte_tree(&[]));
    assert_prints_as(&None::<Vec<u8>>, &JsonValue::Null);
    assert_prints_as(&vec![Vec::<u8>::new(); 2], &JsonValue::Seq(vec![byte_tree(&[]); 2]));
    assert_eq!(serde_json::to_string(&[0u8, 255, 10]).unwrap(), "[0,255,10]");
    assert_eq!(serde_json::to_string_pretty(&[0u8, 255]).unwrap(), "[\n  0,\n  255\n]");
    assert_eq!(serde_json::to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
}

#[test]
fn byte_vector_map_keys_still_error() {
    let seqs: BTreeMap<Vec<u8>, u8> = [(vec![1, 2], 1)].into();
    let empty: BTreeMap<Vec<u8>, u8> = [(Vec::new(), 1)].into();
    let want = "map key must be a string, got sequence";
    for map in [&seqs, &empty] {
        assert_eq!(serde_json::to_string(map).unwrap_err().to_string(), want);
        assert_eq!(serde_json::to_string_pretty(map).unwrap_err().to_string(), want);
        assert_eq!(serde_json::to_vec(map).unwrap_err().to_string(), want);
        assert_eq!(serde_json::to_value(map).unwrap_err().to_string(), want);
    }
}
