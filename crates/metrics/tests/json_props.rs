//! Property tests for `metrics::json`: the writer/parser pair behind the
//! results schema, the scenario validator and the daemon's wire protocol.
//!
//! * `parse(render(v)) == v` over arbitrary nested objects/arrays — both
//!   the pretty and the compact (NDJSON) renderings;
//! * the same over documents shaped like real results files, including
//!   the per-phase `metrics.series` arrays;
//! * every parse error on a mutated document points at a `line:column`
//!   that actually exists in the mutated text.

use metrics::json::line_col;
use metrics::Json;
use proptest::prelude::*;

// -------------------------------------------------------------------
// Generators
// -------------------------------------------------------------------

/// Characters that exercise every escaping path: quotes, backslashes,
/// control characters, multi-byte UTF-8, plus boring ASCII.
const STRING_POOL: &[char] = &[
    'a', 'b', 'z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', 'é', '→', '🦀', ':', ',',
    '{', '}', '[', ']',
];

fn string_strategy() -> BoxedStrategy<String> {
    prop::collection::vec(0usize..STRING_POOL.len(), 0..8)
        .prop_map(|picks| picks.into_iter().map(|i| STRING_POOL[i]).collect())
        .boxed()
}

fn leaf_strategy() -> BoxedStrategy<Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite floats only: JSON has no NaN/∞ (they render as null by
        // design, which is deliberately not a round trip).
        (-1.0e9f64..1.0e9).prop_map(Json::Num),
        any::<u64>().prop_map(Json::UInt),
        string_strategy().prop_map(Json::Str),
    ]
    .boxed()
}

/// Arbitrary JSON up to `depth` levels of nesting.
fn json_strategy(depth: u32) -> BoxedStrategy<Json> {
    if depth == 0 {
        return leaf_strategy();
    }
    let element = json_strategy(depth - 1);
    let member = (string_strategy(), json_strategy(depth - 1));
    prop_oneof![
        leaf_strategy(),
        prop::collection::vec(element, 0..5).prop_map(Json::Arr),
        prop::collection::vec(member, 0..5).prop_map(Json::Obj),
    ]
    .boxed()
}

/// A document shaped like a real `results/scenario-<name>.json`: runs
/// with a `metrics` object carrying scalars and a per-phase `series`
/// array — the shape whose rendered lines a digest drift names.
fn results_doc_strategy() -> BoxedStrategy<Json> {
    let phase_row =
        (0.0f64..2.0, 1u64..5_000_000, string_strategy()).prop_map(|(goodput, fct, label)| {
            let mut row = Json::object();
            row.push("label", label)
                .push("goodput_normalized", goodput)
                .push("fct_p99_ns", fct)
                .push("match_ratio", Json::Null);
            row
        });
    let run = (
        prop::collection::vec(phase_row, 1..5),
        0u64..u64::MAX,
        string_strategy(),
    )
        .prop_map(|(series, seed, system)| {
            let mut metrics = Json::object();
            metrics
                .push("goodput", 0.5f64)
                .push("series", Json::Arr(series));
            let mut run = Json::object();
            run.push("system", system)
                .push("seed", seed)
                .push("metrics", metrics);
            run
        });
    prop::collection::vec(run, 1..4)
        .prop_map(|runs| {
            let mut doc = Json::object();
            doc.push("schema_version", 1u64)
                .push("experiment", "scenario-prop")
                .push("runs", Json::Arr(runs));
            doc
        })
        .boxed()
}

/// Extract the `line N, column M` a parse error points at.
fn error_position(error: &str) -> Option<(usize, usize)> {
    let line_at = error.find("line ")?;
    let rest = &error[line_at + 5..];
    let (line, rest) = rest.split_once(", column ")?;
    let column: String = rest.chars().take_while(char::is_ascii_digit).collect();
    Some((line.parse().ok()?, column.parse().ok()?))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Arbitrary nested values survive render → parse exactly, in both
    /// renderings.
    #[test]
    fn render_parse_round_trips(value in json_strategy(3)) {
        let pretty = value.render();
        prop_assert_eq!(Json::parse(&pretty).expect("own rendering parses"), value.clone());
        let compact = value.render_compact();
        prop_assert_eq!(Json::parse(&compact).expect("compact rendering parses"), value.clone());
        // Rendering is deterministic: same value, same bytes, even after
        // a round trip through the parser.
        prop_assert_eq!(Json::parse(&pretty).unwrap().render(), pretty);
    }

    /// Results-shaped documents (with `metrics.series`) round-trip too.
    #[test]
    fn results_documents_round_trip(doc in results_doc_strategy()) {
        let text = doc.render();
        let back = Json::parse(&text).expect("results doc parses");
        prop_assert_eq!(back.clone(), doc.clone());
        // The series rows come back in order with their keys intact.
        let runs = back.get("runs").unwrap().as_array().unwrap();
        for run in runs {
            let series = run.get("metrics").unwrap().get("series").unwrap();
            for row in series.as_array().unwrap() {
                prop_assert!(row.get("label").is_some());
                prop_assert!(row.get("goodput_normalized").unwrap().as_f64().is_some());
            }
        }
    }

    /// Truncating a document anywhere inside it is always an error, and
    /// the error names a line:column that exists in the truncated text.
    #[test]
    fn truncation_errors_carry_valid_positions(doc in results_doc_strategy(), frac in 0.01f64..0.99) {
        let text = doc.render();
        let cut = ((text.len() as f64 * frac) as usize).clamp(1, text.len() - 1);
        // Cut on a char boundary.
        let cut = (cut..text.len()).find(|&i| text.is_char_boundary(i)).unwrap();
        let mutated = &text[..cut];
        let error = Json::parse(mutated).expect_err("truncated docs never parse");
        let (line, column) = error_position(&error)
            .unwrap_or_else(|| panic!("error without position: {error}"));
        let lines: Vec<&str> = mutated.split('\n').collect();
        prop_assert!(line >= 1 && line <= lines.len(), "{error}");
        // line_col clamps to the last position, so the column is at most
        // one past the line's character count.
        prop_assert!(column >= 1 && column <= lines[line - 1].chars().count() + 1, "{error}");
    }

    /// Corrupting one structural byte either still parses (the mutation
    /// landed inside a string or a number) or fails with a position that
    /// maps back into the mutated text.
    #[test]
    fn byte_corruption_errors_carry_valid_positions(
        value in json_strategy(2),
        pick in 0usize..1_000_000,
        replacement in 0usize..7,
    ) {
        let text = value.render();
        let positions: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        let at = positions[pick % positions.len()];
        let bad = ['#', '}', ']', ',', ':', '"', '\\'][replacement];
        let mut mutated = String::with_capacity(text.len());
        mutated.push_str(&text[..at]);
        mutated.push(bad);
        mutated.push_str(&text[at + text[at..].chars().next().unwrap().len_utf8()..]);
        if let Err(error) = Json::parse(&mutated) {
            let (line, column) = error_position(&error)
                .unwrap_or_else(|| panic!("error without position: {error}"));
            let lines: Vec<&str> = mutated.split('\n').collect();
            prop_assert!(line >= 1 && line <= lines.len(), "{error}");
            prop_assert!(column >= 1 && column <= lines[line - 1].chars().count() + 1, "{error}");
            // And the position is verifiable against line_col's own math:
            // some byte offset in the mutated text maps to it.
            let found = (0..=mutated.len()).any(|b| line_col(&mutated, b) == (line, column));
            prop_assert!(found, "{error} points outside the text");
        }
    }
}
