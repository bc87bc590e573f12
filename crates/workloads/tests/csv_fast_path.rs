//! Differential test of the CSV reader's two paths.
//!
//! `CsvReader` decodes plain `time,count[,spread]` rows in place out of
//! its input buffer and hands every other line to the general
//! `read_line` + `parse_line` path. A 1-byte `BufReader` never holds a
//! complete row together with its newline (a bare `\n` is the only
//! line that fits, and the fast path rejects it), so reading through
//! one runs the general path alone: that is the reference. At buffer
//! capacities 7, 64 and 8192 — rows straddling the buffer end at every
//! offset — the mixed reader must yield the same batch bits and fail
//! with the same line number and message.

use std::io::BufReader;
use std::path::{Path, PathBuf};
use vmprov_check::Gen;
use vmprov_des::{stable_hash64, SimTime};
use vmprov_workloads::{
    generate_piecewise_csv, ArrivalBatch, CsvReader, DatasetError, DatasetReader, TraceSpec,
};

/// Buffer capacities of the fast reader under test.
const CAPACITIES: [usize; 3] = [7, 64, 8192];

/// Every batch as raw bits (so `-0.0` and `0.0` differ), plus the error
/// that ended the stream, if any.
type Decoded = (Vec<(u64, u64, u64)>, Option<DatasetError>);

fn bits(b: &ArrivalBatch) -> (u64, u64, u64) {
    (b.time.as_secs().to_bits(), b.count, b.spread.to_bits())
}

/// Drains `bytes` through a reader over a `cap`-byte buffer, 5 batches
/// per chunk so chunk ends fall mid-buffer too.
fn decode(bytes: &[u8], cap: usize) -> Decoded {
    let mut reader = CsvReader::new(BufReader::with_capacity(cap, bytes));
    let mut out = Vec::new();
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        match reader.read_chunk(&mut chunk, 5) {
            Ok(0) => return (out, None),
            Ok(n) => {
                assert!(n <= 5, "reader overfilled the chunk");
                out.extend(chunk.iter().map(bits));
            }
            Err(e) => {
                out.extend(chunk.iter().map(bits));
                return (out, Some(e));
            }
        }
    }
}

/// Asserts the fast reader matches the general path on `bytes`.
fn assert_paths_agree(bytes: &[u8]) -> Decoded {
    let reference = decode(bytes, 1);
    for cap in CAPACITIES {
        assert_eq!(
            decode(bytes, cap),
            reference,
            "capacity {cap} diverged from the general path on {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
    reference
}

fn tmp(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn generated_traces_decode_identically() {
    // Shortest round-trip floats exactly as the trace generator writes
    // them, across a rate step.
    let mut csv = Vec::new();
    let gen = generate_piecewise_csv(
        &mut csv,
        &[(0.0, 40.0), (50.0, 400.0)],
        SimTime::from_secs(100.0),
        5,
    )
    .unwrap();
    let (batches, err) = assert_paths_agree(&csv);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(batches.len() as u64, gen.rows);
    // Without the final newline, too.
    let (cut, err) = assert_paths_agree(&csv[..csv.len() - 1]);
    assert!(err.is_none(), "{err:?}");
    assert_eq!(cut, batches);
}

#[test]
fn edge_spellings_decode_identically() {
    // (row, accepted) — each row follows a `0,1,0` row so order holds.
    let rows: &[(&str, bool)] = &[
        // Exponents, leading zeros, 17+ digits, integers.
        ("1e3,1,0", true),
        ("1.5E-2,1,2e+1", true),
        ("0007.25,0003,00.5", true),
        ("123456.78901234567890123,1,0", true),
        ("9007199254740993,1,0", true),
        ("9007199254740992,1,0", true),
        ("0.1000000000000000055511151231257827,1,0", true),
        ("12345678901234567890123,18446744073709551615,0", true),
        ("1,12345678901234567890,0", true),
        ("1,1234567890123456789,0", true),
        ("1e-400,1,0", true),
        // Signs, bare points, special values.
        ("+1,+1,+0", true),
        (".5,1,.5", true),
        ("1.,1,1.", true),
        ("-0,1,-0", true),
        ("-0.0,1,0", true),
        ("inf,1,0", false),
        ("1,1,inf", false),
        ("nan,1,0", false),
        ("1,1,NaN", false),
        ("infinity,1,0", false),
        ("1e400,1,0", false),
        ("-1,1,0", false),
        ("1,1,-1", false),
        ("1,-1,0", false),
        ("1,18446744073709551616,0", false),
        ("1,1.0,0", false),
        ("1,1e2,0", false),
        (".,1,0", false),
        ("1..2,1,0", false),
        // Whitespace, line endings, empty fields, field counts.
        (" 1,1,0", true),
        ("1 ,1,0", true),
        ("1,\t1,0", true),
        ("1,1,0\r", true),
        ("1\r,1,0", true),
        ("1,1\r,0", true),
        ("1,1\r", true),
        ("1,1,0 ", true),
        ("1, 1 , 0 ", true),
        ("1 2,1,0", false),
        (",1,0", false),
        ("1,,0", false),
        ("1,1,", false),
        ("1", false),
        ("1,1", true),
        ("1,1,0,7", true),
        ("1,1,0,", true),
        ("1,1,0,7,8", true),
        // Skipped lines.
        ("", true),
        ("   ", true),
        ("time,count,spread", true),
        ("timestamp,x", true),
        ("# comment, with, commas", true),
        // Non-ASCII bytes.
        ("1,1,0é", false),
        ("1é,1,0", false),
        ("1,\u{a0}1,0", true),
    ];
    for &(row, accepted) in rows {
        for ending in ["\n", "\r\n", ""] {
            let input = format!("0,1,0\n{row}{ending}");
            let (_, err) = assert_paths_agree(input.as_bytes());
            assert_eq!(err.is_none(), accepted, "{input:?}: {err:?}");
            if let Some(e) = err {
                assert_eq!(e.line, Some(2), "{input:?}: {e}");
            }
        }
    }
    // Invalid UTF-8 is a read error on the general path either way.
    let (_, err) = assert_paths_agree(b"0,1,0\n1,1,\xff\n");
    assert_eq!(err.map(|e| e.line), Some(Some(2)));
}

#[test]
fn out_of_order_and_late_errors_keep_their_line() {
    let input = "time,count,spread\n0.5,1,0\n2.25,2,0\n1.75,1,0\n3,1,0\n";
    let (batches, err) = assert_paths_agree(input.as_bytes());
    assert_eq!(batches.len(), 2);
    let err = err.expect("out-of-order row must fail");
    assert_eq!(err.line, Some(4));
    assert!(err.msg.contains("out-of-order"), "{err}");
    // Equal timestamps are in order.
    let (batches, err) = assert_paths_agree(b"1,1,0\n1,2,0\n1,3,0");
    assert!(err.is_none());
    assert_eq!(batches.len(), 3);
}

/// One random time spelling of `t` (every spelling parses to `t` or to
/// a neighbour, which at worst turns the row into an order error).
fn spell_time(g: &mut Gen, t: f64) -> String {
    match g.usize_in(0..8) {
        0 => format!("{t:e}"),
        1 => format!("000{t}"),
        2 => format!("{t:.20}"),
        3 => format!("+{t}"),
        4 => format!("{}", t.trunc()),
        _ => format!("{t}"),
    }
}

/// A random row over the reader's whole input grammar, mostly plain and
/// valid (an invalid row ends the stream, so those stay rare).
fn random_row(g: &mut Gen, t: &mut f64) -> String {
    *t += g.f64_in(0.0..2.0);
    let mut time = spell_time(g, *t);
    let mut count = match g.usize_in(0..40) {
        0 => "+1".to_string(),
        1 => "007".to_string(),
        2 => "18446744073709551615".to_string(),
        3 => "18446744073709551616".to_string(),
        4 => String::new(),
        5 => "1.0".to_string(),
        _ => g.usize_in(0..100).to_string(),
    };
    let spread = match g.usize_in(0..40) {
        0..=7 => None,
        8..=15 => Some(format!("{}", g.f64_in(0.0..100.0))),
        16 => Some("inf".to_string()),
        17 => Some("-0".to_string()),
        18 => Some(".5".to_string()),
        19 => Some(String::new()),
        _ => Some("0".to_string()),
    };
    if g.chance(0.02) {
        time = g
            .choose(&["inf", "nan", "-0", "1.", ".5", "-1", "abc", ""])
            .to_string();
    }
    if g.chance(0.03) {
        count = format!(" {count}\t");
    }
    let mut row = time;
    row.push(',');
    row.push_str(&count);
    if let Some(s) = spread {
        row.push(',');
        row.push_str(&s);
    }
    match g.usize_in(0..60) {
        0 => row.push_str(",extra"),
        1 => row.push('\u{e9}'),
        2 => row = String::new(),
        3 => row = "# comment".to_string(),
        4 => row.push('\r'),
        5 => row = format!(" {row}"),
        _ => {}
    }
    row
}

#[test]
fn random_rows_decode_identically() {
    vmprov_check::cases(300, |g| {
        let mut t = 0.0;
        let mut input = String::new();
        if g.chance(0.5) {
            input.push_str("time,count,spread\n");
        }
        for _ in 0..g.usize_in(1..40) {
            input.push_str(&random_row(g, &mut t));
            input.push('\n');
        }
        if g.chance(0.5) {
            input.pop(); // final row without its newline
        }
        assert_paths_agree(input.as_bytes());
    });
}

#[test]
fn scan_hash_is_the_hash_of_the_file_bytes() {
    let mut csv = Vec::new();
    generate_piecewise_csv(
        &mut csv,
        &[(0.0, 30.0), (40.0, 90.0)],
        SimTime::from_secs(80.0),
        17,
    )
    .unwrap();
    // Append rows only the general path reads, so both paths feed the
    // hash.
    csv.extend_from_slice(b"# tail comment\n 100, 2 ,0\r\n101,1");
    let path = tmp("csv_fast_path_hash.csv");
    std::fs::write(&path, &csv).unwrap();
    for chunk in [1usize, 7, 4096] {
        let spec = TraceSpec::scan(&path, chunk).unwrap();
        assert_eq!(spec.content_hash, stable_hash64(&csv), "chunk {chunk}");
        assert_eq!(spec.end_time.as_secs(), 101.0);
    }
    let _ = std::fs::remove_file(&path);
}
