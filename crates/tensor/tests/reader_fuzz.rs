//! Byte-level robustness of the `.tns` and `.mtx` readers. Seeded
//! mutations of the checked-in fixtures and of generated files — bit
//! flips, truncation at every byte, inserted `\r`, `\0`, 0xFF and
//! U+00A0, 25-digit coordinates, `1e999`, `nan`, `-0.0` — must never
//! panic and must come back `Ok` or as a typed error, and every `Parse`
//! error must name a line of the input. Random tensors written in every
//! accepted form (tabs, CRLF, comments, `+` signs) must read back with
//! the same dims, coordinates and value bits.

use rand::prelude::*;
use spttn_tensor::{random_coo, read_mtx, read_tns, CooTensor, IoError};

const SMALL_TNS: &[u8] = include_bytes!("../../../tests/data/small.tns");
const SMALL_MTX: &[u8] = include_bytes!("../../../tests/data/small.mtx");

#[derive(Debug, Clone, Copy)]
enum Format {
    Tns,
    Mtx,
}

/// Read `input` and check the contract: no panic, and a `Parse` error
/// names a line that exists, in its message too.
fn read(format: Format, input: &[u8]) -> Result<CooTensor, IoError> {
    let res = std::panic::catch_unwind(|| match format {
        Format::Tns => read_tns(input, None),
        Format::Mtx => read_mtx(input),
    })
    .unwrap_or_else(|_| panic!("{format:?} reader panicked on {:?}", lossy(input)));
    if let Err(e @ IoError::Parse { line, .. }) = &res {
        let lines = input.split(|&b| b == b'\n').count() - usize::from(input.ends_with(b"\n"));
        assert!(
            (1..=lines).contains(line),
            "{format:?}: '{e}' names no line of {:?}",
            lossy(input)
        );
        assert!(e.to_string().starts_with(&format!("line {line}: ")), "{e}");
    }
    res
}

fn lossy(input: &[u8]) -> String {
    String::from_utf8_lossy(input).into_owned()
}

/// 1-based line of byte offset `at`.
fn line_of(input: &[u8], at: usize) -> usize {
    1 + input[..at].iter().filter(|&&b| b == b'\n').count()
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// A random tensor as text in the given format: values written with
/// `{v}`, the separators, line endings and comments drawn at random,
/// the entries in random order.
fn write(coo: &CooTensor, format: Format, rng: &mut StdRng) -> Vec<u8> {
    let seps = [" ", "\t", "  ", " \t"];
    let eol = ["\n", "\r\n"][rng.gen_range(0..2usize)];
    let mut out = String::new();
    match format {
        Format::Tns => out.push_str(&format!("# {} entries{eol}", coo.nnz())),
        Format::Mtx => {
            out.push_str(&format!(
                "%%MatrixMarket matrix coordinate real general{eol}"
            ));
            out.push_str(&format!("% a comment{eol}"));
            let d = coo.dims();
            out.push_str(&format!("{} {} {}{eol}", d[0], d[1], coo.nnz()));
        }
    }
    let mut order: Vec<usize> = (0..coo.nnz()).collect();
    shuffle(&mut order, rng);
    for e in order {
        for &c in coo.coord(e) {
            let plus = if rng.gen_range(0..8usize) == 0 {
                "+"
            } else {
                ""
            };
            out.push_str(&format!(
                "{plus}{}{}",
                c + 1,
                seps[rng.gen_range(0..seps.len())]
            ));
        }
        out.push_str(&format!("{}", coo.val(e)));
        if matches!(format, Format::Tns) && rng.gen_range(0..4usize) == 0 {
            out.push_str(" # trailing");
        }
        out.push_str(eol);
    }
    out.into_bytes()
}

fn same_bits(a: &CooTensor, b: &CooTensor) -> bool {
    a.dims() == b.dims()
        && a.coords() == b.coords()
        && a.vals()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.vals().iter().map(|v| v.to_bits()))
}

/// A random tensor whose values cover the awkward corners of `{v}`.
fn generated(dims: &[usize], nnz: usize, rng: &mut StdRng) -> CooTensor {
    let coo = random_coo(dims, nnz, rng).unwrap();
    let specials = [
        -0.0,
        1e300,
        -2.5e-308,
        5e-324,
        f64::INFINITY,
        0.1 + 0.2,
        1.0 / 3.0,
    ];
    let vals = coo
        .vals()
        .iter()
        .enumerate()
        .map(|(e, &v)| {
            if e % 5 == 0 {
                specials[e / 5 % specials.len()]
            } else {
                v
            }
        })
        .collect();
    coo.with_vals(vals)
}

#[test]
fn written_tensors_read_back_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x7e57);
    for round in 0..40 {
        let tns = generated(&[9, 4, 7], 60, &mut rng);
        let text = write(&tns, Format::Tns, &mut rng);
        let back = read_tns(&text[..], Some(tns.dims())).unwrap();
        assert!(same_bits(&back, &tns), "round {round}: {}", lossy(&text));
        // Inferred dims are the largest coordinates; the entries agree.
        let inferred = read(Format::Tns, &text).unwrap();
        assert_eq!(inferred.coords(), tns.coords());
        let mtx = generated(&[6, 11], 30, &mut rng);
        let text = write(&mtx, Format::Mtx, &mut rng);
        let back = read(Format::Mtx, &text).unwrap();
        assert!(same_bits(&back, &mtx), "round {round}: {}", lossy(&text));
    }
}

/// Inputs the mutations start from: both fixtures and a generated file
/// of each format.
fn seeds(rng: &mut StdRng) -> Vec<(Format, Vec<u8>)> {
    let tns = generated(&[5, 6, 4], 25, rng);
    let mtx = generated(&[7, 5], 12, rng);
    vec![
        (Format::Tns, SMALL_TNS.to_vec()),
        (Format::Mtx, SMALL_MTX.to_vec()),
        (Format::Tns, write(&tns, Format::Tns, rng)),
        (Format::Mtx, write(&mtx, Format::Mtx, rng)),
    ]
}

#[test]
fn truncation_at_every_byte_is_ok_or_a_typed_error() {
    for (format, input) in [(Format::Tns, SMALL_TNS), (Format::Mtx, SMALL_MTX)] {
        for cut in 0..=input.len() {
            let _ = read(format, &input[..cut]);
        }
    }
}

#[test]
fn bit_flips_are_ok_or_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0xb17);
    for (format, input) in seeds(&mut rng) {
        for _ in 0..400 {
            let mut bytes = input.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8usize);
            }
            let _ = read(format, &bytes);
        }
    }
}

#[test]
fn inserted_bytes_are_ok_or_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(0x1a5);
    let inserts: [&[u8]; 4] = [b"\r", b"\0", b"\xff", "\u{a0}".as_bytes()];
    for (format, input) in seeds(&mut rng) {
        for _ in 0..200 {
            let at = rng.gen_range(0..input.len() + 1);
            let insert = inserts[rng.gen_range(0..inserts.len())];
            let bytes = [&input[..at], insert, &input[at..]].concat();
            let res = read(format, &bytes);
            // Invalid UTF-8 is caught on its own line: every line before
            // it is untouched and valid.
            if insert == b"\xff" {
                let at_line = line_of(&bytes, at);
                match res {
                    Err(IoError::Parse { line, .. }) => assert_eq!(line, at_line),
                    other => panic!("0xFF on line {at_line} read as {other:?}"),
                }
            }
        }
    }
}

#[test]
fn unicode_whitespace_separates_fields_like_a_space() {
    let plain = read(Format::Tns, SMALL_TNS).unwrap();
    let text = lossy(SMALL_TNS)
        .replace(' ', "\u{a0}")
        .replace('\n', "\u{2028}\r\n");
    let nbsp = read(Format::Tns, text.as_bytes()).unwrap();
    assert!(same_bits(&plain, &nbsp));
}

#[test]
fn oversized_coordinates_and_special_values() {
    let mut rng = StdRng::seed_from_u64(0x25d);
    let coo = generated(&[4, 4, 4], 10, &mut rng);
    let text = lossy(&write(&coo, Format::Tns, &mut rng));
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for (k, line) in lines.iter().enumerate().skip(1) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let lineno = k + 1;
        // A 25-digit coordinate overflows usize: a bad coordinate, here.
        let long = line.replacen(fields[1], "1234567890123456789012345", 1);
        let input = [lines[..k].concat(), long, lines[k + 1..].concat()].concat();
        let e = read(Format::Tns, input.as_bytes()).unwrap_err();
        assert!(
            matches!(&e, IoError::Parse { line, message } if *line == lineno
                && message.starts_with("bad coordinate")),
            "{e}"
        );
        // Values str::parse accepts read as it reads them.
        for value in ["1e999", "nan", "-0.0", "-inf", "+1.5E-3"] {
            let swapped = line.replacen(fields[3], value, 1);
            let input = [lines[..k].concat(), swapped, lines[k + 1..].concat()].concat();
            let got = read(Format::Tns, input.as_bytes()).unwrap();
            let coord: Vec<usize> = fields[..3]
                .iter()
                .map(|f| f.trim_start_matches('+').parse::<usize>().unwrap() - 1)
                .collect();
            let e = (0..got.nnz()).find(|&e| got.coord(e) == coord).unwrap();
            let want: f64 = value.parse().unwrap();
            assert_eq!(got.val(e).to_bits(), want.to_bits(), "{value}");
        }
    }
}
