//! Text readers for standard sparse-tensor interchange formats.
//!
//! Two formats cover the datasets the paper evaluates on and the wider
//! sparse-tensor ecosystem:
//!
//! - **FROSTT `.tns`** ([`read_tns`]): whitespace-separated lines of
//!   `c1 c2 ... cd value` with 1-based coordinates; `#` starts a
//!   comment. The mode count is taken from the first data line and the
//!   dimensions are either declared by the caller or inferred as the
//!   per-mode coordinate maxima.
//! - **MatrixMarket coordinate** ([`read_mtx`]): the `%%MatrixMarket
//!   matrix coordinate <field> <symmetry>` header, `%` comments, a
//!   `rows cols nnz` size line, then `i j [value]` entries. `real`,
//!   `integer`, and `pattern` fields are supported (pattern entries get
//!   value 1.0), with `general` or `symmetric` symmetry (symmetric
//!   off-diagonal entries are mirrored).
//!
//! Both readers stream from any [`BufRead`] one line at a time, as
//! bytes, through one reused buffer, and validate as they go; the whole
//! file is never held in memory. A `.tns` file read by path
//! ([`load_coo`], [`load_tns`]) is cut into line-aligned parts, one per
//! core and per `MIN_PART_BYTES` (4 MiB) of file, whichever is fewer,
//! and each part streams that way through the same line rule on a
//! thread of its own; the parts' entries are then joined in file order.
//! Parts only report success: if one fails, or two disagree on the mode
//! count, the file is read again in one part, so every error names its
//! line in the whole file, and every core count yields the same tensor,
//! bit for bit, or the same error. An all-ASCII line is split into fields
//! byte by byte; a line with any byte ≥ 0x80 must be UTF-8 (comment
//! included) and is split on Unicode whitespace, exactly as
//! [`str::split_whitespace`] does. Coordinates are parsed as integers
//! straight from the bytes (an optional `+`, then decimal digits, no
//! overflow); values go through [`str::parse::<f64>`], which is
//! correctly rounded. Entries land directly in the tensor's storage
//! (a later part's are appended to the first part's), and the readers
//! finish with the canonical ingest step the rest of the
//! stack expects: entries sorted lexicographically in natural mode order
//! with duplicate coordinates summed ([`CooTensor::sort_dedup`], a
//! single O(nnz) check when the file is already sorted). [`load_coo`]
//! dispatches on a file path's extension; [`load_tns`] reads a path as
//! `.tns` against declared dims.

use crate::{CooTensor, TensorError};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::path::Path;

/// Errors produced while reading a tensor from text.
#[derive(Debug)]
pub enum IoError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A line does not conform to the format (line number, message).
    Parse {
        /// 1-based line number the error was detected on.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The input as a whole does not conform, with no one line to
    /// blame: no entries at all, an empty MatrixMarket file or one
    /// without a size line, an entry count that disagrees with that
    /// line, or an unrecognized file extension.
    Format(String),
    /// The parsed entries failed tensor validation (mode count, shape).
    Tensor(TensorError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Format(message) => f.write_str(message),
            IoError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<TensorError> for IoError {
    fn from(e: TensorError) -> Self {
        IoError::Tensor(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Input lines as bytes, one at a time, through one reused buffer.
struct Lines<R> {
    reader: R,
    buf: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> Lines<R> {
    fn new(reader: R) -> Self {
        Lines {
            reader,
            buf: Vec::new(),
            lineno: 0,
        }
    }

    /// The next line's 1-based number and bytes without the `\n`
    /// (a `\r` before it is left for the field splitter, which treats
    /// it as whitespace); `None` at the end of the input.
    fn next_line(&mut self) -> Result<Option<(usize, &[u8])>, IoError> {
        self.buf.clear();
        if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
        }
        Ok(Some((self.lineno, &self.buf)))
    }
}

/// Split line `lineno` into the byte ranges of the whitespace-separated
/// fields [`str::split_whitespace`] yields for it, up to the first
/// `comment` character if one is given. An ASCII line is split in one
/// pass over its bytes; a line with any byte ≥ 0x80 must be UTF-8 as a
/// whole, comment included, and is split on Unicode whitespace.
fn split_fields(
    line: &[u8],
    comment: Option<u8>,
    lineno: usize,
    fields: &mut Vec<Range<usize>>,
) -> Result<(), IoError> {
    fields.clear();
    let ascii = line.iter().map(|&b| (b < 0x80).then_some(char::from(b)));
    if let Some(end) = push_fields(fields, line.len(), comment, ascii.enumerate()) {
        // The comment is not split, but must be ASCII too for this path.
        if line[end..].is_ascii() {
            return Ok(());
        }
    }
    fields.clear();
    let chars = utf8(line, lineno)?.char_indices();
    push_fields(
        fields,
        line.len(),
        comment,
        chars.map(|(i, c)| (i, Some(c))),
    );
    Ok(())
}

/// Line `lineno` as text, or the parse error that names it.
fn utf8(line: &[u8], lineno: usize) -> Result<&str, IoError> {
    std::str::from_utf8(line).map_err(|e| parse_err(lineno, format!("not valid UTF-8 ({e})")))
}

/// Push the byte ranges of the maximal runs of non-whitespace `chars`
/// (byte offset, character) before the first `comment`, for a line of
/// `len` bytes, and return where that data part ends. A `None`
/// character (a byte that is not ASCII) abandons the split.
fn push_fields(
    fields: &mut Vec<Range<usize>>,
    len: usize,
    comment: Option<u8>,
    chars: impl Iterator<Item = (usize, Option<char>)>,
) -> Option<usize> {
    let comment = comment.map(char::from);
    let mut start = None;
    for (i, c) in chars {
        let c = c?;
        if Some(c) == comment {
            if let Some(s) = start {
                fields.push(s..i);
            }
            return Some(i);
        }
        match (c.is_whitespace(), start) {
            (true, Some(s)) => {
                fields.push(s..i);
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        fields.push(s..len);
    }
    Some(len)
}

/// A field of line `lineno` as a non-negative integer, read the way
/// `str::parse::<usize>` reads it: an optional `+`, then one or more
/// decimal digits, with no overflow. `what` names the field in the error.
fn parse_index(field: &[u8], lineno: usize, what: &str) -> Result<usize, IoError> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    let n = digits.iter().try_fold(0usize, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(usize::from(d))
    });
    match n {
        Some(n) if !digits.is_empty() => Ok(n),
        _ => Err(bad(field, lineno, what)),
    }
}

fn parse_value(field: &[u8], lineno: usize) -> Result<f64, IoError> {
    let v = std::str::from_utf8(field).ok().and_then(|s| s.parse().ok());
    v.ok_or_else(|| bad(field, lineno, "value"))
}

fn bad(field: &[u8], lineno: usize, what: &str) -> IoError {
    let field = String::from_utf8_lossy(field);
    parse_err(lineno, format!("bad {what} '{field}'"))
}

/// Build the tensor from validated entries and run the canonical
/// sort/dedup ingest step.
fn finish(dims: Vec<usize>, coords: Vec<usize>, vals: Vec<f64>) -> Result<CooTensor, IoError> {
    if dims.contains(&0) {
        return Err(TensorError::ZeroDim.into());
    }
    let mut coo = CooTensor::from_validated(dims, coords, vals);
    let natural: Vec<usize> = (0..coo.order()).collect();
    coo.sort_dedup(&natural)?;
    Ok(coo)
}

/// Read a FROSTT `.tns` tensor: one `c1 ... cd value` entry per line,
/// 1-based coordinates, `#` comments and blank lines skipped.
///
/// The mode count comes from the first data line, which must match
/// declared dims; every later line must match it. `dims` declares the
/// dimensions (each entry is checked against them on its own line);
/// `None` infers each dimension as the largest coordinate seen in that
/// mode. Entries are sorted in natural mode order and duplicate
/// coordinates are summed on ingest.
///
/// An input with no data lines errors: a tensor's mode count cannot be
/// inferred from nothing (declare dims and build an empty
/// [`CooTensor`] directly if that is what you mean).
pub fn read_tns<R: BufRead>(reader: R, dims: Option<&[usize]>) -> Result<CooTensor, IoError> {
    TnsEntries::read(reader, dims)?.finish()
}

/// The entries of `.tns` lines in input order: the extents (declared
/// dims, or the largest 1-based coordinate seen per mode; empty before
/// the first data line), then the 0-based coordinates and the values.
#[derive(Default)]
struct TnsEntries {
    extents: Vec<usize>,
    coords: Vec<usize>,
    vals: Vec<f64>,
}

impl TnsEntries {
    /// Every line of `reader`, checked against `dims` line by line.
    fn read<R: BufRead>(reader: R, dims: Option<&[usize]>) -> Result<Self, IoError> {
        let mut lines = Lines::new(reader);
        let mut fields = Vec::new();
        let mut entries = TnsEntries::default();
        while let Some((lineno, line)) = lines.next_line()? {
            entries.push_line(line, lineno, dims, &mut fields)?;
        }
        Ok(entries)
    }

    /// Add line `lineno`'s entry, if it holds one: the one line rule of
    /// every `.tns` read. `fields` is scratch space.
    fn push_line(
        &mut self,
        line: &[u8],
        lineno: usize,
        dims: Option<&[usize]>,
        fields: &mut Vec<Range<usize>>,
    ) -> Result<(), IoError> {
        split_fields(line, Some(b'#'), lineno, fields)?;
        match fields.len() {
            0 => return Ok(()),
            // One field is all the line holds besides whitespace.
            1 => {
                let got = String::from_utf8_lossy(&line[fields[0].clone()]);
                return Err(parse_err(
                    lineno,
                    format!("expected 'c1 ... cd value', got '{got}'"),
                ));
            }
            _ => {}
        }
        let order = fields.len() - 1;
        if self.vals.is_empty() {
            self.extents = match dims {
                Some(d) if d.len() != order => {
                    return Err(parse_err(
                        lineno,
                        format!(
                            "entry has {order} coordinates, the declared dims have {}",
                            d.len()
                        ),
                    ))
                }
                Some(d) => d.to_vec(),
                None => vec![0; order],
            };
        } else if order != self.extents.len() {
            return Err(parse_err(
                lineno,
                format!(
                    "entry has {order} coordinates, previous entries have {}",
                    self.extents.len()
                ),
            ));
        }
        for (m, range) in fields[..order].iter().enumerate() {
            let c = parse_index(&line[range.clone()], lineno, "coordinate")?;
            if c == 0 {
                return Err(parse_err(lineno, "coordinates are 1-based; got 0"));
            }
            if dims.is_none() {
                self.extents[m] = self.extents[m].max(c);
            } else if c > self.extents[m] {
                return Err(parse_err(
                    lineno,
                    format!(
                        "coordinate {c} out of bounds for mode {m} of dimension {}",
                        self.extents[m]
                    ),
                ));
            }
            self.coords.push(c - 1);
        }
        self.vals
            .push(parse_value(&line[fields[order].clone()], lineno)?);
        Ok(())
    }

    /// Append the entries of the lines that follow these ones, or return
    /// `None` when the two disagree on the mode count. Extents merge as
    /// a per-mode max (declared dims are the same on both sides).
    fn append(mut self, next: TnsEntries) -> Option<Self> {
        if self.vals.is_empty() {
            return Some(next);
        }
        if next.vals.is_empty() {
            return Some(self);
        }
        if next.extents.len() != self.extents.len() {
            return None;
        }
        for (e, &n) in self.extents.iter_mut().zip(&next.extents) {
            *e = (*e).max(n);
        }
        self.coords.extend_from_slice(&next.coords);
        self.vals.extend_from_slice(&next.vals);
        Some(self)
    }

    fn finish(self) -> Result<CooTensor, IoError> {
        if self.vals.is_empty() {
            return Err(IoError::Format("no tensor entries in input".into()));
        }
        finish(self.extents, self.coords, self.vals)
    }
}

/// Read a MatrixMarket coordinate file as a 2-mode [`CooTensor`].
///
/// Supports the `matrix coordinate` object with `real`, `integer`, or
/// `pattern` fields (pattern entries get value 1.0) and `general` or
/// `symmetric` symmetry (symmetric entries below the diagonal are
/// mirrored). Coordinates are 1-based; the declared `rows cols` size
/// line fixes the dimensions, and the declared nonzero count must match
/// the number of entry lines. Duplicates are summed on ingest, matching
/// [`read_tns`].
pub fn read_mtx<R: BufRead>(reader: R) -> Result<CooTensor, IoError> {
    let mut lines = Lines::new(reader);

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    let Some((hline, header)) = lines.next_line()? else {
        return Err(IoError::Format("empty MatrixMarket file".into()));
    };
    let head: Vec<String> = utf8(header, hline)?
        .split_whitespace()
        .map(str::to_lowercase)
        .collect();
    if head.len() < 5 || head[0] != "%%matrixmarket" || head[1] != "matrix" {
        return Err(parse_err(
            hline,
            "expected '%%MatrixMarket matrix coordinate <field> <symmetry>' header",
        ));
    }
    if head[2] != "coordinate" {
        return Err(parse_err(
            hline,
            format!("unsupported storage '{}'; only 'coordinate' is", head[2]),
        ));
    }
    let pattern = match head[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(parse_err(
                hline,
                format!("unsupported field '{other}'; use real, integer, or pattern"),
            ))
        }
    };
    let symmetric = match head[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(parse_err(
                hline,
                format!("unsupported symmetry '{other}'; use general or symmetric"),
            ))
        }
    };

    // Size line: rows cols nnz (after % comments).
    let mut size: Option<(usize, usize, usize)> = None;
    let mut fields = Vec::new();
    let (mut coords, mut vals) = (Vec::new(), Vec::new());
    let mut seen = 0usize;
    while let Some((lineno, line)) = lines.next_line()? {
        split_fields(line, None, lineno, &mut fields)?;
        if fields.first().is_none_or(|f| line[f.start] == b'%') {
            continue;
        }
        let index = |k: usize, what| parse_index(&line[fields[k].clone()], lineno, what);
        match size {
            None => {
                if fields.len() != 3 {
                    return Err(parse_err(lineno, "expected size line 'rows cols nnz'"));
                }
                let what = "size field";
                size = Some((index(0, what)?, index(1, what)?, index(2, what)?));
            }
            Some((rows, cols, _)) => {
                let want = if pattern { 2 } else { 3 };
                if fields.len() != want {
                    return Err(parse_err(
                        lineno,
                        format!("expected {want} fields per entry, got {}", fields.len()),
                    ));
                }
                let i = index(0, "row index")?;
                let j = index(1, "column index")?;
                if i == 0 || j == 0 {
                    return Err(parse_err(lineno, "indices are 1-based; got 0"));
                }
                if i > rows || j > cols {
                    return Err(parse_err(
                        lineno,
                        format!("entry ({i}, {j}) outside declared {rows} x {cols}"),
                    ));
                }
                let v = if pattern {
                    1.0
                } else {
                    parse_value(&line[fields[2].clone()], lineno)?
                };
                coords.extend_from_slice(&[i - 1, j - 1]);
                vals.push(v);
                if symmetric && i != j {
                    coords.extend_from_slice(&[j - 1, i - 1]);
                    vals.push(v);
                }
                seen += 1;
            }
        }
    }
    let Some((rows, cols, declared_nnz)) = size else {
        return Err(IoError::Format("missing size line 'rows cols nnz'".into()));
    };
    if seen != declared_nnz {
        return Err(IoError::Format(format!(
            "size line declares {declared_nnz} entries, file has {seen}"
        )));
    }
    finish(vec![rows, cols], coords, vals)
}

/// Load a sparse tensor from a file path, dispatching on the extension:
/// `.tns` → [`load_tns`] (dimensions inferred), `.mtx` → [`read_mtx`].
pub fn load_coo(path: impl AsRef<Path>) -> Result<CooTensor, IoError> {
    let path = path.as_ref();
    let ext = path
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_lowercase);
    let file = File::open(path)?;
    match ext.as_deref() {
        Some("tns") => read_tns_file(path, file, None),
        Some("mtx") => read_mtx(BufReader::new(file)),
        _ => Err(IoError::Format(format!(
            "unrecognized tensor file extension in '{}'; expected .tns or .mtx",
            path.display()
        ))),
    }
}

/// Read the `.tns` file at `path`, whatever its extension, as
/// [`read_tns`] reads it, on up to every core (see the module doc).
pub fn load_tns(path: impl AsRef<Path>, dims: Option<&[usize]>) -> Result<CooTensor, IoError> {
    let path = path.as_ref();
    read_tns_file(path, File::open(path)?, dims)
}

/// The smallest share of a `.tns` file worth a thread of its own: a
/// file shorter than two of these is read in one part. A part costs a
/// thread with its own allocator arena and stack, and the append of its
/// entries; on files of a few MiB that cost about a sixteenth of the
/// peak memory of a run for a saving of a few milliseconds.
const MIN_PART_BYTES: u64 = 4 << 20;

/// Read `file`, opened at `path`, in one part per core and per
/// [`MIN_PART_BYTES`] of it, whichever is fewer.
fn read_tns_file(path: &Path, file: File, dims: Option<&[usize]>) -> Result<CooTensor, IoError> {
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let by_size = file.metadata()?.len() / MIN_PART_BYTES;
    let parts = usize::try_from(by_size).map_or(cores, |p| p.min(cores));
    read_tns_parts(path, file, dims, parts)
}

/// Read `file`, opened at `path`, as `parts` line-aligned byte ranges
/// parsed side by side, each through [`TnsEntries::read`] on a handle
/// of its own (part 0 on `file`, on the calling thread), then appended
/// in file order. The parts only report success: when one fails, or
/// two disagree on the mode count, the file is read again by
/// [`read_tns`], which names the error's line in the whole file.
fn read_tns_parts(
    path: &Path,
    mut file: File,
    dims: Option<&[usize]>,
    parts: usize,
) -> Result<CooTensor, IoError> {
    if parts > 1 {
        let seams = part_seams(&file, parts)?;
        let read = |mut part: &File, range: &[u64]| {
            part.seek(SeekFrom::Start(range[0]))?;
            TnsEntries::read(BufReader::new(part.take(range[1] - range[0])), dims)
        };
        let merged = std::thread::scope(|s| {
            let later: Vec<_> = seams[1..]
                .windows(2)
                .map(|range| s.spawn(move || read(&File::open(path)?, range)))
                .collect();
            let mut all = read(&file, &seams[..2]).ok()?;
            for part in later {
                let part = part.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                all = all.append(part.ok()?)?;
            }
            Some(all)
        });
        if let Some(entries) = merged {
            return entries.finish();
        }
        file.rewind()?;
    }
    read_tns(BufReader::new(file), dims)
}

/// The `parts + 1` offsets that cut `file` into line-aligned ranges:
/// 0, then for each `k` in `1..parts` the first line start at or past
/// `k / parts` of the file (a line longer than a part leaves the part
/// after it empty), then the file's length.
fn part_seams(file: &File, parts: usize) -> Result<Vec<u64>, IoError> {
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut seams = vec![0];
    let mut skipped = Vec::new();
    for k in 1..parts {
        let target = (u128::from(len) * k as u128 / parts as u128) as u64;
        let prev = seams[k - 1];
        let seam = if target <= prev {
            prev
        } else {
            // A line starts at `target` if the byte before it ends one.
            reader.seek(SeekFrom::Start(target - 1))?;
            skipped.clear();
            target - 1 + reader.read_until(b'\n', &mut skipped)? as u64
        };
        seams.push(seam);
    }
    seams.push(len);
    Ok(seams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn tns_basic_with_comments_and_dedup() {
        let text = "\
# FROSTT-style fixture
1 1 1 1.0
3 2 1 2.5   # trailing comment

1 1 1 0.5
2 3 4 -1.0
";
        let coo = read_tns(text.as_bytes(), None).unwrap();
        assert_eq!(coo.dims(), &[3, 3, 4]);
        assert_eq!(coo.nnz(), 3); // (1,1,1) duplicates merged
        assert_eq!(coo.to_dense().get(&[0, 0, 0]), 1.5);
        assert_eq!(coo.to_dense().get(&[2, 1, 0]), 2.5);
        assert_eq!(coo.to_dense().get(&[1, 2, 3]), -1.0);
        // Sorted in natural order on ingest.
        assert_eq!(coo.coord(0), &[0, 0, 0]);
        assert_eq!(coo.coord(1), &[1, 2, 3]);
    }

    #[test]
    fn tns_declared_dims_validated() {
        let text = "2 2 1.0\n";
        let coo = read_tns(text.as_bytes(), Some(&[5, 5])).unwrap();
        assert_eq!(coo.dims(), &[5, 5]);
        // Out of bounds: the line, and the coordinate as written.
        let e = read_tns("1 1 1.0\n2 2 1.0\n".as_bytes(), Some(&[1, 5])).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }), "{e}");
        assert_eq!(
            e.to_string(),
            "line 2: coordinate 2 out of bounds for mode 0 of dimension 1"
        );
        // A mode count the declared dims disagree with: the first data
        // line, and both counts.
        let e = read_tns("# c\n\n1 1 1.0\n".as_bytes(), Some(&[5, 5, 5])).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 3, .. }), "{e}");
        assert_eq!(
            e.to_string(),
            "line 3: entry has 2 coordinates, the declared dims have 3"
        );
        let e = read_tns("1 1 1 1.0\n".as_bytes(), Some(&[4, 4])).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 1: entry has 3 coordinates, the declared dims have 2"
        );
    }

    /// Inputs `tns_rejects_malformed` pins, each an error.
    const MALFORMED: [&[u8]; 8] = [
        // Zero coordinate (1-based format).
        b"0 1 1.0\n",
        // Ragged arity.
        b"1 1 1.0\n1 1 1 1.0\n",
        // Non-numeric value.
        b"1 1 x\n",
        // Lone field.
        b"7\n",
        // Empty input.
        b"# only comments\n",
        // A bad coordinate on line 2.
        b"1 1 1.0\n1 bad 2.0\n",
        // Invalid UTF-8 on line 2.
        b"1 1 1.0\n1 1 2.0 # \xff\n",
        // An overflowing coordinate.
        b"99999999999999999999999 1 1.0\n",
    ];

    #[test]
    fn tns_rejects_malformed() {
        for text in MALFORMED {
            assert!(read_tns(text, None).is_err());
        }
        // Empty input: mode count unknowable, and no line to blame.
        let e = read_tns("# only comments\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Format(_)), "{e}");
        assert_eq!(e.to_string(), "no tensor entries in input");
        // Error carries the offending line number.
        let e = read_tns("1 1 1.0\n1 bad 2.0\n".as_bytes(), None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }), "{e}");
        // Invalid UTF-8 is a parse error on its line, not an i/o error.
        let e = read_tns(&b"1 1 1.0\n1 1 2.0 # \xff\n"[..], None).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }), "{e}");
        // An overflowing coordinate is a bad coordinate.
        let e = read_tns("99999999999999999999999 1 1.0\n".as_bytes(), None).unwrap_err();
        assert!(e.to_string().contains("bad coordinate"), "{e}");
    }

    /// The accepted forms the byte-level splitter must keep: `+7`
    /// coordinates, tabs, CRLF, comments anywhere, and Unicode
    /// whitespace (which sends the line down the `str` path).
    #[test]
    fn tns_accepts_every_separator_form() {
        let text = "#c\r\n+1\t2 3.5#c\r\n\t2 \u{a0}1\u{2003}-0.5 \r\n\x0b1 1 +1e0\x0c\n2 1 1";
        let coo = read_tns(text.as_bytes(), None).unwrap();
        assert_eq!(coo.dims(), &[2, 2]);
        assert_eq!(coo.coords(), &[0, 0, 0, 1, 1, 0]);
        assert_eq!(coo.vals(), &[1.0, 3.5, 0.5]);
    }

    /// A file holding some bytes, removed on drop.
    struct TempTns(std::path::PathBuf);

    impl TempTns {
        fn new(text: &[u8]) -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("spttn-io-{}-{n}.tns", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, text).unwrap();
            TempTns(path)
        }

        fn open(&self) -> File {
            File::open(&self.0).unwrap()
        }
    }

    impl Drop for TempTns {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Read `text` from a file in k = 1..=5 parts and check that each
    /// read is serial `read_tns` on the same bytes: the same tensor,
    /// value bits included, or the same error string. Returns the
    /// interior seams of every k.
    fn parts_match_serial(text: &[u8], dims: Option<&[usize]>) -> Vec<u64> {
        let file = TempTns::new(text);
        let serial = read_tns(text, dims);
        let bits = |c: &CooTensor| c.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut seams = Vec::new();
        for k in 1..=5 {
            match (&serial, read_tns_parts(&file.0, file.open(), dims, k)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!((a.dims(), a.coords()), (b.dims(), b.coords()), "k = {k}");
                    assert_eq!(bits(a), bits(&b), "k = {k}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "k = {k}"),
                (a, b) => panic!("k = {k}: serial read {a:?}, {k} parts {b:?}"),
            }
            let all = part_seams(&file.open(), k).unwrap();
            seams.extend_from_slice(&all[1..k]);
        }
        seams
    }

    /// `n` 3-mode entries in every form the reader accepts, picked per
    /// line by a fixed LCG: tab, space and U+00A0 separators, LF and
    /// CRLF ends, `+` signs, trailing and whole-line comments, blank
    /// lines, three value notations and repeated coordinates.
    fn mixed_tns(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % m
        };
        let mut out = String::new();
        for _ in 0..n {
            match next(8) {
                0 => out += "# comment 1 2 3\n",
                1 => out += "\n",
                2 => out += " \t\r\n",
                _ => {}
            }
            let (sep, end) = match next(5) {
                0 => ("\t", "\r\n"),
                1 => (" \u{a0}", "\n"),
                2 => ("  ", " # note\n"),
                3 => (" ", "\r\n"),
                _ => (" ", "\n"),
            };
            let plus = if next(4) == 0 { "+" } else { "" };
            let c = [next(9) + 1, next(7) + 1, next(5) + 1];
            let v = (next(2001) as f64 - 1000.0) / 7.0;
            let v = match next(3) {
                0 => format!("{v}"),
                1 => format!("{v:e}"),
                _ if v >= 0.0 => format!("{plus}{v:.3}"),
                _ => format!("{v:.3}"),
            };
            out += &format!("{plus}{}{sep}{}{sep}{}{sep}{v}{end}", c[0], c[1], c[2]);
        }
        out.into_bytes()
    }

    #[test]
    fn tns_parts_read_every_accepted_form() {
        parts_match_serial(include_bytes!("../../../tests/data/small.tns"), None);
        for seed in 1..=6 {
            let text = mixed_tns(40 * seed as usize, seed);
            assert!(read_tns(&text[..], None).is_ok());
            parts_match_serial(&text, None);
            parts_match_serial(&text, Some(&[9, 7, 5]));
            // No newline at the end of the last line.
            let cut = text.trim_ascii_end();
            parts_match_serial(cut, None);
        }
    }

    #[test]
    fn tns_parts_with_fewer_lines_than_parts() {
        for text in [
            "",
            "\n",
            "# c\n\n",
            "1 1 1.0\n",
            "1 1 1.0\n2 2 2.0",
            "\r\n3 1 -2\r\n",
        ] {
            parts_match_serial(text.as_bytes(), None);
        }
    }

    /// A comment, a blank line or a CRLF line moved through every place
    /// of a small file: some read must cut the file at its start.
    #[test]
    fn tns_parts_seams_on_every_line_kind() {
        let data = "1 2 3 0.5\n";
        for special in ["# 1 2 3 4\n", "\n", " \t\n", "2 1 3 -1.5\r\n", "\r\n"] {
            let mut cut_there = false;
            for at in 0..=6 {
                let text = data.repeat(at) + special + &data.repeat(6 - at);
                let seams = parts_match_serial(text.as_bytes(), None);
                cut_there |= seams.contains(&((data.len() * at) as u64));
            }
            assert!(cut_there, "no seam on {special:?}");
        }
    }

    /// A bad line in the last part is named by its line in the whole
    /// file, and a mode count two parts disagree on is the serial error.
    #[test]
    fn tns_parts_errors_are_the_serial_errors() {
        let good = "1 2 0.25\n".repeat(40);
        for (bad, dims, message) in [
            (
                "1 1 1 1.0\n",
                None,
                "line 41: entry has 3 coordinates, previous entries have 2",
            ),
            ("0 1 1.0\n", None, "line 41: coordinates are 1-based; got 0"),
            ("1 1 x\n", None, "line 41: bad value 'x'"),
            (
                "9 1 1.0\n",
                Some(&[8, 8][..]),
                "line 41: coordinate 9 out of bounds for mode 0 of dimension 8",
            ),
        ] {
            let text = good.clone() + bad;
            assert_eq!(
                read_tns(text.as_bytes(), dims).unwrap_err().to_string(),
                message
            );
            parts_match_serial(text.as_bytes(), dims);
        }
        // Two halves, each consistent, of different mode counts.
        let text = "1 2 0.25\n".repeat(20) + &"1 2 3 0.25\n".repeat(20);
        parts_match_serial(text.as_bytes(), None);
        parts_match_serial(text.as_bytes(), Some(&[3, 3]));
        for text in MALFORMED {
            parts_match_serial(text, None);
        }
    }

    /// A file of more than two parts' worth goes through `load_coo` as
    /// it reads through `read_tns`.
    #[test]
    fn load_coo_reads_a_large_file_as_read_tns_does() {
        let text = mixed_tns(330_000, 7);
        assert!(text.len() as u64 > 2 * MIN_PART_BYTES);
        let file = TempTns::new(&text);
        let serial = read_tns(&text[..], None).unwrap();
        let loaded = load_coo(&file.0).unwrap();
        assert_eq!(serial, loaded);
        let declared = load_tns(&file.0, Some(&[9, 7, 5])).unwrap();
        assert_eq!(serial, declared);
    }

    #[test]
    fn mtx_general_real() {
        let text = "\
%%MatrixMarket matrix coordinate real general
% comment
3 4 3
1 1 2.0
3 4 -1.5
2 2 4.0
";
        let coo = read_mtx(text.as_bytes()).unwrap();
        assert_eq!(coo.dims(), &[3, 4]);
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.to_dense().get(&[2, 3]), -1.5);
    }

    #[test]
    fn mtx_symmetric_and_pattern() {
        let text = "\
%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
";
        let coo = read_mtx(text.as_bytes()).unwrap();
        // (2,1) mirrors to (1,2); diagonal (3,3) does not.
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.to_dense().get(&[1, 0]), 1.0);
        assert_eq!(coo.to_dense().get(&[0, 1]), 1.0);
        assert_eq!(coo.to_dense().get(&[2, 2]), 1.0);
    }

    #[test]
    fn mtx_rejects_malformed() {
        // Missing header.
        assert!(read_mtx("3 3 1\n1 1 2.0\n".as_bytes()).is_err());
        // Unsupported field.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 2 3\n".as_bytes()
        )
        .is_err());
        // nnz mismatch: about the whole file, so no line.
        let e =
            read_mtx("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n".as_bytes())
                .unwrap_err();
        assert_eq!(e.to_string(), "size line declares 2 entries, file has 1");
        // Missing size line.
        let e = read_mtx("%%MatrixMarket matrix coordinate real general\n% c\n".as_bytes())
            .unwrap_err();
        assert!(matches!(e, IoError::Format(_)), "{e}");
        // Out-of-bounds entry.
        assert!(read_mtx(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n".as_bytes()
        )
        .is_err());
        // Array storage unsupported.
        assert!(
            read_mtx("%%MatrixMarket matrix array real general\n2 2\n1.0\n".as_bytes()).is_err()
        );
    }
}
