//! Crash-safe files: the escaper, the writer and its torn-write hook,
//! the commit rule, and the recovery sequence shared by every line-oriented
//! file raceline keeps — the soak log (`sipsim::soak`), the warehouse log
//! (`raceline-warehouse`) and the explore checkpoint ([`crate::explore`]) —
//! and the one binary file, the warehouse's upload spool ([`RecordFile`]).
//! Those formats only say what their lines and records mean; how a file
//! survives a crash is decided here, once.
//!
//! **The commit rule** ([`committed`]): a line exists only if its
//! terminating newline was written, and a `warn` line is a body line that
//! counts only once a later line seals it. The logs write each block as
//! its `warn` lines followed by one commit line, so a block's commit line
//! is its last line and any torn prefix of a block is uncommitted.
//!
//! **Writes.** [`append`] adds one block with one write; a write that
//! fails part way (a full disk, an I/O error) is undone by cutting the
//! file back, so the next block never lands on a torn one. [`replace`] writes
//! the whole file as `<path>.tmp` in the same directory and renames it over
//! `path`, so a reader sees the old file or the new one, never a mix. File
//! headers, repair rewrites and checkpoint saves all go through `replace`.
//!
//! **Record files.** A [`RecordFile`] holds binary bodies that lines
//! cannot: each record is the head line `<head> <len>\n`, then `len` body
//! bytes, then `\n`. Records are appended with the same undo rule as
//! blocks, and a record exists only once its closing newline is written,
//! so [`RecordFile::recover`] cuts a torn tail back to the last whole
//! record. It reads the head lines and seeks past the bodies.
//!
//! **Durability.** Nothing here calls fsync. The guarantee is against a
//! killed process (kill -9 at any instant): [`recover`] reads the file back
//! to its committed prefix. A power loss can still drop or reorder writes
//! the kernel had not flushed to disk.
//!
//! **Crash hook.** With `RACELINE_TEST_TORN_WRITE=N` in the environment,
//! the Nth line (0-based) written through this module, counted
//! process-wide, is cut in half: the half is written and the process exits
//! 42 — a reproducible crash in the middle of a write for the resume tests.
//! Only line files count; records are not lines.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Escape backslashes, newlines and tabs, so any string fits in one field
/// of a tab-separated line.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`esc`].
pub fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// The committed prefix of `text`: everything through the last
/// newline-terminated line that is not a `warn` body line. Bytes, not
/// `str`, because a crash can cut a multi-byte character in half.
pub fn committed(text: &[u8]) -> &[u8] {
    let (mut pos, mut end) = (0, 0);
    for line in text.split_inclusive(|&b| b == b'\n') {
        pos += line.len();
        if line.ends_with(b"\n") && !line.starts_with(b"warn ") {
            end = pos;
        }
    }
    &text[..end]
}

/// Write `text` with one write, unless the torn-write hook's line falls
/// inside it: then write up to the middle of that line and exit 42.
fn write_text(w: &mut impl Write, text: &str) -> std::io::Result<()> {
    static LIMIT: OnceLock<Option<usize>> = OnceLock::new();
    static WRITTEN: AtomicUsize = AtomicUsize::new(0);
    let limit = *LIMIT.get_or_init(|| {
        std::env::var("RACELINE_TEST_TORN_WRITE").ok().and_then(|v| v.parse().ok())
    });
    if let Some(limit) = limit {
        let first = WRITTEN.fetch_add(text.split_inclusive('\n').count(), Ordering::Relaxed);
        let mut start = 0;
        for (i, line) in text.split_inclusive('\n').enumerate() {
            if first + i == limit {
                w.write_all(&text.as_bytes()[..start + line.len() / 2])?;
                w.flush()?;
                std::process::exit(42);
            }
            start += line.len();
        }
    }
    w.write_all(text.as_bytes())
}

/// Append `block` to the existing file at `path`. If the write fails
/// part way, the file is cut back to its old length.
pub fn append(path: impl AsRef<Path>, block: &str) -> std::io::Result<()> {
    let file = std::fs::OpenOptions::new().append(true).open(path)?;
    append_or_undo(&file, |w| write_text(w, block))
}

/// Run `write` on `file`; if it fails, cut the file back to the length it
/// had before, so what the failed write left is not the start of the next
/// block or record.
fn append_or_undo(
    file: &File,
    write: impl FnOnce(&mut &File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let len = file.metadata()?.len();
    write(&mut &*file).map_err(|e| match file.set_len(len) {
        Ok(()) => e,
        Err(undo) => std::io::Error::new(
            e.kind(),
            format!("{e}; cutting the torn block off failed too: {undo}"),
        ),
    })
}

/// Replace the file at `path` with `text` atomically: write `<path>.tmp`,
/// then rename it over `path`. A failed rename removes the temp file.
pub fn replace(path: impl AsRef<Path>, text: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    write_text(&mut File::create(&tmp)?, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Open an append-only line file. A missing file is created holding
/// `header`. An existing one is cut to its [`committed`] prefix, and that
/// prefix goes to `parse`, which parses strictly and may refuse it (a
/// mismatched spec, say); only an accepted prefix that dropped a torn tail
/// is written back. Returns the parsed state and whether the file was cut.
/// Errors name the path.
pub fn recover<T>(
    path: impl AsRef<Path>,
    header: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<(T, bool), String> {
    let path = path.as_ref();
    let at = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            replace(path, header).map_err(|e| at(&e))?;
            return Ok((parse(header).map_err(|e| at(&e))?, false));
        }
        Err(e) => return Err(at(&e)),
    };
    let kept = std::str::from_utf8(committed(&bytes)).map_err(|e| at(&e))?;
    let state = parse(kept).map_err(|e| at(&e))?;
    let cut = kept.len() < bytes.len();
    if cut {
        replace(path, kept).map_err(|e| at(&e))?;
    }
    Ok((state, cut))
}

/// The longest head line a [`RecordFile`] reads, newline included; a
/// longer one is not a record head.
const MAX_HEAD: usize = 4096;

/// One whole record of a [`RecordFile`]: its head (the head line without
/// its length) and where its body lies in the file.
#[derive(Debug)]
pub struct Record {
    pub head: String,
    body_at: u64,
    len: u64,
}

/// An append-only file of binary records (the module docs give the
/// layout), open for appending records and reading their bodies back.
pub struct RecordFile {
    file: File,
    path: PathBuf,
}

impl RecordFile {
    /// Open the record file at `path`, creating it empty if it is missing,
    /// and cut a torn tail back to the end of the last whole record. A head
    /// line without a length, or a body not closed by `\n`, is not a torn
    /// tail: the open is refused and the file left as it was. Returns the
    /// whole records in file order. Errors name the path.
    pub fn recover(path: impl AsRef<Path>) -> Result<(RecordFile, Vec<Record>), String> {
        let path = path.as_ref().to_path_buf();
        let at = |e: std::io::Error| format!("{}: {e}", path.display());
        let file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(at)?;
        let len = file.metadata().map_err(at)?.len();
        let (records, whole) = scan_records(&file, len).map_err(at)?;
        if whole < len {
            file.set_len(whole).map_err(at)?;
        }
        Ok((RecordFile { file, path }, records))
    }

    /// The body of `record`, one of this file's whole records.
    pub fn read(&self, record: &Record) -> std::io::Result<Vec<u8>> {
        let len = usize::try_from(record.len).map_err(|e| self.at(std::io::Error::other(e)))?;
        let mut body = vec![0; len];
        let mut f = &self.file;
        f.seek(SeekFrom::Start(record.body_at))
            .and_then(|_| f.read_exact(&mut body))
            .map_err(|e| self.at(e))?;
        Ok(body)
    }

    /// Append the record `head` + `body`, then run `then`, the commit the
    /// record belongs to. If the record's write or `then` fails, the file
    /// is cut back to its old length: a record stays only once its commit
    /// went through. `then`'s errors pass through as they are.
    pub fn append(
        &self,
        head: &str,
        body: &[u8],
        then: impl FnOnce() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        debug_assert!(!head.contains('\n'), "a record head is one line");
        let line = format!("{head} {}\n", body.len());
        append_or_undo(&self.file, |w| {
            w.write_all(line.as_bytes())
                .and_then(|()| w.write_all(body))
                .and_then(|()| w.write_all(b"\n"))
                .map_err(|e| self.at(e))?;
            then()
        })
    }

    fn at(&self, e: std::io::Error) -> std::io::Error {
        std::io::Error::new(e.kind(), format!("{}: {e}", self.path.display()))
    }
}

/// Walk the first `len` bytes of a record file: the whole records, and the
/// offset where they end (`len`, unless the tail is torn).
fn scan_records(file: &File, len: u64) -> std::io::Result<(Vec<Record>, u64)> {
    let corrupt = |pos: u64, what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("record at byte {pos}: {what}"),
        )
    };
    let mut r = BufReader::new(file);
    let (mut records, mut pos, mut line) = (Vec::new(), 0u64, Vec::new());
    while pos < len {
        line.clear();
        (&mut r).take(MAX_HEAD as u64).read_until(b'\n', &mut line)?;
        let Some(text) = line.strip_suffix(b"\n") else {
            if pos + line.len() as u64 == len {
                break; // a torn head line
            }
            return Err(corrupt(pos, "head line too long"));
        };
        let (head, body_len) = std::str::from_utf8(text)
            .ok()
            .and_then(|t| t.rsplit_once(' '))
            .and_then(|(head, n)| Some((head, n.parse::<u64>().ok()?)))
            .ok_or_else(|| corrupt(pos, "head line has no length"))?;
        let body_at = pos + line.len() as u64;
        let end = body_at.checked_add(body_len).and_then(|e| e.checked_add(1));
        let Some(end) = end.filter(|&end| end <= len) else {
            break; // a torn body
        };
        let skip = i64::try_from(body_len).map_err(|_| corrupt(pos, "body too long"))?;
        r.seek_relative(skip)?;
        let mut close = [0u8];
        r.read_exact(&mut close)?;
        if close != *b"\n" {
            return Err(corrupt(pos, "body not closed by a newline"));
        }
        records.push(Record { head: head.to_string(), body_at, len: body_len });
        pos = end;
    }
    Ok((records, pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_keeps_sealed_lines_only() {
        assert_eq!(committed(b""), b"");
        assert_eq!(committed(b"magic"), b"", "an unterminated line is not there");
        assert_eq!(committed(b"magic\nspec x\n"), b"magic\nspec x\n");
        assert_eq!(committed(b"h\nwarn 1\nwarn 2\n"), b"h\n", "unsealed body lines drop");
        assert_eq!(committed(b"h\nwarn 1\nphase 0\nwarn 2\nph"), b"h\nwarn 1\nphase 0\n");
        assert_eq!(committed(b"h\nsuppress 1\tRaceW"), b"h\n", "a torn single line drops");
        // A cut inside a multi-byte character is still a clean cut.
        let torn = "h\nwarn f\u{e9}";
        assert_eq!(committed(&torn.as_bytes()[..torn.len() - 1]), b"h\n");
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("commitlog_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn recover_creates_cuts_and_refuses() {
        let dir = scratch("recover");
        let path = dir.join("x.log");
        let lines = |t: &str| Ok::<usize, String>(t.lines().count());

        // Missing: created atomically, no temp file left behind.
        assert_eq!(recover(&path, "magic\n", lines).unwrap(), (1, false));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "magic\n");
        assert!(!dir.join("x.log.tmp").exists());

        // Torn tail: cut to the committed prefix and written back.
        append(&path, "warn a\ncommit 1\nwarn b\ncom").unwrap();
        assert_eq!(recover(&path, "magic\n", lines).unwrap(), (3, true));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "magic\nwarn a\ncommit 1\n");
        assert_eq!(recover(&path, "magic\n", lines).unwrap(), (3, false));

        // A refused prefix leaves the file exactly as it was.
        append(&path, "torn").unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = recover(&path, "magic\n", |_| Err::<(), _>("not mine".into())).unwrap_err();
        assert!(err.contains("x.log: not mine"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // A rename that fails (the target is a directory) leaves no temp.
        std::fs::create_dir(dir.join("d")).unwrap();
        assert!(replace(dir.join("d"), "magic\n").is_err());
        assert!(!dir.join("d.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write that fails mid-block (a disk filling up, say) leaves nothing
    /// for the next block to land on.
    #[test]
    fn a_failed_append_is_cut_back() {
        let dir = scratch("append");
        let path = dir.join("x.log");
        replace(&path, "magic\nwarn a\ncommit 1\n").unwrap();
        let file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        let err = append_or_undo(&file, |w| {
            w.write_all(b"warn b\ncom")?;
            Err(std::io::Error::other("no space left on device"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("no space left"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "magic\nwarn a\ncommit 1\n");

        append(&path, "warn b\ncommit 2\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "magic\nwarn a\ncommit 1\nwarn b\ncommit 2\n");
        assert_eq!(committed(text.as_bytes()), text.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn heads(records: &[Record]) -> Vec<&str> {
        records.iter().map(|r| r.head.as_str()).collect()
    }

    /// Bodies are bytes, newlines and all; a crash anywhere in the file
    /// reopens to the records it holds whole, and the torn rest is cut.
    #[test]
    fn record_file_reads_back_and_cuts_torn_tails() {
        let dir = scratch("records");
        let path = dir.join("x.spool");
        let (file, records) = RecordFile::recover(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), b"", "created empty");
        let bodies: [&[u8]; 3] = [b"one\ntwo\n", b"", &[0xFF, b'\n', 0, b' ']];
        for (i, body) in bodies.iter().enumerate() {
            file.append(&format!("rec {i}"), body, || Ok(())).unwrap();
        }
        drop(file);
        let whole = std::fs::read(&path).unwrap();
        assert_eq!(&whole[..17], b"rec 0 8\none\ntwo\n\n");

        let (file, records) = RecordFile::recover(&path).unwrap();
        assert_eq!(heads(&records), ["rec 0", "rec 1", "rec 2"]);
        for (record, body) in records.iter().zip(bodies) {
            assert_eq!(file.read(record).unwrap(), body);
        }
        drop(file);

        let ends = [17, 17 + 9, whole.len()];
        for cut in 0..=whole.len() {
            std::fs::write(&path, &whole[..cut]).unwrap();
            let (_, records) = RecordFile::recover(&path).unwrap();
            let n = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(records.len(), n, "cut at {cut}");
            let kept = if n == 0 { 0 } else { ends[n - 1] };
            assert_eq!(std::fs::read(&path).unwrap(), &whole[..kept], "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A record stays only when the commit it belongs to goes through.
    #[test]
    fn a_failed_commit_cuts_its_record_back() {
        let dir = scratch("record_commit");
        let path = dir.join("x.spool");
        let (file, _) = RecordFile::recover(&path).unwrap();
        file.append("kept", b"body", || Ok(())).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err =
            file.append("dropped", b"body", || Err(std::io::Error::other("log full"))).unwrap_err();
        assert_eq!(err.to_string(), "log full", "the commit's error passes through");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        file.append("next", b"", || Ok(())).unwrap();
        drop(file);
        assert_eq!(heads(&RecordFile::recover(&path).unwrap().1), ["kept", "next"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage a crash cannot cause is not a torn tail: the open is refused
    /// and the file left as it was.
    #[test]
    fn a_damaged_record_file_is_refused_untouched() {
        let dir = scratch("record_damage");
        let path = dir.join("x.spool");
        let long_head = format!("{} 0\n\n", "h".repeat(MAX_HEAD));
        for damaged in [&b"ok 1\na\nno length\nb\n"[..], b"ok 2\nab?", long_head.as_bytes()] {
            std::fs::write(&path, damaged).unwrap();
            let err = RecordFile::recover(&path).map(|_| ()).unwrap_err();
            assert!(err.starts_with(&format!("{}: record at byte", path.display())), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), damaged);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
