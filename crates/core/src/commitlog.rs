//! Crash-safe line files: the escaper, the writer and its torn-write hook,
//! the commit rule, and the recovery sequence shared by every line-oriented
//! file raceline keeps — the soak log (`sipsim::soak`), the warehouse log
//! (`raceline-warehouse`) and the explore checkpoint ([`crate::explore`]).
//! Those formats only say what their lines mean; how a line file survives
//! a crash is decided here, once.
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
//! **Durability.** Nothing here calls fsync. The guarantee is against a
//! killed process (kill -9 at any instant): [`recover`] reads the file back
//! to its committed prefix. A power loss can still drop or reorder writes
//! the kernel had not flushed to disk.
//!
//! **Crash hook.** With `RACELINE_TEST_TORN_WRITE=N` in the environment,
//! the Nth line (0-based) written through this module, counted
//! process-wide, is cut in half: the half is written and the process exits
//! 42 — a reproducible crash in the middle of a write for the resume tests.

use std::fs::File;
use std::io::Write;
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
/// block.
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
}
