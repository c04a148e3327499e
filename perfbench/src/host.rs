//! Host facts stamped on every result: the calibration kernel, peak RSS,
//! core count, build profile and the identity of the code measured.

use std::path::Path;
use std::time::Instant;

/// Elements sorted by one calibration sample: 1.6 MB of `u64`, sized to
/// sit in the cache levels that neighbours on a shared host contend for.
const CALIB_LEN: usize = 200_000;

/// The reference host speed: end-to-end times are reported as if every
/// calibration sample had taken this long.
pub const CALIB_REF_MS: f64 = 5.0;

/// A fixed, seeded, cache-bound kernel timed between operations. Its time
/// moves with the host's speed, not with raceline.
pub struct Calibrator {
    input: Vec<u64>,
    scratch: Vec<u64>,
    /// Each sample: when it was taken (s since the window started) and
    /// its sort time (ms).
    pub samples: Vec<(f64, f64)>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut rng = vexec::SplitMix64::new(0xCA1B_2007);
        let input: Vec<u64> = (0..CALIB_LEN).map(|_| rng.next_u64()).collect();
        Calibrator { scratch: input.clone(), input, samples: Vec::new() }
    }

    /// Sort a fresh copy of the fixed input; records the sort time as
    /// taken at `at_s`.
    pub fn sample(&mut self, at_s: f64) {
        self.scratch.copy_from_slice(&self.input);
        let t = Instant::now();
        self.scratch.sort_unstable();
        let took = t.elapsed();
        std::hint::black_box(&self.scratch);
        self.samples.push((at_s, took.as_secs_f64() * 1e3));
    }
}

/// Median sort time of `samples`, ms.
pub fn calib_median(samples: &[(f64, f64)]) -> Option<f64> {
    crate::stats::median(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
}

/// The factor that converts wall time measured during a run to time at
/// the reference host speed: [`CALIB_REF_MS`] over the run's median
/// calibration sample. Set-up time is converted with it.
pub fn ref_factor(samples: &[(f64, f64)]) -> Result<f64, String> {
    let median = calib_median(samples).ok_or("no calibration samples")?;
    Ok(CALIB_REF_MS / median)
}

/// Calibration samples whose median converts one operation.
const LOCAL_SAMPLES: usize = 3;

/// The factor that converts the wall time of an operation run around
/// `t` (s since the window started) to the reference host speed:
/// [`CALIB_REF_MS`] over the median of the [`LOCAL_SAMPLES`] samples
/// nearest `t`. `samples` are in time order. The host's speed modes last
/// from a twentieth of a second to seconds, so the samples next to an
/// operation tell its mode better than the run's median does.
pub fn local_factor(samples: &[(f64, f64)], t: f64) -> Result<f64, String> {
    let mut lo = samples.partition_point(|s| s.0 < t);
    let mut hi = lo;
    while hi - lo < LOCAL_SAMPLES && (lo > 0 || hi < samples.len()) {
        let earlier = lo > 0 && (hi == samples.len() || t - samples[lo - 1].0 <= samples[hi].0 - t);
        if earlier {
            lo -= 1;
        } else {
            hi += 1;
        }
    }
    let median = calib_median(&samples[lo..hi]).ok_or("no calibration samples")?;
    Ok(CALIB_REF_MS / median)
}

/// An affinity mask: glibc's `cpu_set_t`, 1,024 bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    fn only(cpu: usize) -> Self {
        let mut m = [0; 16];
        m[cpu / 64] = 1 << (cpu % 64);
        CpuSet(m)
    }

    fn highest(&self) -> Option<usize> {
        (0..1024).rev().find(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; 16]) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
    }

    /// The calling thread's CPU set.
    pub fn get() -> Result<CpuSet, String> {
        let mut m = CpuSet([0; 16]);
        // SAFETY: `m.0` is a live, writable `cpu_set_t` of exactly the
        // size passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&m.0), &mut m.0) } != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(m)
    }

    /// Set the calling thread's CPU set; threads and processes it starts
    /// later inherit it.
    pub fn set(m: &CpuSet) -> Result<(), String> {
        // SAFETY: `m.0` is a live `cpu_set_t` of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&m.0), &m.0) } != 0 {
            return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuSet;

    pub fn get() -> Result<CpuSet, String> {
        Err("CPU affinity is implemented for Linux only".to_string())
    }

    pub fn set(_: &CpuSet) -> Result<(), String> {
        Err("CPU affinity is implemented for Linux only".to_string())
    }
}

/// The calling thread's CPU set before [`pin_to_one_cpu`] narrowed it.
static STARTED_ON: std::sync::OnceLock<CpuSet> = std::sync::OnceLock::new();

/// What [`pin_to_one_cpu`] did, for the stamp.
static PINNED: std::sync::OnceLock<String> = std::sync::OnceLock::new();

/// Pin the calling thread, and every thread and process it starts from
/// then on, to one CPU: the highest-numbered one it may run on. Returns
/// that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    nproc();
    let pinned = affinity::get().and_then(|all| {
        let cpu = all.highest().ok_or("the affinity mask is empty")?;
        affinity::set(&CpuSet::only(cpu))?;
        let _ = STARTED_ON.set(all);
        Ok(cpu)
    });
    let _ = PINNED.set(match &pinned {
        Ok(cpu) => format!("cpu {cpu}"),
        Err(e) => format!("unpinned: {e}"),
    });
    pinned
}

/// How this process is pinned, for the stamp.
pub fn pinned() -> &'static str {
    PINNED.get().map_or("unpinned", String::as_str)
}

/// Run `f` on a thread of its own that may use every CPU the process
/// started with, so threads `f` starts can spread over them.
pub fn on_all_cpus<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            if let Some(all) = STARTED_ON.get() {
                affinity::set(all).expect("return to the CPU set the process started with");
            }
            f()
        })
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPUs the process could run on when it first asked: taken before
/// [`pin_to_one_cpu`] narrows the set, so a pinned run still reports the
/// host's count.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git revision of the checkout at `root`, read from `.git` without
/// running git; `None` outside a git checkout.
pub fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(r).map(|rev| rev.trim().to_string()))
}

/// FNV-1a-64 over the relative path and bytes of every file under
/// `root/crates` and the root manifests, in sorted order: identifies the
/// measured code where no git revision is available.
pub fn source_digest(root: &Path) -> Result<String, String> {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    Ok(format!("{h:016x}"))
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let kind = entry.file_type().map_err(|e| format!("{}: {e}", path.display()))?;
        if kind.is_dir() {
            if entry.file_name() != "target" {
                collect_files(&path, out)?;
            }
        } else if kind.is_file() {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_time_scales_with_the_host() {
        // On a host twice as slow as the reference (median sample), 10 ms
        // of wall time is 5 ms at the reference speed.
        let slow =
            [(0.0, 2.0 * CALIB_REF_MS), (1.0, 1.5 * CALIB_REF_MS), (2.0, 9.0 * CALIB_REF_MS)];
        assert_eq!(10.0 * ref_factor(&slow).unwrap(), 5.0);
        assert_eq!(ref_factor(&[(0.0, CALIB_REF_MS)]).unwrap(), 1.0);
        assert!(ref_factor(&[]).is_err());
    }

    #[test]
    fn local_factor_takes_the_median_of_the_nearest_samples() {
        // Sort times 1..=5 ms taken at 0..=4 s; a fast spell (1 ms) at 4 s.
        let s: Vec<(f64, f64)> =
            [5.0, 4.0, 2.0, 3.0, 1.0].iter().enumerate().map(|(k, &ms)| (k as f64, ms)).collect();
        let at = |t: f64| CALIB_REF_MS / local_factor(&s, t).unwrap();
        // Nearest to 2.2 s: the samples at 2, 3 and 1 s (2, 3, 4 ms).
        assert_eq!(at(2.2), 3.0);
        // Nearest to 3.9 s: 4, 3 and 2 s (1, 3, 2 ms).
        assert_eq!(at(3.9), 2.0);
        // Before the first and after the last sample: the three at that end.
        assert_eq!(at(-1.0), 4.0);
        assert_eq!(at(9.0), 2.0);
        // Fewer samples than asked for: all of them.
        assert_eq!(CALIB_REF_MS / local_factor(&s[..2], 0.5).unwrap(), 4.5);
        assert!(local_factor(&[], 0.0).is_err());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_leaves_one_cpu_and_keeps_nproc() {
        // The harness runs each test on a thread of its own, and pinning
        // applies to the calling thread, so no other test is pinned.
        let before = nproc();
        let all = affinity::get().expect("read the test thread's CPU set");
        let cpu = pin_to_one_cpu().expect("pin the test thread");
        assert_eq!(all.highest(), Some(cpu));
        assert_eq!(affinity::get(), Ok(CpuSet::only(cpu)));
        assert_eq!(std::thread::available_parallelism().map(|n| n.get()).ok(), Some(1));
        assert_eq!(nproc(), before, "nproc keeps the count from before pinning");
        let spread = on_all_cpus(|| std::thread::available_parallelism().map(|n| n.get()).ok());
        assert_eq!(spread, Some(before), "on_all_cpus runs on every CPU the process started with");
        assert_eq!(affinity::get(), Ok(CpuSet::only(cpu)), "the caller stays pinned");
    }
}
