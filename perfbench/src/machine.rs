//! Facts about the machine a result was measured on, the process's
//! peak memory, and the memory-bandwidth probe that gives
//! `qsim.achieved_gbps` a same-run roofline.

use std::path::Path;
use std::time::Instant;

/// Largest array the bandwidth probe allocates, whatever the LLC.
const PROBE_MAX_BYTES: u64 = 2 << 30;

/// Array size when the LLC size cannot be read.
const PROBE_FALLBACK_BYTES: u64 = 256 << 20;

/// Timed passes of the probe; the best one is reported.
const PROBE_PASSES: usize = 3;

/// What every result line reports about where it ran.
pub struct Facts {
    pub nproc: usize,
    pub batch_workers: usize,
    pub qsim_workers: usize,
    pub qsim_workers_env: String,
    pub llc_bytes: Option<u64>,
    pub jobs_fs_type: String,
}

impl Facts {
    /// Gathers the facts; `work_dir` is where job files are written.
    pub fn gather(batch_workers: usize, work_dir: &Path) -> Facts {
        Facts {
            nproc: nproc(),
            batch_workers,
            qsim_workers: qsim::statevector::resolved_workers(),
            qsim_workers_env: std::env::var("QSIM_WORKERS").unwrap_or_default(),
            llc_bytes: llc_bytes(),
            jobs_fs_type: fs_type(work_dir).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One flat JSON object, with the probe sizes when one ran.
    pub fn to_json(&self, probe: Option<&Bandwidth>) -> String {
        let mut o = qobs::json::Obj::new("facts");
        o.field_u64("nproc", self.nproc as u64);
        o.field_u64("batch_workers", self.batch_workers as u64);
        o.field_u64("qsim_workers", self.qsim_workers as u64);
        o.field_str("QSIM_WORKERS", &self.qsim_workers_env);
        o.field_u64("llc_bytes", self.llc_bytes.unwrap_or(0));
        o.field_str("jobs_fs_type", &self.jobs_fs_type);
        o.field_str("rustc", env!("PERFBENCH_RUSTC"));
        o.field_str("git_commit", env!("PERFBENCH_GIT_COMMIT"));
        if let Some(p) = probe {
            o.field_u64("probe_array_bytes", p.array_bytes);
            o.field_u64("probe_threads", p.threads as u64);
            o.field_f64("probe_gbps", p.gbps);
        }
        o.finish()
    }
}

/// CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of the highest-level cache CPU 0 reports.
fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u32, u64)> = None;
    for entry in dir.flatten() {
        let path = entry.path();
        let read = |name: &str| std::fs::read_to_string(path.join(name)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_cache_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Parses sysfs cache sizes such as `32K`, `2048K` or `300M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split_whitespace().nth(4)?;
        let fs = right.split_whitespace().next()?;
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() > *len)
        {
            best = Some((mount_point.len(), fs.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// Result of the memory-bandwidth probe.
pub struct Bandwidth {
    /// Bytes of the probed array.
    pub array_bytes: u64,
    /// Threads streaming it (the qsim worker count).
    pub threads: usize,
    /// Best read-plus-write rate over the timed passes, GB/s.
    pub gbps: f64,
}

/// Streams an in-place read-modify-write over an array of at least
/// four LLCs (capped at [`PROBE_MAX_BYTES`]) on `threads` threads — the
/// access pattern of a qsim kernel pass — and reports the best pass.
pub fn bandwidth_probe(threads: usize) -> Bandwidth {
    let array_bytes = llc_bytes()
        .map_or(PROBE_FALLBACK_BYTES, |llc| llc.saturating_mul(4))
        .min(PROBE_MAX_BYTES);
    let len = usize::try_from(array_bytes / 8).expect("probe array fits in memory");
    let threads = threads.max(1);
    let mut data = vec![1.0f64; len];
    let chunk = len.div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_PASSES {
        let started = Instant::now();
        std::thread::scope(|s| {
            for part in data.chunks_mut(chunk) {
                s.spawn(move || {
                    for x in part.iter_mut() {
                        *x = *x * 0.999_999 + 1e-9;
                    }
                });
            }
        });
        best = best.min(started.elapsed().as_secs_f64());
    }
    std::hint::black_box(&data);
    Bandwidth {
        array_bytes: len as u64 * 8,
        threads,
        gbps: 2.0 * (len as f64 * 8.0) / best / 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("32K"), Some(32 << 10));
        assert_eq!(parse_cache_size("300M"), Some(300 << 20));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("K"), None);
    }
}
