//! Small shared helpers: the seeded generator, order statistics, process
//! memory and the work fingerprint.

use std::path::Path;

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_0FC0_FFEE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of `values` (`0 < p <= 100`); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Work done by one pass, which must repeat exactly across passes and
/// runs: S-SYNC scheduler iterations, candidates scored and
/// fallback-routed gates, plus shuttles and SWAPs per compiler kind (in
/// `CompilerKind::ALL` order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub iterations: u64,
    pub candidates: u64,
    pub fallback_gates: u64,
    pub shuttles: [u64; 5],
    pub swaps: [u64; 5],
}

impl Fingerprint {
    pub fn render(&self) -> String {
        format!(
            "iterations={} candidates={} fallback_gates={} shuttles={:?} swaps={:?}",
            self.iterations, self.candidates, self.fallback_gates, self.shuttles, self.swaps
        )
    }
}

/// Compares `fingerprint` with the one an earlier run of the same binary
/// stored for this workload and seed, storing it on the first run.
pub fn check_against_earlier_runs(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    fingerprint: &Fingerprint,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let stamp = std::fs::metadata(&exe)
        .and_then(|m| m.modified())
        .map_err(|e| e.to_string())?
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| e.to_string())?
        .as_nanos();
    let path = out_dir.join(format!("fingerprint-{workload}-{seed}-{stamp}.txt"));
    let rendered = fingerprint.render();
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == rendered => Ok(()),
        Ok(earlier) => {
            Err(format!("fingerprint {rendered} differs from an earlier run's {earlier}"))
        }
        Err(_) => std::fs::write(&path, rendered).map_err(|e| e.to_string()),
    }
}
