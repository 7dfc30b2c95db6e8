//! The benchmark's own arithmetic: order statistics, the percentile
//! reporting rule, streaming SI-SDR, self time by difference, and the
//! `/proc` readers behind `bench.cpu_s` and `peak_rss_mb`.

/// Fewest samples that must lie beyond a percentile before it is
/// reported: a p90 needs ≥100 samples, a p50 ≥20.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Whether percentile `p` (0–100) of `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples above it.
pub fn percentile_reportable(n: usize, p: f64) -> bool {
    n as f64 * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile `p` of `values`, or `None` unless the reporting rule holds.
pub fn reported_percentile(values: &[f64], p: f64) -> Option<f64> {
    if percentile_reportable(values.len(), p) {
        percentile(values, p)
    } else {
        None
    }
}

/// Median (mean of the two central values for even counts); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// SI-SDR of a long stream accumulated block by block, so a run never
/// holds a whole session's output: the same quantity as
/// [`dhf_metrics::si_sdr_db`] over the concatenated samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SiSdrAccumulator {
    ref_energy: f64,
    est_energy: f64,
    cross: f64,
    samples: u64,
}

impl SiSdrAccumulator {
    /// Adds aligned reference/estimate samples.
    pub fn add(&mut self, reference: &[f64], estimate: &[f64]) {
        assert_eq!(reference.len(), estimate.len(), "aligned slices");
        for (&r, &e) in reference.iter().zip(estimate) {
            self.ref_energy += r * r;
            self.est_energy += e * e;
            self.cross += r * e;
        }
        self.samples += reference.len() as u64;
    }

    /// Samples accumulated so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// SI-SDR in dB; `None` before any reference energy arrived.
    pub fn db(&self) -> Option<f64> {
        if self.ref_energy <= 0.0 {
            return None;
        }
        let alpha = self.cross / self.ref_energy;
        let target = alpha * alpha * self.ref_energy;
        let noise = (self.est_energy - 2.0 * alpha * self.cross + target).max(0.0);
        Some(10.0 * (target / noise).log10())
    }
}

/// A layer's self time, estimated by difference: its replay time on a
/// chunk minus the replay times of the child-layer calls it makes on the
/// same chunk. Negative when the children, replayed in isolation, ran
/// slower than inside the parent.
pub fn self_time(layer_s: f64, children_s: &[f64]) -> f64 {
    layer_s - children_s.iter().sum::<f64>()
}

/// Kernel clock ticks per second as exported by `/proc` (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
pub const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of a process from the text of
/// `/proc/<pid>/stat` (fields 14 and 15, counted after the parenthesised
/// command name, which may itself contain spaces).
pub fn parse_proc_stat_cpu_s(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // `after_comm` starts at field 3 (state), so utime/stime (fields 14/15)
    // sit at indices 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SEC)
}

/// Peak resident set size in KiB (`VmHWM`) from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// This process's CPU seconds so far.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_proc_stat_cpu_s(&stat).expect("parse /proc/self/stat")
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!percentile_reportable(99, 90.0));
        assert!(percentile_reportable(100, 90.0));
        assert!(!percentile_reportable(19, 50.0));
        assert!(percentile_reportable(20, 50.0));
        assert!(!percentile_reportable(999, 99.0));
        assert!(percentile_reportable(1000, 99.0));
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(reported_percentile(&v, 90.0), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reported_percentile(&v, 90.0), Some(90.0));
        assert_eq!(reported_percentile(&v, 50.0), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentile_and_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn streaming_si_sdr_matches_the_metrics_crate() {
        let reference: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.07).sin()).collect();
        let estimate: Vec<f64> = reference
            .iter()
            .enumerate()
            .map(|(i, &r)| 0.8 * r + 0.05 * (i as f64 * 1.3).cos())
            .collect();
        let mut acc = SiSdrAccumulator::default();
        for (r, e) in reference.chunks(777).zip(estimate.chunks(777)) {
            acc.add(r, e);
        }
        let direct = dhf_metrics::si_sdr_db(&reference, &estimate);
        assert!((acc.db().unwrap() - direct).abs() < 1e-9, "{:?} vs {direct}", acc.db());
        assert_eq!(acc.samples(), 5000);
        assert_eq!(SiSdrAccumulator::default().db(), None);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert!((self_time(1.0, &[0.25, 0.5]) - 0.25).abs() < 1e-12);
        assert_eq!(self_time(1.0, &[]), 1.0);
        assert!((self_time(0.5, &[0.3, 0.3]) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_parse_kernel_formats() {
        // A command name with spaces and parentheses must not shift fields.
        let stat = "4242 (my (odd) bench) S 1 4242 4242 0 -1 4194560 2000 0 0 0 \
                    250 75 0 0 20 0 3 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_proc_stat_cpu_s(stat), Some(3.25));
        assert_eq!(parse_proc_stat_cpu_s("garbage"), None);
        let status = "Name:\tbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        // The live readers agree with themselves on this process.
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
