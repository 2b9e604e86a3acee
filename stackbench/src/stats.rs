//! Order statistics, `/proc` readers and the host fingerprint.

/// Linear-interpolated percentile (`p` in 0..=100) of `sorted`.
pub fn percentile_sorted<T: Copy + Into<f64>>(sorted: &[T], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi): (f64, f64) = (
                sorted[rank.floor() as usize].into(),
                sorted[rank.ceil() as usize].into(),
            );
            lo + (hi - lo) * rank.fract()
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_unstable_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values.to_vec()), 50.0)
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = percentile_sorted(&s, 50.0);
    if mid == 0.0 {
        0.0
    } else {
        (percentile_sorted(&s, 75.0) - percentile_sorted(&s, 25.0)) / mid
    }
}

/// Percentile of latency samples, kept as 32-bit floats (nanoseconds
/// are exact up to 16 ms, and a window of millions stays small).
pub fn percentile_f32(samples: &mut [f32], p: f64) -> f64 {
    samples.sort_unstable_by(f32::total_cmp);
    percentile_sorted(samples, p)
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// 100 on every Linux ABI).
const USER_HZ: u64 = 100;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time this process (all threads) has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0, |ticks| ticks * (1_000_000_000 / USER_HZ))
}

/// The value of a `Key:   value unit` line of a `/proc` text file.
fn proc_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// Resident set size in MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            proc_field(&s, "VmRSS")?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the numbers were measured on; results from hosts that differ
/// here are not comparable.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

impl Host {
    pub fn read() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: proc_field(&cpuinfo, "model name\t")
                .unwrap_or("unknown")
                .to_string(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank-free oracle: interpolate by hand on a sorted copy.
    #[test]
    fn percentiles_match_a_sorted_oracle() {
        let values: Vec<f64> = (0..1001).map(|i| ((i * 7919) % 1001) as f64).collect();
        let s = sorted(values.clone());
        assert_eq!(s, (0..1001).map(f64::from).collect::<Vec<_>>());
        assert_eq!(percentile_sorted(&s, 0.0), 0.0);
        assert_eq!(percentile_sorted(&s, 50.0), 500.0);
        assert_eq!(percentile_sorted(&s, 99.0), 990.0);
        assert_eq!(percentile_sorted(&s, 100.0), 1000.0);
        assert_eq!(median(&values), 500.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile_sorted::<f64>(&[], 50.0), 0.0);
        let mut f: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        assert_eq!(percentile_f32(&mut f, 99.0), 990.0);
        assert_eq!(percentile_f32(&mut [4.0, 1.0], 50.0), 2.5);
    }

    #[test]
    fn segment_median_and_spread() {
        // Twelve segments, one of them disturbed: the median ignores it.
        let mut segs = vec![100.0; 11];
        segs.push(10.0);
        assert_eq!(median(&segs), 100.0);
        assert_eq!(iqr_share(&segs), 0.0);
        assert_eq!(iqr_share(&[90.0, 100.0, 110.0]), 0.1);
        assert_eq!(iqr_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line =
            "4242 (a b) c) R 1 4242 4242 0 -1 4194560 100 0 0 0 1234 56 0 0 20 0 5 0 100 200 300";
        assert_eq!(parse_stat_ticks(line), Some(1234 + 56));
        assert_eq!(parse_stat_ticks("no parens"), None);
        assert_eq!(parse_stat_ticks("1 (x) R 1 2"), None);
        assert!(process_cpu_ns() > 0, "/proc/self/stat readable");
    }

    #[test]
    fn proc_fields() {
        let status = "Name:\tx\nVmRSS:\t  2048 kB\n";
        assert_eq!(proc_field(status, "VmRSS"), Some("2048 kB"));
        assert_eq!(proc_field(status, "VmHWM"), None);
        assert!(rss_mb() > 0.0);
        assert!(Host::read().nproc >= 1);
    }
}
