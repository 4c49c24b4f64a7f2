//! Order statistics, the input generator's random numbers, and what the
//! benchmark records about the host.

/// Linear-interpolation quantile of `v` at `q` in `[0, 1]`; 0 for an
/// empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num ÷ den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's own generator, so that inputs depend only
/// on the seed and never on the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU ticks of the host: `(steal, total)`, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// `(steal, total)` ticks the host counted since `since`.
pub fn ticks_since(since: (u64, u64)) -> (u64, u64) {
    let now = cpu_ticks();
    (now.0 - since.0, now.1 - since.1)
}

/// Host steal in windows of about one second.
///
/// On a shared host the hypervisor takes the CPU away from this guest for
/// stretches of seconds ("steal"), and while it does, every wall time of
/// the threaded engine stretches with it. The workloads read the host
/// counters between requests; each window runs from one read to the next,
/// and each request belongs to the window it started in.
pub struct StealWindows {
    opened: std::time::Instant,
    /// Cumulative `(steal, total)` ticks at the last window boundary.
    mark: (u64, u64),
    /// `(steal, total)` ticks of each closed window.
    closed: Vec<(u64, u64)>,
}

impl StealWindows {
    const WINDOW_S: f64 = 1.0;

    pub fn start() -> StealWindows {
        StealWindows {
            opened: std::time::Instant::now(),
            mark: cpu_ticks(),
            closed: Vec::new(),
        }
    }

    /// The window a request starting now belongs to.
    pub fn window(&mut self) -> usize {
        if self.opened.elapsed().as_secs_f64() >= Self::WINDOW_S {
            self.opened = std::time::Instant::now();
            let now = cpu_ticks();
            self.closed.push((now.0 - self.mark.0, now.1 - self.mark.1));
            self.mark = now;
        }
        self.closed.len()
    }

    /// Close the last window; the ticks of every window.
    pub fn finish(mut self) -> Vec<(u64, u64)> {
        self.closed.push(ticks_since(self.mark));
        self.closed
    }
}

/// Of intervals with `(steal, total)` ticks, mark the quieter half (by
/// steal share, at least one) as `true`. Also returns the steal share of
/// the quiet and of the other intervals.
pub fn quieter_half(ticks: &[(u64, u64)]) -> (Vec<bool>, f64, f64) {
    let frac = |&(s, t): &(u64, u64)| ratio(s as f64, t as f64);
    let mut order: Vec<usize> = (0..ticks.len()).collect();
    order.sort_by(|&a, &b| frac(&ticks[a]).total_cmp(&frac(&ticks[b])));
    let mut quiet = vec![false; ticks.len()];
    for &w in &order[..ticks.len().div_ceil(2)] {
        quiet[w] = true;
    }
    let share = |keep: bool| {
        let (s, t) = ticks
            .iter()
            .zip(&quiet)
            .filter(|(_, &q)| q == keep)
            .fold((0, 0), |(s, t), (&(ds, dt), _)| (s + ds, t + dt));
        ratio(s as f64, t as f64)
    };
    let (quiet_share, other_share) = (share(true), share(false));
    (quiet, quiet_share, other_share)
}

/// The commit the benchmark was built from, when the working directory
/// is the top of a git checkout; `unknown` otherwise.
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
