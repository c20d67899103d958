//! Small helpers shared by every workload: a seeded generator for the
//! inputs, an output digest, order statistics, process probes and a
//! minimal JSON writer.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's input generator. Every input is drawn
/// from a stream derived from `(seed, stream, index)`, so op `i` of a
/// workload is the same whatever ran before it.
pub struct Rng(u64);

impl Rng {
    /// The generator for item `index` of input stream `stream`.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let base = r.next_u64();
        Rng(base ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over the deterministic outputs of a run.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// User plus system CPU seconds of this process, all threads, at the
/// clock's nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON object built field by field.
pub struct Json(String);

impl Json {
    pub fn new() -> Json {
        Json(String::new())
    }

    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "{}:", quote(k));
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Json {
        self.key(k);
        self.0.push_str(&number(v));
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Json {
        self.key(k);
        let _ = write!(self.0, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Json {
        self.key(k);
        self.0.push_str(&quote(v));
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Json {
        self.key(k);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn raw(&mut self, k: &str, v: String) -> &mut Json {
        self.key(k);
        self.0.push_str(&v);
        self
    }

    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".into()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// Shortest round-trip rendering; non-finite values become 0 (JSON has
/// no NaN), which the applicability check then reports.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_list(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}
