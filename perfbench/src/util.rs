//! Seeded randomness, summary statistics, the result ledger and the
//! external `gzip -dc` oracle shared by every workload.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

/// Training seeds of the built-in profile registry (`TRAIN_SEED_BASE` and
/// `TRAIN_SAMPLES` in `nx_core::profiles`). Payload seeds stay outside
/// this range, or canned ratios would be measured on training data.
const TRAIN_SEEDS: std::ops::Range<u64> = 7_700..7_764;

/// Length of each bulk buffer.
pub const BUF_LEN: usize = 4 << 20;
/// Leading rounds whose buffers the ratios, counts and simulated
/// statistics cover, so those repeat exactly on every run of one seed.
pub const COUNTED_ROUNDS: usize = 3;

/// The content a workload's bulk buffers and `scan` payloads are drawn
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The seeded ten-class `nx_corpus::mixed` stream.
    Mixed,
    /// Markov-chain English-like prose alone.
    Text,
}

impl Corpus {
    pub fn generate(self, seed: u64, len: usize) -> Vec<u8> {
        match self {
            Corpus::Mixed => nx_corpus::mixed(seed, len),
            Corpus::Text => nx_corpus::CorpusKind::Text.generate(seed, len),
        }
    }
}

/// The seeded sequence of buffers the `bulk` and `accel` parts work on:
/// round `r` of either part gets `buffer(r)`. A fresh buffer every round
/// makes a run average over tens of inputs, so paths whose speed depends
/// on the content (parallel inflate's speculation) read alike across
/// seeds.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    pub corpus: Corpus,
}

impl Inputs {
    pub fn buffer(&self, round: usize) -> Vec<u8> {
        let mut rng = Rng::new(self.seed, &format!("bulk.input.{round}"));
        self.corpus.generate(rng.payload_seed(), BUF_LEN)
    }

    /// A short buffer of the same content for warm-up calls.
    pub fn warmup(&self) -> Vec<u8> {
        let mut rng = Rng::new(self.seed, "bulk.warmup");
        self.corpus.generate(rng.payload_seed(), 256 << 10)
    }
}

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Self {
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        let mut r = Rng(seed ^ tag);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Log-uniform in `lo..=hi`: every power of two in the band is
    /// equally likely, like socket reads or payload sizes.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        let (a, b) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
        ((a + self.unit() * (b - a)).exp() as usize).clamp(lo, hi)
    }

    /// A corpus seed for the next input, outside the training seeds.
    pub fn payload_seed(&mut self) -> u64 {
        let s = self.next_u64();
        if TRAIN_SEEDS.contains(&s) {
            s + (TRAIN_SEEDS.end - TRAIN_SEEDS.start)
        } else {
            s
        }
    }
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank on a sorted copy.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Throughput in MB/s of calls timed in `times` (seconds), each over
/// `bytes` bytes.
pub fn mb_per_s(times: &[f64], bytes: usize) -> f64 {
    (bytes * times.len()) as f64 / times.iter().sum::<f64>() / 1e6
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a workload run produced: metrics plus the operation ledger.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed operation or check.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation or check. Only the first few reasons
    /// are kept; the count is exact.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }
}

/// Decodes `members` (one or more concatenated gzip members) with the
/// system `gzip -dc` and compares the output with `expected`.
pub fn gzip_oracle(members: &[u8], expected: &[u8]) -> Result<(), String> {
    let bin = if std::path::Path::new("/usr/bin/gzip").exists() {
        "/usr/bin/gzip"
    } else {
        "gzip"
    };
    let mut child = Command::new(bin)
        .arg("-dc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot run gzip -dc: {e}"))?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let mut out = Vec::with_capacity(expected.len());
    // Feed stdin from a second thread so a full pipe cannot deadlock the
    // reader.
    let fed = std::thread::scope(|s| {
        let writer = s.spawn(move || stdin.write_all(members));
        let read = stdout.read_to_end(&mut out);
        let wrote = writer.join().expect("gzip feeder thread panicked");
        read.and(wrote)
    });
    let status = child.wait().map_err(|e| format!("gzip -dc wait: {e}"))?;
    fed.map_err(|e| format!("gzip -dc pipe: {e}"))?;
    if !status.success() {
        return Err(format!("gzip -dc exited with {status}"));
    }
    if out != expected {
        return Err("gzip -dc output differs from the input".into());
    }
    Ok(())
}

/// Returns the allocator's free memory to the system, so the peak
/// resident size tracks what one step holds rather than how the heap
/// fragmented over the run. Called between steps, outside timed calls.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only walks the allocator's own free
        // lists; it takes no pointers from the caller.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
