//! E20 — Inflate superloop kernels: merged-entry fast path vs the careful
//! reference decoder, per-corpus deflate/inflate throughput, and
//! scratch-reuse gain.
//!
//! PR 4 rebuilt the inflate hot loop around pre-merged Huffman entries
//! (one packed u32 lookup yields base + extra-bit count + code length),
//! a local bit accumulator refilled once per iteration, and wide 8-byte
//! match copies, with a careful per-symbol loop guarding the last 274
//! bytes of input/output. This experiment prices that work four ways:
//!
//! * **Part A** times the fast decoder on the level-6 mixed corpus — the
//!   exact workload PR 1 recorded at 366 MB/s — and the acceptance bar
//!   is ≥ 1.5× that documented baseline.
//! * **Part B** sweeps every corpus class at level 6 and times the fast
//!   decoder, the careful reference (`disable_fast_path`), and the
//!   encoder, interleaved best-of-3 so scheduler noise hits both sides
//!   evenly. Note the careful path *also* profits from the merged
//!   tables, so fast/careful understates the full PR delta; outputs
//!   must be byte-identical on every class.
//! * **Part C** reads the process-wide fast/careful byte counters around
//!   the fast passes — the numbers `nx-telemetry` exports as
//!   `nx_inflate_fast_path_bytes_total` — to report what fraction of
//!   decoded bytes the superloop actually produced.
//! * **Part D** times `inflate_into` with a reused `InflateScratch` +
//!   output buffer against the allocating one-shot on a repeated mixed
//!   payload, isolating what the zero-allocation plumbing buys.
//! * **Part E** feeds one level-6 mixed member to `InflateStream` in
//!   pushes of 64 B, 512 B, 4 KiB and 1 MiB and times each against
//!   one-shot `inflate` on the same member, interleaved best-of-3. Each
//!   row carries the fast-path share of its own passes (counter deltas).
//!   The streaming decoder suspends mid-block instead of re-decoding the
//!   block on every push, so it should track the one-shot closely.
//!
//! `run()` writes `BENCH_KERNELS.json`; `scripts/ci.sh` gates on the
//! summary row's `inflate_mb_per_s` against the committed baseline, and
//! on Part E's same-run ratios: 4 KiB pushes ≥ 0.90× and 64 B pushes
//! ≥ 0.33× the one-shot.

use super::MetricRow;
use crate::{Table, SEED};
use nx_corpus::CorpusKind;
use nx_deflate::decoder::inflate_careful;
use nx_deflate::{
    decode_path_counters, deflate, inflate, inflate_into, CompressionLevel, InflateScratch,
    InflateStream,
};
use std::sync::OnceLock;
use std::time::Instant;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Inflate superloop: fast vs careful decoder, scratch reuse";

/// Where the machine-readable kernel rows land (workspace root under
/// `cargo run`). The CI gate parses the summary row of this file.
pub const JSON_PATH: &str = "BENCH_KERNELS.json";

/// Bytes generated per corpus class. 2 MiB is long enough that a timed
/// inflate pass (~3 ms on the fast path) swamps timer noise, short
/// enough that ten classes × best-of-3 × three kernels stays quick.
const PER_KIND: usize = 2 << 20;

/// Mixed-corpus length for the headline Part A measurement (the PR 1
/// baseline workload shape, sized so a pass runs ~10 ms).
const MIXED_LEN: usize = 8 << 20;

/// Mixed-corpus inflate throughput recorded by PR 1 on this container
/// class (CHANGES.md: "inflate 227→366 MiB/s"). The headline speedup is
/// measured against this documented pre-superloop number.
const PR1_BASELINE_MB_PER_S: f64 = 366.0;

/// Timed passes per kernel; the minimum is reported (e18/e19 pattern).
const PASSES: usize = 3;

/// Repetitions of the Part D payload per timed pass, so allocator
/// behaviour (freshly mapped pages vs warm reused capacity) dominates.
const REUSE_REPS: usize = 512;

/// Part D payload length. Small on purpose: per-call fixed costs — the
/// output vector and decode-table allocations the scratch path elides —
/// are a measurable share of a 16 KiB decode but vanish into the body of
/// a 1 MiB one, which left the old measurement at the mercy of timer
/// noise (it once reported a *negative* gain).
const REUSE_LEN: usize = 16 << 10;

/// Part D interleaved passes; more than [`PASSES`] because the gain is a
/// small difference of two close timings and the min needs more samples
/// to stabilise.
const REUSE_PASSES: usize = 7;

/// Acceptance bar: mixed-corpus fast throughput over the PR 1 baseline.
const BAR_SPEEDUP: f64 = 1.5;

/// Part E member: 4 MiB of mixed corpus at level 6, the shape the
/// benchmark's streaming gunzip decodes.
const STREAM_LEN: usize = 4 << 20;

/// Part E push sizes, from a byte-trickling socket to bulk reads.
const PUSH_SIZES: [usize; 4] = [64, 512, 4 << 10, 1 << 20];

/// One Part E row: streaming at one push size vs the one-shot.
struct StreamCell {
    push_bytes: usize,
    stream_mb_per_s: f64,
    /// Fraction of this row's Huffman-decoded bytes the fast loop made.
    fast_path_share: f64,
    /// Concatenated pushes equal the one-shot output.
    identical: bool,
}

/// One corpus class's kernel row.
struct Cell {
    corpus: &'static str,
    /// compressed/plain size ratio at level 6.
    ratio: f64,
    fast_mb_per_s: f64,
    careful_mb_per_s: f64,
    deflate_mb_per_s: f64,
    /// Fast and careful decoders produced byte-identical output.
    identical: bool,
}

struct Measured {
    cells: Vec<Cell>,
    /// Part A: mixed-corpus fast throughput (the PR 1 baseline workload).
    mixed_mb_per_s: f64,
    /// Aggregate (total plain bytes / total minimum time) throughputs
    /// across the corpus sweep.
    fast_mb_per_s: f64,
    careful_mb_per_s: f64,
    deflate_mb_per_s: f64,
    /// Fraction of decoded bytes the superloop produced (0..=1),
    /// measured across the fast timed passes only.
    fast_path_share: f64,
    /// Fractional throughput gain of scratch reuse over the allocating
    /// one-shot (0.10 = reuse is 10% faster).
    reuse_gain: f64,
    /// Part E: one-shot throughput on the streamed member, and one row
    /// per push size.
    oneshot_mb_per_s: f64,
    stream: Vec<StreamCell>,
    all_identical: bool,
}

/// Wall-clock seconds of one call to `f`.
fn timed<F: FnMut()>(mut f: F) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Part D: reuse vs one-shot on a repeated mixed payload, interleaved
/// best-of-[`REUSE_PASSES`] so cache warmth hits both sides evenly.
fn reuse_gain() -> f64 {
    let data = nx_corpus::mixed(SEED, REUSE_LEN);
    let comp = deflate(&data, CompressionLevel::default());
    let mut scratch = InflateScratch::default();
    let mut out = Vec::new();
    // Prime the scratch tables and output capacity once.
    inflate_into(&comp, &mut scratch, &mut out).expect("valid stream");
    let (mut reuse, mut fresh) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REUSE_PASSES {
        reuse = reuse.min(timed(|| {
            for _ in 0..REUSE_REPS {
                inflate_into(&comp, &mut scratch, &mut out).expect("valid stream");
                std::hint::black_box(out.len());
            }
        }));
        fresh = fresh.min(timed(|| {
            for _ in 0..REUSE_REPS {
                std::hint::black_box(inflate(&comp).expect("valid stream").len());
            }
        }));
    }
    fresh / reuse - 1.0
}

/// Decodes `comp` through `InflateStream` in pushes of `push` bytes,
/// returning the concatenated output.
fn stream_decode(comp: &[u8], push: usize) -> Vec<u8> {
    let mut dec = InflateStream::new();
    let mut out = Vec::new();
    for piece in comp.chunks(push) {
        out.extend_from_slice(&dec.push(piece).expect("valid stream"));
    }
    dec.finish().expect("complete stream");
    out
}

/// Part E: every push size against the one-shot on one level-6 mixed
/// member, interleaved best-of-[`PASSES`]. Returns the one-shot MB/s and
/// the rows.
fn stream_sweep() -> (f64, Vec<StreamCell>) {
    let data = nx_corpus::mixed(SEED, STREAM_LEN);
    let comp = deflate(&data, CompressionLevel::new(6).expect("level 6 is valid"));
    let mut oneshot = f64::INFINITY;
    let mut best = [f64::INFINITY; PUSH_SIZES.len()];
    let mut counted = [(0u64, 0u64); PUSH_SIZES.len()];
    for _ in 0..PASSES {
        oneshot = oneshot.min(timed(|| {
            std::hint::black_box(inflate(&comp).expect("valid stream").len());
        }));
        for (i, &push) in PUSH_SIZES.iter().enumerate() {
            let (f0, c0) = decode_path_counters();
            best[i] = best[i].min(timed(|| {
                let mut dec = InflateStream::new();
                for piece in comp.chunks(push) {
                    std::hint::black_box(dec.push(piece).expect("valid stream").len());
                }
            }));
            let (f1, c1) = decode_path_counters();
            counted[i].0 += f1 - f0;
            counted[i].1 += c1 - c0;
        }
    }
    let rows = PUSH_SIZES
        .iter()
        .enumerate()
        .map(|(i, &push)| StreamCell {
            push_bytes: push,
            stream_mb_per_s: data.len() as f64 / best[i] / 1e6,
            fast_path_share: counted[i].0 as f64 / (counted[i].0 + counted[i].1).max(1) as f64,
            identical: stream_decode(&comp, push) == data,
        })
        .collect();
    (data.len() as f64 / oneshot / 1e6, rows)
}

/// Part A: best-of-[`PASSES`] fast inflate on the PR 1 mixed workload.
fn mixed_throughput() -> f64 {
    let data = nx_corpus::mixed(SEED, MIXED_LEN);
    let comp = deflate(&data, CompressionLevel::new(6).expect("level 6 is valid"));
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        best = best.min(timed(|| {
            std::hint::black_box(inflate(&comp).expect("valid stream").len());
        }));
    }
    data.len() as f64 / best / 1e6
}

/// Runs the sweep once per process; `run()` and [`metrics`] share it.
fn measured() -> &'static Measured {
    static CELL: OnceLock<Measured> = OnceLock::new();
    CELL.get_or_init(|| {
        let level = CompressionLevel::new(6).expect("level 6 is valid");
        let mut cells = Vec::new();
        let (mut fast_t, mut careful_t, mut deflate_t) = (0.0f64, 0.0f64, 0.0f64);
        let mut plain_total = 0usize;
        let (mut fast_bytes, mut careful_bytes) = (0u64, 0u64);
        let mut all_identical = true;

        for &kind in CorpusKind::all() {
            let data = kind.generate(SEED, PER_KIND);
            let comp = deflate(&data, level);

            // Interleave the three kernels so cache/scheduler noise is
            // shared instead of biasing whichever ran last.
            let (mut ft, mut ct, mut dt) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            let (f0, c0) = decode_path_counters();
            for _ in 0..PASSES {
                ft = ft.min(timed(|| {
                    std::hint::black_box(inflate(&comp).expect("valid stream").len());
                }));
                ct = ct.min(timed(|| {
                    std::hint::black_box(inflate_careful(&comp).expect("valid stream").len());
                }));
                dt = dt.min(timed(|| {
                    std::hint::black_box(deflate(&data, level).len());
                }));
            }
            let (f1, c1) = decode_path_counters();
            // The careful passes also bump the careful counter; subtract
            // their known contribution to isolate the fast passes' mix.
            let careful_pass_bytes = (PASSES * data.len()) as u64;
            let delta_c = (c1 - c0).saturating_sub(careful_pass_bytes);
            fast_bytes += f1 - f0;
            careful_bytes += delta_c;

            let identical = inflate(&comp).expect("valid stream")
                == inflate_careful(&comp).expect("valid stream");
            all_identical &= identical;
            fast_t += ft;
            careful_t += ct;
            deflate_t += dt;
            plain_total += data.len();

            cells.push(Cell {
                corpus: kind.name(),
                ratio: comp.len() as f64 / data.len() as f64,
                fast_mb_per_s: data.len() as f64 / ft / 1e6,
                careful_mb_per_s: data.len() as f64 / ct / 1e6,
                deflate_mb_per_s: data.len() as f64 / dt / 1e6,
                identical,
            });
        }

        let decoded = (fast_bytes + careful_bytes).max(1);
        let (oneshot_mb_per_s, stream) = stream_sweep();
        all_identical &= stream.iter().all(|c| c.identical);
        Measured {
            cells,
            mixed_mb_per_s: mixed_throughput(),
            fast_mb_per_s: plain_total as f64 / fast_t / 1e6,
            careful_mb_per_s: plain_total as f64 / careful_t / 1e6,
            deflate_mb_per_s: plain_total as f64 / deflate_t / 1e6,
            fast_path_share: fast_bytes as f64 / decoded as f64,
            reuse_gain: reuse_gain(),
            oneshot_mb_per_s,
            stream,
            all_identical,
        }
    })
}

/// Headline speedup: mixed-corpus fast decode vs the PR 1 baseline.
fn speedup_vs_pr1(m: &Measured) -> f64 {
    m.mixed_mb_per_s / PR1_BASELINE_MB_PER_S
}

/// Part E: streaming throughput at `push` bytes over the one-shot (0 if
/// the size was not swept).
fn stream_vs_oneshot(m: &Measured, push: usize) -> f64 {
    m.stream
        .iter()
        .find(|c| c.push_bytes == push)
        .map_or(0.0, |c| c.stream_mb_per_s / m.oneshot_mb_per_s)
}

/// Renders the machine-readable kernel rows ([`JSON_PATH`]).
fn render_kernels_json(m: &Measured) -> String {
    let mut rows: Vec<String> = m
        .cells
        .iter()
        .map(|c| {
            format!(
                "  {{\"section\": \"kernel\", \"corpus\": \"{}\", \"ratio\": {:.4}, \
                 \"inflate_mb_per_s\": {:.3}, \"careful_mb_per_s\": {:.3}, \
                 \"speedup\": {:.3}, \"deflate_mb_per_s\": {:.3}, \"identical\": {}}}",
                c.corpus,
                c.ratio,
                c.fast_mb_per_s,
                c.careful_mb_per_s,
                c.fast_mb_per_s / c.careful_mb_per_s,
                c.deflate_mb_per_s,
                c.identical
            )
        })
        .collect();
    rows.extend(m.stream.iter().map(|c| {
        format!(
            "  {{\"section\": \"stream\", \"push_bytes\": {}, \"stream_mb_per_s\": {:.3}, \
             \"oneshot_mb_per_s\": {:.3}, \"vs_oneshot\": {:.3}, \"fast_path_pct\": {:.2}, \
             \"identical\": {}}}",
            c.push_bytes,
            c.stream_mb_per_s,
            m.oneshot_mb_per_s,
            c.stream_mb_per_s / m.oneshot_mb_per_s,
            c.fast_path_share * 100.0,
            c.identical
        )
    }));
    rows.push(format!(
        "  {{\"section\": \"summary\", \"inflate_mb_per_s\": {:.3}, \
         \"careful_mb_per_s\": {:.3}, \"deflate_mb_per_s\": {:.3}, \
         \"mixed_mb_per_s\": {:.3}, \"pr1_baseline_mb_per_s\": {PR1_BASELINE_MB_PER_S}, \
         \"speedup_vs_pr1\": {:.3}, \"fast_path_pct\": {:.2}, \
         \"reuse_gain_pct\": {:.2}, \"all_identical\": {}, \"bar_speedup\": {BAR_SPEEDUP}}}",
        m.fast_mb_per_s,
        m.careful_mb_per_s,
        m.deflate_mb_per_s,
        m.mixed_mb_per_s,
        speedup_vs_pr1(m),
        m.fast_path_share * 100.0,
        m.reuse_gain * 100.0,
        m.all_identical
    ));
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Machine-readable rows for `tables --json`.
pub fn metrics() -> Vec<MetricRow> {
    let m = measured();
    vec![
        MetricRow::new("mixed_mb_per_s", m.mixed_mb_per_s, "MB/s"),
        MetricRow::new("speedup_vs_pr1", speedup_vs_pr1(m), "ratio"),
        MetricRow::new("inflate_mb_per_s", m.fast_mb_per_s, "MB/s"),
        MetricRow::new("careful_mb_per_s", m.careful_mb_per_s, "MB/s"),
        MetricRow::new("deflate_mb_per_s", m.deflate_mb_per_s, "MB/s"),
        MetricRow::new("fast_path_pct", m.fast_path_share * 100.0, "percent"),
        MetricRow::new("reuse_gain_pct", m.reuse_gain * 100.0, "percent"),
        MetricRow::new("oneshot_mb_per_s", m.oneshot_mb_per_s, "MB/s"),
        MetricRow::new(
            "stream_4k_vs_oneshot",
            stream_vs_oneshot(m, 4 << 10),
            "ratio",
        ),
        MetricRow::new("stream_64_vs_oneshot", stream_vs_oneshot(m, 64), "ratio"),
        MetricRow::new(
            "outputs_identical",
            f64::from(u8::from(m.all_identical)),
            "bool",
        ),
    ]
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measured();

    let mut table = Table::new(vec![
        "corpus",
        "ratio",
        "inflate MB/s",
        "careful MB/s",
        "speedup",
        "deflate MB/s",
        "identical",
    ]);
    for c in &m.cells {
        table.row(vec![
            c.corpus.to_string(),
            format!("{:.3}", c.ratio),
            format!("{:.1}", c.fast_mb_per_s),
            format!("{:.1}", c.careful_mb_per_s),
            format!("{:.2}x", c.fast_mb_per_s / c.careful_mb_per_s),
            format!("{:.1}", c.deflate_mb_per_s),
            c.identical.to_string(),
        ]);
    }

    let mut stream_table = Table::new(vec![
        "push",
        "stream MB/s",
        "vs one-shot",
        "fast path",
        "identical",
    ]);
    for c in &m.stream {
        stream_table.row(vec![
            format!("{} B", c.push_bytes),
            format!("{:.1}", c.stream_mb_per_s),
            format!("{:.2}x", c.stream_mb_per_s / m.oneshot_mb_per_s),
            format!("{:.1}%", c.fast_path_share * 100.0),
            c.identical.to_string(),
        ]);
    }

    let json = render_kernels_json(m);
    let json_note = match std::fs::write(JSON_PATH, &json) {
        Ok(()) => format!("kernel rows written to `{JSON_PATH}`"),
        Err(err) => format!("could not write `{JSON_PATH}`: {err}"),
    };

    format!(
        "## E20 — {TITLE}\n\nHeadline: {} MiB level-6 mixed corpus inflates at {:.1} MB/s — \
         {:.2}x the {PR1_BASELINE_MB_PER_S} MB/s PR 1 baseline (bar: ≥ {BAR_SPEEDUP}x).\n\n\
         Sweep: {} corpus classes × {} MiB, interleaved best-of-{PASSES} per kernel. \
         Aggregate inflate {:.1} MB/s fast vs {:.1} MB/s careful (the careful reference \
         also profits from the merged tables, so this ratio understates the PR delta); \
         outputs byte-identical: {}.\n\n{}\n\
         Superloop produced {:.1}% of decoded bytes during the fast passes \
         (process counters, exported as `nx_inflate_fast_path_bytes_total`). \
         Scratch reuse (`inflate_into`, {REUSE_REPS}x 16 KiB mixed payload) runs \
         {:+.1}% vs the allocating one-shot.\n\n\
         Streaming (`InflateStream`, {} MiB level-6 mixed member, one-shot {:.1} MB/s):\n\n\
         {}\n{json_note}\n",
        MIXED_LEN >> 20,
        m.mixed_mb_per_s,
        speedup_vs_pr1(m),
        m.cells.len(),
        PER_KIND >> 20,
        m.fast_mb_per_s,
        m.careful_mb_per_s,
        m.all_identical,
        table.render(),
        m.fast_path_share * 100.0,
        m.reuse_gain * 100.0,
        STREAM_LEN >> 20,
        m.oneshot_mb_per_s,
        stream_table.render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_and_careful_agree_per_corpus() {
        // Small per-kind slices keep this quick; the full-size identity
        // check rides along inside measured() when the experiment runs.
        for &kind in CorpusKind::all() {
            let data = kind.generate(SEED, 64 << 10);
            let comp = deflate(&data, CompressionLevel::new(6).expect("valid"));
            let fast = inflate(&comp).expect("fast decode");
            let careful = inflate_careful(&comp).expect("careful decode");
            assert_eq!(fast, careful, "decoder divergence on {}", kind.name());
            assert_eq!(fast, data, "roundtrip mismatch on {}", kind.name());
        }
    }

    #[test]
    fn stream_pushes_match_one_shot() {
        let data = nx_corpus::mixed(SEED, 256 << 10);
        let comp = deflate(&data, CompressionLevel::new(6).expect("valid"));
        for push in PUSH_SIZES {
            assert!(stream_decode(&comp, push) == data, "push {push}");
        }
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        let data = nx_corpus::mixed(SEED, 256 << 10);
        let comp = deflate(&data, CompressionLevel::default());
        let mut scratch = InflateScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            inflate_into(&comp, &mut scratch, &mut out).expect("valid stream");
            assert_eq!(out, data);
        }
    }

    #[test]
    fn kernels_json_is_well_formed() {
        let m = Measured {
            cells: vec![Cell {
                corpus: "text",
                ratio: 0.35,
                fast_mb_per_s: 700.0,
                careful_mb_per_s: 350.0,
                deflate_mb_per_s: 40.0,
                identical: true,
            }],
            mixed_mb_per_s: 732.0,
            fast_mb_per_s: 700.0,
            careful_mb_per_s: 350.0,
            deflate_mb_per_s: 40.0,
            fast_path_share: 0.97,
            reuse_gain: 0.08,
            oneshot_mb_per_s: 400.0,
            stream: vec![StreamCell {
                push_bytes: 4096,
                stream_mb_per_s: 380.0,
                fast_path_share: 0.95,
                identical: true,
            }],
            all_identical: true,
        };
        let json = render_kernels_json(&m);
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 3);
        assert!(json.contains("\"push_bytes\": 4096"));
        assert!(json.contains("\"vs_oneshot\": 0.950"));
        assert_eq!(stream_vs_oneshot(&m, 4096), 0.95);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"inflate_mb_per_s\": 700.000"));
        assert!(json.contains("\"speedup_vs_pr1\": 2.000"));
        assert!(json.contains("\"fast_path_pct\": 97.00"));
        assert!(json.contains("\"all_identical\": true"));
    }
}
